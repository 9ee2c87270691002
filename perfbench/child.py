"""Workload process: runs one pass of CLI commands in order.

Usage: python child.py PLAN.json

The plan names the program's source directory, the work directory,
the commands (``airfoilrl.cli.main`` argument lists) and whether to
trace.  Each command starts after the previous one returns and is timed
around its ``main`` call.  The results, with the spans of a traced pass,
are written to ``pass_result.json`` in the work directory when the pass
ends.
"""
from __future__ import annotations

import contextlib
import json
import os
import sys
import time


def run_pass(plan: dict) -> dict:
    sys.path.insert(0, plan["src"])
    os.chdir(plan["workdir"])
    from airfoilrl import cli

    tracer = None
    if plan["trace"]:
        from layers import TARGETS
        from tracing import Tracer, install

        tracer = Tracer(plan["run_id"])
        modules = [m for name, m in sys.modules.items()
                   if name == "airfoilrl" or name.startswith("airfoilrl.")]
        install(tracer, TARGETS, modules)
    ops = []
    start = time.perf_counter()
    for op in plan["ops"]:
        with open(f"{op['command']}.log", "w") as log, \
                contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            span = tracer.open(f"cli.{op['command']}") if tracer else None
            t0 = time.perf_counter()
            code = cli.main(op["argv"])
            seconds = time.perf_counter() - t0
            if span is not None:
                tracer.close(span)
        ops.append({"command": op["command"], "exit": code, "seconds": seconds})
    result = {"ops": ops, "wall_s": time.perf_counter() - start}
    if tracer is not None:
        result["spans"] = tracer.records()
    return result


def main(plan_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    result = run_pass(plan)
    with open(os.path.join(plan["workdir"], "pass_result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
