"""Malformed model files through the command that reads them.

A valid agent and a valid surrogate are mutated: a member dropped, the
bytes truncated, a member reshaped, nan or inf put in a member, or a
scaler's lo and hi swapped.  Each mutant goes to ``evaluate``, in
process, on a tiny INI.  The run exits 1 with the file named on stderr,
or exits 0 with finite outputs; it never raises.
"""
import contextlib
import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from airfoilrl.cli import main
from airfoilrl.nnet import make_mlp, save_model
from airfoilrl.rl import make_agent, save_agent

TINY = "[ppo]\nhidden = 8,8\nbaselines = 1\nmax_steps = 1\n"
RESHAPES = [np.ravel, lambda a: a[None], lambda a: a[..., None], lambda a: a[:-1]]
OUTPUTS = ("evaluation.csv", "rollout.csv")


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory holding a valid agent.npz, surrogate.npz and tiny.ini."""
    path = tmp_path_factory.mktemp("readers")
    rng = np.random.default_rng(0)
    save_agent(path / "agent.npz", make_agent(rng, hidden=(8,)))
    save_model(path / "surrogate.npz", make_mlp([14, 8, 5], rng))
    (path / "tiny.ini").write_text(TINY)
    return path


def mutant(data, valid) -> bytes:
    """The bytes of one drawn mutation of the .npz file `valid`."""
    kind = data.draw(st.sampled_from(["drop", "truncate", "reshape", "value", "swap"]))
    if kind == "truncate":
        raw = valid.read_bytes()
        return raw[:data.draw(st.integers(0, len(raw) - 1))]
    with np.load(valid) as archive:
        arrays = {name: archive[name] for name in archive.files}
    if kind == "swap":
        lo = data.draw(st.sampled_from(sorted(n for n in arrays if n.endswith("_lo"))))
        hi = lo[:-3] + "_hi"
        arrays[lo], arrays[hi] = arrays[hi], arrays[lo]
    else:
        name = data.draw(st.sampled_from(sorted(arrays)))
        if kind == "drop":
            del arrays[name]
        elif kind == "reshape":
            arrays[name] = data.draw(st.sampled_from(RESHAPES))(arrays[name])
        else:
            arrays[name] = arrays[name].astype(float)
            arrays[name].flat[data.draw(st.integers(0, arrays[name].size - 1))] = \
                data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    out = io.BytesIO()
    np.savez(out, **arrays)
    return out.getvalue()


@pytest.mark.parametrize("reader", ["agent", "surrogate"])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_a_mutated_model_file_is_named_or_read_to_finite_outputs(work, reader, data):
    path = work / "mutant.npz"
    path.write_bytes(mutant(data, work / f"{reader}.npz"))
    for name in OUTPUTS:
        (work / name).unlink(missing_ok=True)
    argv = ["--agent", path.name] if reader == "agent" else \
        ["--agent", "agent.npz", "--surrogate", path.name]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--out-dir", str(work), "--config", str(work / "tiny.ini"),
                     "evaluate", *argv])
    if code == 1:
        assert f"error: {path}: " in err.getvalue()
        return
    assert code == 0, err.getvalue()
    for name in OUTPUTS:
        with open(work / name, newline="") as fh:
            cells = [cell for row in list(csv.reader(fh))[1:] for cell in row]
        assert all(math.isfinite(float(cell)) for cell in cells
                   if cell not in ("mean", "True", "False")), name
