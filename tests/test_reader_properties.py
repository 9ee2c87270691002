"""Malformed input files through the command that reads them.

A valid agent and a valid surrogate are mutated: a member dropped, the
bytes truncated, a member reshaped, nan or inf put in a member, or a
scaler's lo and hi swapped.  Each mutant goes to ``evaluate``, in
process, on a tiny INI.  Valid text inputs (a dataset CSV, a CST file, a
distribution file, an INI and a history CSV) are mutated too: the text
truncated, a line dropped, or a cell replaced with text, nan, inf or
±1e200; each goes to a command that reads it.  Every run exits 1 with
the file named on stderr, or exits 0 with finite outputs; it never
raises.
"""
import contextlib
import csv
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from airfoilrl.cli import main
from airfoilrl.features import write_distribution
from airfoilrl.geometry import write_cst_file
from airfoilrl.nnet import make_mlp, save_model
from airfoilrl.proxy import seed_airfoils
from airfoilrl.rl import make_agent, save_agent
from airfoilrl.tables import write_rows
from conftest import synthetic_distribution

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


# the text inputs: reader -> (valid file, the command on the mutant at
# {mutant}, run on tiny.ini unless the INI itself is the mutant)
TEXT_READERS = {
    "pool": ("pool.csv", ["select-samples", "--pool", "{mutant}", "--keep", "20,10",
                          "--out-prefix", "out"]),
    "train set": ("selected_20.csv", ["train-surrogate", "--train", "{mutant}",
                                      "--test", "selected_10.csv", "--out", "out.npz"]),
    "test set": ("selected_10.csv", ["train-surrogate", "--train", "selected_20.csv",
                                     "--test", "{mutant}", "--out", "out.npz"]),
    "cst": ("base.cst", ["modify", "--airfoil", "{mutant}", "--action", "0.5,0.3,-0.01"]),
    "distribution": ("dist.txt", ["extract-features", "--dist", "{mutant}"]),
    "ini": ("tiny.ini", ["generate-pool", "--n", "5", "--out", "out.csv"]),
    "history": ("history.csv", ["plot", "--history", "{mutant}"]),
}
# 34 epochs of 20 rows in batches of 8: 102 minibatches, one history record
TINY_TEXT = ("[run]\nseed = 2\nt_max = 0.1\n[proxy]\nm_inf = 0.76\n"
             "[surrogate]\nhidden = 8\nschedule = 34:0.01\nbatch_size = 8\n"
             "keep_counts = 20,10\n[ppo]\nhidden = 8,8\nepochs = 2\n")
CELLS = ["text", "nan", "inf", "1e200", "-1e200"]
NON_FINITE = re.compile(r"(?<![a-z_])-?(nan|inf)(?![a-z_])", re.IGNORECASE)


@pytest.fixture(scope="module")
def text_work(tmp_path_factory):
    """A directory holding a valid file for each text reader."""
    path = tmp_path_factory.mktemp("text_readers")
    (path / "tiny.ini").write_text(TINY_TEXT)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["generate-pool", "--n", "60"], ["select-samples"]):
            assert main(["--out-dir", str(path), "--config", str(path / "tiny.ini"),
                         *argv]) == 0
    write_cst_file(path / "base.cst", seed_airfoils(1)[0])
    write_distribution(path / "dist.txt", synthetic_distribution(0.55, 1.15, 1.2, 1.0))
    write_rows(path / "history.csv", [{"iteration": i, "mean_cum_reward": 0.5 * i,
                                       "actor_loss": 0.1 / i if i else math.nan}
                                      for i in range(8)])
    return path


def text_mutant(data, text: str) -> str:
    """One drawn mutation of `text`: truncated, a line dropped, or one
    cell (a comma-, whitespace- or '='-separated field) replaced."""
    kind = data.draw(st.sampled_from(["truncate", "drop", "cell"]))
    if kind == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    lines = text.splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        return "".join(lines[:i] + lines[i + 1:])
    cells = re.split(r"(\s*[,=]\s*|\s+)", lines[i].rstrip("\n"))
    j = 2 * data.draw(st.integers(0, len(cells) // 2))
    cells[j] = data.draw(st.sampled_from(CELLS))
    return "".join(lines[:i] + ["".join(cells) + "\n"] + lines[i + 1:])


def assert_finite_artifacts(manifest):
    """Every artifact the manifest lists holds finite numbers only."""
    with open(manifest) as fh:
        artifacts = json.load(fh)["artifacts"]
    assert artifacts
    for path in artifacts:
        if path.endswith(".npz"):
            with np.load(path) as archive:
                assert all(np.isfinite(archive[name]).all() for name in archive.files), path
        else:
            with open(path) as fh:
                text = fh.read()
            assert not NON_FINITE.search(text), (path, NON_FINITE.search(text))


@pytest.mark.parametrize("reader", sorted(TEXT_READERS))
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_a_mutated_text_file_is_named_or_read_to_finite_outputs(text_work, reader, data):
    valid, command = TEXT_READERS[reader]
    path = text_work / ("mutant" + valid[valid.index("."):])
    path.write_text(text_mutant(data, (text_work / valid).read_text()))
    ini = path if reader == "ini" else text_work / "tiny.ini"
    argv = [arg.format(mutant=path) for arg in command]
    manifest = text_work / f"{argv[0].replace('-', '_')}_manifest.json"
    manifest.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--out-dir", str(text_work), "--config", str(ini), *argv])
    if code == 1:
        assert str(path) in err.getvalue(), err.getvalue()
        return
    assert code == 0, err.getvalue()
    assert_finite_artifacts(manifest)
