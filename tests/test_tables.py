"""The CSV table writer keeps the bytes of the three writers it replaced,
and the one table reader reads them back bitwise or names what it rejects.

`ref_*` are verbatim copies of the dict-row writer of the CLI, of
`pretrain.write_samples` and of `surrogate.write_dataset` as they were
before one table writer served them all, the last two reading the
columns of a sample table; every cell kind below must come out byte for
byte as they wrote it.
"""
import csv

import numpy as np
import pytest

from airfoilrl.cli import main
from airfoilrl.plotsvg import plot_history
from airfoilrl.pretrain import read_samples, write_samples
from airfoilrl.proxy import generate_pool
from airfoilrl.surrogate import read_dataset, write_dataset
from airfoilrl.tables import (ACTION_COLS, CSV_COLUMNS, CST_COLS, OUTPUT_COLS, REWARD_COL,
                              SAMPLE_COLUMNS, SAMPLE_WIDTH, STATE_COLS, TableError,
                              in_feature_bounds, read_cells, write_csv, write_rows)

# every cell kind a table meets: special floats, numpy scalars, bools,
# ints, and a string the csv module must quote
NUMBERS = [float("nan"), float("inf"), float("-inf"), -0.0, 1e-300, 0.1,
           np.float64(2.5), np.float64(-0.0), np.bool_(True), np.bool_(False),
           True, False, 7, -3]
CELLS = NUMBERS + ['a,"b" c', ""]


def ref_write_rows_csv(path, rows: list[dict]) -> None:
    fieldnames: list[str] = []
    for row in rows:
        for k in row:
            if k not in fieldnames:
                fieldnames.append(k)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (repr(float(v)) if isinstance(v, float) else v)
                             for k, v in row.items()})


def ref_write_samples(path, samples: np.ndarray, stage: str = "raw") -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SAMPLE_COLUMNS)
        for s in samples:
            t1, s_b, h_b = s[ACTION_COLS]
            writer.writerow([repr(float(v)) for v in s[STATE_COLS]]
                            + [repr(float(t1)), repr(float(s_b)),
                               repr(float(h_b)), repr(float(s[REWARD_COL])),
                               stage])


def ref_write_dataset(path, samples: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS + ["in_bounds"])
        for s in samples:
            row = [repr(float(v)) for v in s[CST_COLS]]
            row += [repr(float(v)) for v in s[OUTPUT_COLS]]
            row.append("1" if in_feature_bounds(s[OUTPUT_COLS]) else "0")
            writer.writerow(row)


def _same_bytes(tmp_path, write, ref, *args):
    new, old = tmp_path / "new.csv", tmp_path / "ref.csv"
    write(new, *args)
    ref(old, *args)
    assert new.read_bytes() == old.read_bytes()


def _cycle(values, n, start):
    return [values[(start + i) % len(values)] for i in range(n)]


DICT_TABLES = {
    "every cell": [{f"c{i}": v for i, v in enumerate(CELLS)}],
    "one cell a row": [{"value": v} for v in CELLS],
    "missing key": [{"a": 1.5, "b": "x"}, {"a": float("nan")}, {"b": -0.0}],
    "differing keys": [{"a": 1, "b": 2.0}, {"c": np.float64(3.0), "a": True},
                       {"d": np.bool_(False)}, {}],
    "no rows": [],
    "empty rows": [{}, {}],
}


@pytest.mark.parametrize("rows", DICT_TABLES.values(), ids=DICT_TABLES.keys())
def test_dict_rows_keep_their_bytes(tmp_path, rows):
    _same_bytes(tmp_path, write_rows, ref_write_rows_csv, rows)


def _sample_sets():
    samples = [[*_cycle(NUMBERS, 4, i), *_cycle(NUMBERS, 3, i + 4),
                NUMBERS[(i + 7) % len(NUMBERS)]] for i in range(len(NUMBERS))]
    samples.append([0.6, 1.1, 1.15, 0.95, 0.5, 0.3, -0.001, np.float64(1.25)])
    return {"every cell": np.array(samples, dtype=float), "no rows": np.empty((0, 8))}


@pytest.mark.parametrize("stage", ["raw", 'a,"b" c', ""])
@pytest.mark.parametrize("name", ["every cell", "no rows"])
def test_samples_keep_their_bytes(tmp_path, name, stage):
    _same_bytes(tmp_path, write_samples, ref_write_samples, _sample_sets()[name], stage)


def _dataset_sets():
    records = [[*_cycle(NUMBERS, 14, i), *_cycle(NUMBERS, 5, i + 3)]
               for i in range(len(NUMBERS))]
    inside = [0.011, 0.5, 1.1, 1.15, 1.0]  # cd, x1, mw1, mwl, mwa
    records.append([*np.linspace(-0.2, 0.3, 14), *inside])
    records.append([*np.linspace(-0.2, 0.3, 14), *map(np.float64, inside)])
    return {"every cell": np.array(records, dtype=float), "no rows": np.empty((0, 19))}


@pytest.mark.parametrize("name", ["every cell", "no rows"])
def test_dataset_keeps_its_bytes(tmp_path, name):
    records = _dataset_sets()[name]
    assert name == "no rows" or {"0", "1"} <= {
        "1" if in_feature_bounds(r[OUTPUT_COLS]) else "0" for r in records}
    _same_bytes(tmp_path, write_dataset, ref_write_dataset, records)


EDGES = [-0.0, 1e-300, float("inf"), float("-inf")]


def _pool_with_edges():
    pool = generate_pool(40, seed=3)
    assert pool.shape == (40, len(CSV_COLUMNS)) and pool.dtype == np.float64
    out_of_box = pool[0].copy()  # row 0 is in the box; its copy at this cd is not
    out_of_box[CSV_COLUMNS.index("cd")] = 0.05
    # read_dataset rejects the non-finite edges
    return np.vstack((pool, out_of_box, [[v] * len(CSV_COLUMNS) for v in EDGES[:2]]))


def _samples_with_edges():
    samples = np.random.default_rng(7).uniform(0.0, 1.0, (5, SAMPLE_WIDTH))
    return np.vstack((samples, [[v] * SAMPLE_WIDTH for v in EDGES]))


def _read_smoothed(path):
    table, stages = read_samples(path)
    assert stages == ["smoothed"] * len(table)
    return table


ROUND_TRIPS = {
    "dataset": (_pool_with_edges, write_dataset, read_dataset),
    "samples": (_samples_with_edges, lambda p, t: write_samples(p, t, stage="smoothed"),
                _read_smoothed),
}


@pytest.mark.parametrize("name", ROUND_TRIPS)
def test_table_files_round_trip_bitwise(tmp_path, name):
    make, write, read = ROUND_TRIPS[name]
    table = make()
    write(tmp_path / "table.csv", table)
    back = read(tmp_path / "table.csv")
    assert back.shape == table.shape and back.tobytes() == table.tobytes()
    if name == "dataset":  # an out-of-box row is kept, but marked
        in_bounds = [cell for cell, in read_cells(tmp_path / "table.csv", ["in_bounds"])]
        assert in_bounds[0] == "1" and in_bounds[40] == "0"


# one valid dataset row: cd, x1, mw1, mwl, mwa inside the feature box
GOOD = [*np.linspace(-0.2, 0.3, 14).tolist(), 0.011, 0.5, 1.1, 1.15, 1.0]


def _with(column, value):
    """GOOD, then GOOD with `column` set to `value`."""
    bad = list(GOOD)
    bad[CSV_COLUMNS.index(column)] = value
    return [GOOD, bad]


def _without(columns, column):
    """Header and rows of a one-row table of `columns` less `column`."""
    kept = [c for c in columns if c != column]
    return kept, [[0.5 if c != "stage" else "raw" for c in kept]]


def _plot_test_cd(path):
    plot_history(path, path.with_suffix(".svg"), "minibatch", "test_cd")


HISTORY = ["minibatch", "train_cd", "test_cd"]

# case: (the column the error must name, write the file, read it)
REJECTS = {
    "dataset without cd": (
        "cd", lambda p: write_csv(p, *_without(CSV_COLUMNS, "cd")), read_dataset),
    "dataset with a nan cell": (
        "mw1", lambda p: write_dataset(p, np.array(_with("mw1", float("nan")))), read_dataset),
    "dataset with a blank cell": (
        "x1", lambda p: write_csv(p, CSV_COLUMNS, _with("x1", "")), read_dataset),
    "samples without reward": (
        "reward", lambda p: write_csv(p, *_without(SAMPLE_COLUMNS, "reward")), read_samples),
    "history without the plotted column": (
        "test_cd", lambda p: write_csv(p, *_without(HISTORY, "test_cd")), _plot_test_cd),
}


@pytest.mark.parametrize("name", REJECTS)
def test_the_table_reader_names_what_it_rejects(tmp_path, name):
    column, write, read = REJECTS[name]
    path = tmp_path / "table.csv"
    write(path)
    with pytest.raises(TableError) as err:
        read(path)
    assert str(path) in str(err.value) and repr(column) in str(err.value)


def test_select_samples_names_a_missing_column(tmp_path, capsys):
    write_csv(tmp_path / "pool.csv", *_without(CSV_COLUMNS, "cd"))
    assert main(["--out-dir", str(tmp_path), "select-samples"]) == 1
    assert "'cd'" in capsys.readouterr().err
