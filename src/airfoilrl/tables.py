"""The pipeline's tables: their columns, the feature box that decides
which rows are valid designs, and the one CSV writer and reader.  Sample
tables are float arrays in memory as in their CSV files, less the text
columns.
"""
from __future__ import annotations

import csv

import numpy as np

# valid single-shock design box: (lower, upper) per output, in output order
FEATURE_BOUNDS = {
    "cd": (0.009, 0.013),
    "x1": (0.2, 0.8),
    "mw1": (1.0, 1.2),
    "mwl": (1.0, 1.3),
    "mwa": (0.9, 1.1),
}
OUTPUT_NAMES = tuple(FEATURE_BOUNDS)
# (5, 2), in OUTPUT_NAMES order; its last four rows bound the RL state
FEATURE_BOX = np.array([FEATURE_BOUNDS[k] for k in OUTPUT_NAMES])

# dataset CSV: an (n, 19) airfoil sample table, the 14 CST coefficients
# then the outputs (+ an in_bounds marker)
CSV_COLUMNS = [f"c_u{i}" for i in range(7)] + [f"c_l{i}" for i in range(7)] + list(OUTPUT_NAMES)
CST_COLS = slice(CSV_COLUMNS.index(OUTPUT_NAMES[0]))
OUTPUT_COLS = slice(CST_COLS.stop, len(CSV_COLUMNS))

# sample CSV: an (n, 8) state-action sample table, the state, the
# physical action and the reward (+ a stage marker)
SAMPLE_COLUMNS = [*OUTPUT_NAMES[1:], "t1", "sb", "hb", "reward", "stage"]
STATE_COLS = slice(SAMPLE_COLUMNS.index("t1"))
ACTION_COLS = slice(STATE_COLS.stop, SAMPLE_COLUMNS.index("reward"))
REWARD_COL = ACTION_COLS.stop
SAMPLE_WIDTH = REWARD_COL + 1


class TableError(ValueError):
    """A malformed CSV table; the message names the file and the column."""


def in_feature_bounds(outputs) -> np.ndarray:
    """Whether (..., 5) output rows, in OUTPUT_NAMES order, lie in the
    feature box; a (...) mask."""
    return np.all((FEATURE_BOX[:, 0] <= outputs) & (outputs <= FEATURE_BOX[:, 1]), axis=-1)


def is_valid_design(cd, state, no_shock) -> np.ndarray:
    """The valid-design rule over (N,) drags, (N, 4) states and (N,) no-shock
    flags: a shock was found and the outputs lie in the feature box."""
    return ~no_shock & in_feature_bounds(np.column_stack((cd, state)))


def write_csv(path, columns, rows) -> None:
    """Write `columns` as the header, then each row of values; a float is
    written as repr(float(v)), its shortest round-trip text."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                         for row in rows)


def write_rows(path, rows: list[dict]) -> None:
    """A table of dict rows: the columns are the keys in order of first
    appearance, and a key a row lacks is left blank."""
    columns = list(dict.fromkeys(k for row in rows for k in row))
    write_csv(path, columns, ([row.get(k, "") for k in columns] for row in rows))


def read_cells(path, columns):
    """Yield each row's `columns` cells, as text, of a CSV table (blank
    lines skipped, missing cells blank); TableError on a missing column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in columns if c not in header]
        if missing:
            raise TableError(f"{path}: missing columns {missing}")
        idx = [header.index(c) for c in columns]
        width = max(idx) + 1
        for row in filter(None, reader):
            row += [""] * (width - len(row))
            yield [row[i] for i in idx]


def read_csv(path, columns) -> np.ndarray:
    """The (n, len(columns)) float table of `columns` of a CSV table, read
    a row at a time; a float written by write_csv reads back bitwise.
    TableError as read_cells, or for a cell that is not a number."""
    def values():
        for n, cells in enumerate(read_cells(path, columns), 1):
            for name, cell in zip(columns, cells):
                try:
                    yield float(cell)
                except ValueError:
                    raise TableError(f"{path} row {n}: {name!r} = {cell!r} "
                                     "is not a number") from None

    return np.fromiter(values(), dtype=float).reshape(-1, len(columns))
