"""Sample-set selection, surrogate training, and relative-RMS reporting.

The surrogate maps the 14 CST coefficients to five outputs
(CD, X1, Mw1, MwL, MwA).  Sample pools are first filtered against the
feature box below, then thinned by repeatedly removing one member of
the closest coefficient-space pair until the requested set sizes are
reached.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .nnet import MlpModel, Scaler, make_mlp, train_minibatch, mlp_forward

OUTPUT_NAMES = ("cd", "x1", "mw1", "mwl", "mwa")

# valid single-shock design box: (lower, upper) per output
FEATURE_BOUNDS = {
    "cd": (0.009, 0.013),
    "x1": (0.2, 0.8),
    "mw1": (1.0, 1.2),
    "mwl": (1.0, 1.3),
    "mwa": (0.9, 1.1),
}

CSV_COLUMNS = [f"c_u{i}" for i in range(7)] + [f"c_l{i}" for i in range(7)] + list(OUTPUT_NAMES)

# shrunk desk-scale defaults
DESK_HIDDEN = [128, 128, 128]
DESK_SCHEDULE = [(40, 0.01), (40, 0.001), (80, 1e-4), (80, 1e-5)]
DESK_BATCH = 128


class SurrogateError(ValueError):
    pass


@dataclass(frozen=True)
class SampleRecord:
    cst14: np.ndarray
    outputs: dict[str, float]  # keys OUTPUT_NAMES

    def output_vector(self) -> np.ndarray:
        return np.array([self.outputs[k] for k in OUTPUT_NAMES])


def in_feature_bounds(outputs: dict) -> bool:
    """Whether outputs lie in the feature box; with (N,) arrays as
    values, a (N,) mask."""
    inside = True
    for k in OUTPUT_NAMES:
        lo, hi = FEATURE_BOUNDS[k]
        inside = inside & (lo <= outputs[k]) & (outputs[k] <= hi)
    return inside


def is_valid_design(cd, state, no_shock) -> np.ndarray:
    """The valid-design rule: a shock was found and the outputs lie in
    the feature box.  Takes (N,) drags, (N, 4) states [X1, Mw1, MwL, MwA]
    and (N,) no-shock flags; returns an (N,) mask."""
    return ~no_shock & in_feature_bounds(dict(zip(OUTPUT_NAMES, (cd, *state.T))))


_DIST_BLOCK = 64  # rows per step of the in-place distance build


def _pair_distances(coords: np.ndarray) -> np.ndarray:
    """(n, n) Euclidean distances between rows, built in one n×n float64
    array plus an O(_DIST_BLOCK × n) temporary.  Each element takes the
    IEEE steps of sqrt(max(sq_i + sq_j - 2.0 * coords @ coords.T, 0)); the
    product stays a GEMM, as ``coords @ coords.T`` goes to SYRK and may
    round otherwise."""
    sq = np.sum(coords**2, axis=1)
    dist = 2.0 * coords @ coords.T
    for start in range(0, len(sq), _DIST_BLOCK):
        blk = slice(start, start + _DIST_BLOCK)
        np.subtract(sq[blk, None] + sq, dist[blk], out=dist[blk])
    return np.sqrt(np.maximum(dist, 0.0, out=dist), out=dist)


def select_samples(pool: list[SampleRecord],
                   keep_counts: list[int]) -> dict[int, list[SampleRecord]]:
    """Thin a pool to the requested sizes, keeping geometries spread out.

    Out-of-bounds records are dropped first.  Then the closest pair of
    surviving records (Euclidean distance over cst14) loses one member
    per round; the member whose next-nearest-neighbor distance is
    smaller is deleted, ties broken by lower index.  A snapshot is
    taken whenever the survivor count hits a keep count.
    """
    keep_counts = sorted(set(int(k) for k in keep_counts), reverse=True)
    if not keep_counts:
        raise SurrogateError("at least one keep count required")
    valid_idx = [i for i, rec in enumerate(pool) if in_feature_bounds(rec.outputs)]
    if len(valid_idx) < keep_counts[0]:
        raise SurrogateError(
            f"only {len(valid_idx)} valid samples for keep count {keep_counts[0]}")

    coords = np.stack([pool[i].cst14 for i in valid_idx])
    n = len(valid_idx)
    dist = _pair_distances(coords)
    np.fill_diagonal(dist, np.inf)
    alive = np.ones(n, dtype=bool)
    nn_dist = dist.min(axis=1)
    nn_idx = dist.argmin(axis=1)

    def second_nearest(i: int, excl: int) -> float:
        row = dist[i].copy()
        row[excl] = np.inf
        return float(row.min())

    snapshots: dict[int, list[SampleRecord]] = {}
    count = n
    if count in keep_counts:
        snapshots[count] = [pool[valid_idx[i]] for i in range(n)]
    smallest = keep_counts[-1]
    while count > smallest:
        i = int(np.argmin(nn_dist))
        j = int(nn_idx[i])
        a, b = min(i, j), max(i, j)
        # delete the pair member whose next-nearest neighbor is closer
        da, db = second_nearest(a, b), second_nearest(b, a)
        victim = a if da <= db else b
        alive[victim] = False
        dist[victim, :] = np.inf
        dist[:, victim] = np.inf
        nn_dist[victim] = np.inf  # inf everywhere, a removed sample is never picked
        stale = np.nonzero(alive & (nn_idx == victim))[0]
        for k in stale:
            nn_dist[k] = dist[k].min()
            nn_idx[k] = dist[k].argmin()
        count -= 1
        if count in keep_counts:
            snapshots[count] = [pool[valid_idx[k]] for k in range(n) if alive[k]]
    return snapshots


def rsme(predicted, truth, bounds: tuple[float, float]) -> float:
    """Relative root mean square error normalized by the bound width."""
    predicted = np.asarray(predicted, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if predicted.shape != truth.shape or predicted.size == 0:
        raise SurrogateError("prediction/truth length mismatch or empty")
    lo, hi = bounds
    if hi <= lo:
        raise SurrogateError("zero or negative bound width")
    return float(np.sqrt(np.mean((truth - predicted) ** 2)) / (hi - lo))


def _dataset_arrays(samples: list[SampleRecord]):
    x = np.stack([s.cst14 for s in samples])
    y = np.stack([s.output_vector() for s in samples])
    return x, y


def build_surrogate_model(train_inputs: np.ndarray, hidden: list[int],
                          rng) -> MlpModel:
    """14 -> hidden -> 5 model; input scaler from the training range,
    output scaler from the feature box."""
    lo = train_inputs.min(axis=0)
    hi = train_inputs.max(axis=0)
    pad = 0.05 * np.maximum(hi - lo, 1e-6)
    input_scaler = Scaler(lo=lo - pad, hi=hi + pad)
    output_scaler = Scaler.from_bounds([FEATURE_BOUNDS[k] for k in OUTPUT_NAMES])
    return make_mlp([14, *hidden, 5], rng, input_scaler, output_scaler)


def train_surrogate(train: list[SampleRecord], test: list[SampleRecord],
                    hidden: list[int] = DESK_HIDDEN,
                    schedule=None, batch_size: int = DESK_BATCH,
                    seed: int = 0) -> tuple[MlpModel, list[dict]]:
    """Train the surrogate; records per-output RSME every 100 minibatches.

    Returns (model, history); each history entry holds train/test RSME
    for every output.
    """
    if not train or not test:
        raise SurrogateError("train and test sets must be nonempty")
    schedule = schedule if schedule is not None else DESK_SCHEDULE
    x_tr, y_tr = _dataset_arrays(train)
    x_te, y_te = _dataset_arrays(test)
    rng = np.random.default_rng(seed)
    model = build_surrogate_model(x_tr, hidden, rng)
    history: list[dict] = []

    def record(mb: int) -> None:
        p_tr = mlp_forward(model, x_tr)
        p_te = mlp_forward(model, x_te)
        entry = {"minibatch": mb}
        for k, name in enumerate(OUTPUT_NAMES):
            b = FEATURE_BOUNDS[name]
            entry[f"train_{name}"] = rsme(p_tr[:, k], y_tr[:, k], b)
            entry[f"test_{name}"] = rsme(p_te[:, k], y_te[:, k], b)
        history.append(entry)

    train_minibatch(model, x_tr, y_tr, schedule, batch_size, seed=seed,
                    record_every=100, callback=record)
    return model, history


# ---------------------------------------------------------------------------
# CSV tables: a header line, then one line per row; every table the
# package writes goes through write_table


def write_table(path, columns, rows) -> None:
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
    write_table(path, columns, ([row.get(k, "") for k in columns] for row in rows))


# dataset CSV: c_u0..c_u6,c_l0..c_l6,cd,x1,mw1,mwl,mwa (+ in_bounds marker)


def write_dataset(path, samples: list[SampleRecord]) -> None:
    write_table(path, CSV_COLUMNS + ["in_bounds"], (
        [*map(float, s.cst14), *(float(s.outputs[k]) for k in OUTPUT_NAMES),
         "1" if in_feature_bounds(s.outputs) else "0"] for s in samples))


def read_dataset(path) -> list[SampleRecord]:
    samples: list[SampleRecord] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise SurrogateError(f"dataset missing columns: {missing}")
        for row in reader:
            cst14 = np.array([float(row[c]) for c in CSV_COLUMNS[:14]])
            outputs = {k: float(row[k]) for k in OUTPUT_NAMES}
            vals = np.concatenate([cst14, list(outputs.values())])
            if not np.all(np.isfinite(vals)):
                raise SurrogateError("non-finite value in dataset row")
            samples.append(SampleRecord(cst14=cst14, outputs=outputs))
    return samples
