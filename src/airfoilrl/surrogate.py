"""Sample-set selection, surrogate training, and relative-RMS reporting.

The surrogate maps the 14 CST coefficients to the five outputs (CD, X1,
Mw1, MwL, MwA).  A sample set is an (n, 19) float table in CSV_COLUMNS
order, in memory as in its CSV file.
"""
from __future__ import annotations

import numpy as np

from .nnet import MlpModel, Scaler, make_mlp, train_minibatch, mlp_forward
from .tables import (CSV_COLUMNS, CST_COLS, FEATURE_BOX, OUTPUT_COLS, OUTPUT_NAMES, TableError,
                     in_feature_bounds, read_csv, write_csv)

HISTORY_COLUMNS = ["minibatch"] + [f"{part}_{name}" for name in OUTPUT_NAMES
                                   for part in ("train", "test")]
HISTORY_EVERY = 100

# shrunk desk-scale defaults
DESK_HIDDEN = [128, 128, 128]
DESK_SCHEDULE = [(40, 0.01), (40, 0.001), (80, 1e-4), (80, 1e-5)]
DESK_BATCH = 128


class SurrogateError(ValueError):
    pass


_DIST_BLOCK = 96
_CANDIDATES = 64  # nearest neighbours a row of select_samples keeps


def _block_of(i: int, n: int) -> tuple[int, int]:
    """The row block [s, e) that holds row i of n, for select_samples'
    distance rows and train_surrogate's history forwards.  s is a multiple
    of _DIST_BLOCK, itself a multiple of the GEMM kernel's row tile, so
    that with one BLAS thread a block's product rounds as the same rows of
    the full product; a one-row tail joins the block before it, as numpy
    sends a one-row product to GEMV."""
    s = i - i % _DIST_BLOCK
    if s > 0 and s == n - 1:
        s -= _DIST_BLOCK
    e = min(s + _DIST_BLOCK, n)
    return s, (n if e == n - 1 else e)


def _row_blocks(n: int):
    """The blocks [s, e) of _block_of that tile rows 0..n, in order."""
    s = 0
    while s < n:
        e = _block_of(s, n)[1]
        yield s, e
        s = e


def _gram_rows(coords: np.ndarray, s: int, e: int, out=None) -> np.ndarray:
    return np.matmul(2.0 * coords[s:e], coords.T, out=out)


def nearest_columns(dist: np.ndarray, k: int,
                    scratch: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first k columns of a (b, m) distance block in (distance,
    column) order, 0 < k < m, as (b, k) column positions and distances.
    The k-th smallest distance comes from one partition of a copy of the
    block, made in `scratch` (b m floats or more) when given."""
    b, m = dist.shape
    part = np.empty_like(dist) if scratch is None else scratch[:b * m].reshape(b, m)
    np.copyto(part, dist)
    part.partition(k - 1, axis=1)
    kth = part[:, k - 1:k]
    near = dist <= kth
    if np.count_nonzero(near) > b * k:  # a k-th distance tied past column k
        over = np.flatnonzero(np.count_nonzero(near, axis=1) > k)
        tied = dist[over] == kth[over]
        room = k - np.count_nonzero(dist[over] < kth[over], axis=1)
        near[over] &= ~tied | (np.cumsum(tied, axis=1) <= room[:, None])
    flat = np.flatnonzero(near)
    cols, d = (flat % m).reshape(b, k), dist.ravel()[flat].reshape(b, k)
    order = d.argsort(axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1), np.take_along_axis(d, order, axis=1)


def select_samples(pool: np.ndarray, keep_counts: list[int]) -> dict[int, np.ndarray]:
    """Thin a sample table to each keep count; each set is a subset of the
    pool's rows, in pool order.

    Rows outside the feature box go first.  Then, per round, the closest
    pair of survivors (Euclidean distance over the coefficients) loses
    the member whose next-nearest survivor is closer, the lower index on
    a tie.  The distance from i to j is sqrt(max(sq_i + sq_j - 2 c_i . c_j,
    0)), sq the squared norms, each block of rows from one GEMM.  Memory
    is O(n (_DIST_BLOCK + _CANDIDATES)): each row keeps a list of its
    first _CANDIDATES other survivors in (distance, index) order, so its
    first live entry is its nearest survivor, the lowest index first among
    equal distances, as in a dense n x n search; a row whose list runs out
    rebuilds its block's lists.
    """
    keep_counts = sorted(set(int(k) for k in keep_counts), reverse=True)
    if not keep_counts:
        raise SurrogateError("at least one keep count required")
    if keep_counts[-1] < 1:
        raise SurrogateError(f"keep count {keep_counts[-1]} is not at least 1")
    valid_idx = np.flatnonzero(in_feature_bounds(pool[:, OUTPUT_COLS]))
    if len(valid_idx) < keep_counts[0]:
        raise SurrogateError(
            f"only {len(valid_idx)} valid samples for keep count {keep_counts[0]}")

    coords = pool[valid_idx, CST_COLS]
    n = len(valid_idx)
    sq = np.sum(coords**2, axis=1)
    # block buffers, allocated once: a fresh one costs page faults (0.2 ms at n = 950)
    gram = np.empty((_DIST_BLOCK + 1) * n)  # a block's products, then its partition
    work = np.empty((_DIST_BLOCK + 1) * n)  # a block's distances
    live = bytearray(n + 1)  # index n pads the lists and is never live
    alive = np.frombuffer(live, dtype=bool)[:n]
    alive[:] = True
    K = _CANDIDATES
    cand_d, cand_j = np.full((n, K), np.inf), np.full((n, K), n)
    # flat views, row i's list at [i K, (i + 1) K): single entries at Python speed
    list_d, list_j = memoryview(cand_d.reshape(-1)), memoryview(cand_j.reshape(-1))
    head = list(range(0, n * K, K))  # list position of each row's nearest neighbour
    nn_dist, nn_idx = np.empty(n), np.empty(n, dtype=int)
    nn_d, nn_j = memoryview(nn_dist), memoryview(nn_idx)

    def refresh(i: int) -> None:
        """Rebuild the lists of the live rows in row i's block over the
        live columns: each row's first min(_CANDIDATES, live columns - 1)
        other live columns in (distance, index) order, by nearest_columns."""
        s, e = _block_of(i, n)
        rows = np.flatnonzero(alive[s:e]) + s
        cols = np.flatnonzero(alive)
        b, m = len(rows), len(cols)
        k = min(K, m - 1)
        cand_d[rows], cand_j[rows] = np.inf, n
        if k > 0:
            g = _gram_rows(coords, s, e, out=gram[:(e - s) * n].reshape(e - s, n))
            if b < e - s or m < n:
                g = g[np.ix_(rows - s, cols)]
            dist = np.add(sq[rows, None], sq[cols], out=work[:b * m].reshape(b, m))
            np.subtract(dist, g, out=dist)
            np.sqrt(np.maximum(dist, 0.0, out=dist), out=dist)
            dist[np.arange(b), np.searchsorted(cols, rows)] = np.inf
            near, cand_d[rows, :k] = nearest_columns(dist, k, scratch=gram)
            cand_j[rows, :k] = cols[near]
        nn_dist[rows], nn_idx[rows] = cand_d[rows, 0], cand_j[rows, 0]
        for r in rows.tolist():
            head[r] = r * K

    def next_live(i: int, q: int, excl: int) -> int:
        """First position from q on in row i's list of a live column other
        than excl; -1 when there is none."""
        end = (i + 1) * K
        while q < end:
            c = list_j[q]
            if live[c] and c != excl:
                return q
            q += 1
        return -1

    def second_nearest(i: int, excl: int) -> float:
        q = next_live(i, head[i], excl)
        if q < 0:
            refresh(i)
            q = next_live(i, head[i], excl)
        return list_d[q] if q >= 0 else np.inf

    for s, _ in _row_blocks(n):
        refresh(s)

    snapshots: dict[int, np.ndarray] = {}
    count = n
    if count in keep_counts:
        snapshots[count] = pool[valid_idx]
    smallest = keep_counts[-1]
    while count > smallest:
        i = int(nn_dist.argmin())
        j = nn_j[i]
        a, b = min(i, j), max(i, j)
        da, db = second_nearest(a, b), second_nearest(b, a)
        victim = a if da <= db else b
        live[victim] = False
        nn_d[victim], nn_j[victim] = np.inf, n  # never picked again
        for k in (nn_idx == victim).nonzero()[0].tolist():
            if nn_j[k] != victim:
                continue  # rebuilt with an earlier row of its block
            q = next_live(k, head[k] + 1, n)
            if q < 0:
                refresh(k)
            else:
                head[k] = q
                nn_d[k], nn_j[k] = list_d[q], list_j[q]
        count -= 1
        if count in keep_counts:
            snapshots[count] = pool[valid_idx[alive]]
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


def build_surrogate_model(train_inputs: np.ndarray, hidden: list[int],
                          rng) -> MlpModel:
    """14 -> hidden -> 5 model; input scaler from the training range,
    output scaler from the feature box."""
    lo = train_inputs.min(axis=0)
    hi = train_inputs.max(axis=0)
    pad = 0.05 * np.maximum(hi - lo, 1e-6)
    input_scaler = Scaler(lo=lo - pad, hi=hi + pad)
    output_scaler = Scaler.from_bounds(FEATURE_BOX)
    return make_mlp([14, *hidden, 5], rng, input_scaler, output_scaler)


def _forward_in_blocks(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """mlp_forward of (n, 14) inputs over the row blocks of _block_of, so
    that no activation of all n rows is held.  With layers up to 256 wide
    the rows round as in one forward of x; from 512 wide, OpenBLAS may
    send a block's output layer to its small-matrix kernel, which sums
    the inner dimension in another order (a last-bit change)."""
    y = np.empty((len(x), model.n_out))
    for s, e in _row_blocks(len(x)):
        y[s:e] = mlp_forward(model, x[s:e])
    return y


def train_surrogate(train: np.ndarray, test: np.ndarray, hidden: list[int],
                    schedule, batch_size: int, seed: int) -> tuple[MlpModel, list[dict]]:
    """Train a 14 -> hidden -> 5 model on two sample tables by
    train_minibatch; returns (model, history), an entry of train and test
    RSME per output (HISTORY_COLUMNS) every HISTORY_EVERY minibatches.  A
    non-finite RSME raises SurrogateError."""
    if not len(train) or not len(test):
        raise SurrogateError("train and test sets must be nonempty")
    x_tr, y_tr = train[:, CST_COLS], train[:, OUTPUT_COLS]
    x_te, y_te = test[:, CST_COLS], test[:, OUTPUT_COLS]
    rng = np.random.default_rng(seed)
    model = build_surrogate_model(x_tr, hidden, rng)
    history: list[dict] = []

    def record(mb: int) -> None:
        if mb % HISTORY_EVERY:
            return
        p_tr, p_te = _forward_in_blocks(model, x_tr), _forward_in_blocks(model, x_te)
        values = [mb]
        for k, b in enumerate(FEATURE_BOX.tolist()):
            values += [rsme(p_tr[:, k], y_tr[:, k], b), rsme(p_te[:, k], y_te[:, k], b)]
        if not np.isfinite(values).all():
            raise SurrogateError(f"an RSME at minibatch {mb} is not finite")
        history.append(dict(zip(HISTORY_COLUMNS, values)))

    train_minibatch(model, x_tr, y_tr, schedule, batch_size, seed=seed, callback=record)
    return model, history


def write_dataset(path, table: np.ndarray) -> None:
    """A dataset CSV: the sample table, then its in_bounds marker."""
    inside = in_feature_bounds(table[:, OUTPUT_COLS])
    write_csv(path, CSV_COLUMNS + ["in_bounds"], (
        [*row.tolist(), "1" if ok else "0"] for row, ok in zip(table, inside)))


def read_dataset(path) -> np.ndarray:
    """The sample table of a dataset CSV; TableError (see tables.read_csv)
    also names a value that is not finite, or a file without rows."""
    table = read_csv(path, CSV_COLUMNS)
    if not len(table):
        raise TableError(f"{path}: no sample rows")
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        row, col = bad[0]
        raise TableError(f"{path} row {row + 1}: {CSV_COLUMNS[col]!r} is not finite")
    return table
