"""Surrogate dataset selection, RSME metric, and model training tests."""
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from airfoilrl.nnet import mlp_forward, train_minibatch
from airfoilrl.proxy import generate_pool
from airfoilrl.surrogate import (_CANDIDATES, _DIST_BLOCK, DESK_HIDDEN, HISTORY_COLUMNS,
                                 HISTORY_EVERY, SurrogateError, _block_of, _forward_in_blocks,
                                 _gram_rows, _row_blocks, build_surrogate_model,
                                 nearest_columns, rsme, select_samples, train_surrogate)
from airfoilrl.tables import (CSV_COLUMNS, CST_COLS, FEATURE_BOUNDS, OUTPUT_COLS, OUTPUT_NAMES,
                              in_feature_bounds)

ROOT = Path(__file__).resolve().parents[1]
IN_BOX = np.array([0.01, 0.5, 1.1, 1.1, 1.0])  # cd, x1, mw1, mwl, mwa


def make_pool(coords):
    """A sample table of the coefficient rows, each with the IN_BOX outputs."""
    return np.hstack((coords, np.tile(IN_BOX, (len(coords), 1))))


def naive_select(coords, keep):
    """From-scratch reimplementation of the deletion loop: recompute all
    pairwise distances every round, delete the closest-pair member with
    the smaller next-nearest-neighbor distance, lower index on ties."""
    alive = list(range(len(coords)))
    while len(alive) > keep:
        best = None
        for a, b in itertools.combinations(alive, 2):
            d = float(np.linalg.norm(coords[a] - coords[b]))
            if best is None or d < best[0]:
                best = (d, a, b)
        _, a, b = best

        def next_nn(i, excl):
            return min(float(np.linalg.norm(coords[i] - coords[k]))
                       for k in alive if k not in (i, excl))

        victim = a if next_nn(a, b) <= next_nn(b, a) else b
        alive.remove(victim)
    return alive


def test_in_feature_bounds():
    assert in_feature_bounds(IN_BOX)
    bad = IN_BOX.copy()
    bad[OUTPUT_NAMES.index("cd")] = 0.02
    assert not in_feature_bounds(bad)
    assert in_feature_bounds([IN_BOX, bad, IN_BOX]).tolist() == [True, False, True]


def test_select_matches_naive_reimplementation():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0.0, 1.0, (12, 14))
        snaps = select_samples(make_pool(coords), [6])
        got = sorted(tuple(s[CST_COLS]) for s in snaps[6])
        want = sorted(tuple(coords[i]) for i in naive_select(coords, 6))
        assert got == want


def test_select_five_of_eight_brute_force_optimum():
    # pools where the greedy deletion attains the exhaustive C(8,5)
    # max-min-distance optimum
    for seed in (0, 1, 2, 3, 4):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0.0, 1.0, (8, 14))
        sel = select_samples(make_pool(coords), [5])[5]
        keys = {tuple(s[CST_COLS]) for s in sel}
        chosen = [i for i, c in enumerate(coords) if tuple(c) in keys]

        def min_pair(sub):
            return min(np.linalg.norm(coords[a] - coords[b])
                       for a, b in itertools.combinations(sub, 2))

        best = max(min_pair(s)
                   for s in itertools.combinations(range(8), 5))
        assert np.isclose(min_pair(chosen), best)


def test_select_drops_out_of_bounds_first():
    rng = np.random.default_rng(3)
    coords = rng.uniform(0.0, 1.0, (6, 14))
    pool = make_pool(coords)
    pool[2, CSV_COLUMNS.index("mw1")] = 1.5  # outside the box
    snaps = select_samples(pool, [5])
    assert all(tuple(s[CST_COLS]) != tuple(coords[2]) for s in snaps[5])


def test_select_multiple_keep_counts_nested():
    rng = np.random.default_rng(4)
    coords = rng.uniform(0.0, 1.0, (20, 14))
    snaps = select_samples(make_pool(coords), [15, 8])
    keys15 = {tuple(s[CST_COLS]) for s in snaps[15]}
    keys8 = {tuple(s[CST_COLS]) for s in snaps[8]}
    assert keys8 <= keys15
    assert len(snaps[8]) == 8 and len(snaps[15]) == 15


def test_select_insufficient_pool_raises():
    coords = np.random.default_rng(0).uniform(0.0, 1.0, (4, 14))
    with pytest.raises(SurrogateError):
        select_samples(make_pool(coords), [10])


def test_select_deterministic():
    rng = np.random.default_rng(8)
    coords = rng.uniform(0.0, 1.0, (15, 14))
    a = select_samples(make_pool(coords), [7])[7]
    b = select_samples(make_pool(coords), [7])[7]
    assert [tuple(s[CST_COLS]) for s in a] == [tuple(s[CST_COLS]) for s in b]


def masked_select_samples(pool, keep_counts):
    """select_samples as it was when it also masked removed samples out
    of the next-nearest row and the closest-pair search (verbatim, with
    a pool row's columns taken by CST_COLS and OUTPUT_COLS)."""
    keep_counts = sorted(set(int(k) for k in keep_counts), reverse=True)
    if not keep_counts:
        raise SurrogateError("at least one keep count required")
    valid_idx = [i for i, rec in enumerate(pool) if in_feature_bounds(rec[OUTPUT_COLS])]
    if len(valid_idx) < keep_counts[0]:
        raise SurrogateError(
            f"only {len(valid_idx)} valid samples for keep count {keep_counts[0]}")

    coords = np.stack([pool[i][CST_COLS] for i in valid_idx])
    n = len(valid_idx)
    dist = np.sqrt(np.maximum(
        np.sum(coords**2, axis=1)[:, None] + np.sum(coords**2, axis=1)[None, :]
        - 2.0 * coords @ coords.T, 0.0))
    np.fill_diagonal(dist, np.inf)
    alive = np.ones(n, dtype=bool)
    nn_dist = dist.min(axis=1)
    nn_idx = dist.argmin(axis=1)

    def second_nearest(i: int, excl: int) -> float:
        row = dist[i].copy()
        row[excl] = np.inf
        row[~alive] = np.inf
        return float(row.min())

    snapshots = {}
    count = n
    if count in keep_counts:
        snapshots[count] = [pool[valid_idx[i]] for i in range(n)]
    smallest = keep_counts[-1]
    while count > smallest:
        i = int(np.argmin(np.where(alive, nn_dist, np.inf)))
        j = int(nn_idx[i])
        a, b = min(i, j), max(i, j)
        # delete the pair member whose next-nearest neighbor is closer
        da, db = second_nearest(a, b), second_nearest(b, a)
        victim = a if da <= db else b
        alive[victim] = False
        dist[victim, :] = np.inf
        dist[:, victim] = np.inf
        nn_dist[victim] = np.inf
        stale = np.nonzero(alive & (nn_idx == victim))[0]
        for k in stale:
            nn_dist[k] = dist[k].min()
            nn_idx[k] = dist[k].argmin()
        count -= 1
        if count in keep_counts:
            snapshots[count] = [pool[valid_idx[k]] for k in range(n) if alive[k]]
    return snapshots


def assert_same_sets(pool, keep_counts):
    # a drag of its own, inside the box, on each row in the box tells
    # duplicate rows apart, as record identity did, and leaves the
    # selection as it was
    pool = pool.copy()
    inside = in_feature_bounds(pool[:, OUTPUT_COLS])
    pool[inside, CSV_COLUMNS.index("cd")] = np.linspace(*FEATURE_BOUNDS["cd"], len(pool))[inside]
    got = select_samples(pool, keep_counts)
    want = masked_select_samples(pool, keep_counts)
    assert list(got) == list(want)
    for count in want:  # the same rows, in the same order
        assert got[count].tobytes() == np.array(want[count]).tobytes()


def test_select_matches_the_masked_loop_on_tied_pools():
    # integer coordinates 0-2 give many equal distances; varying only
    # the first few coordinates also gives duplicate samples
    for seed in range(60):
        rng = np.random.default_rng(seed)
        coords = np.zeros((40, 14))
        coords[:, :2 + seed % 13] = rng.integers(0, 3, (40, 2 + seed % 13))
        assert_same_sets(make_pool(coords), [30, 12, 5, 1])


def test_select_matches_the_masked_loop_on_pools_tied_past_the_lists():
    # up to 200 copies of a point, then coarse grids over three to five
    # row blocks: more equal distances than a row's list holds, and a k-th
    # distance tied with pairs below it, so rows take their first
    # _CANDIDATES columns in (distance, index) order, ties lowest index
    # first; thinning to one row runs lists dry
    pools = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        coords = np.zeros((200, 14))
        coords[:, :1 + seed % 4] = rng.integers(0, 2, (200, 1 + seed % 4))
        pools.append(coords)
    for seed, (n, d) in enumerate([(200, 3), (290, 4), (400, 5)]):
        coords = np.zeros((n, 14))
        coords[:, :d] = np.random.default_rng(100 + seed).integers(0, 4, (n, d)) * 0.25
        pools.append(coords)
    for coords in pools:
        assert_same_sets(make_pool(coords), [150, 60, 7, 1])


@pytest.mark.parametrize("scratch", [False, True])
@pytest.mark.parametrize("grid", [False, True])
def test_nearest_columns_are_the_stable_sort_prefix(grid, scratch):
    # integer-grid distances tie often, at the k-th distance too; an inf
    # on the diagonal, as both callers set it
    rng = np.random.default_rng(int(grid))
    for b, m in [(1, 2), (5, 9), (30, 70)]:
        dist = rng.integers(0, 3, (b, m)) * 1.0 if grid else rng.uniform(0.0, 1.0, (b, m))
        dist[np.arange(b), np.arange(b)] = np.inf
        before, want = dist.copy(), np.argsort(dist, axis=1, kind="stable")
        for k in range(1, m):
            cols, d = nearest_columns(dist, k, np.empty(b * m + 3) if scratch else None)
            assert np.array_equal(cols, want[:, :k])
            assert np.array_equal(d, np.take_along_axis(dist, want[:, :k], axis=1))
            assert np.array_equal(dist, before)


def in_one_blas_thread(call: str) -> None:
    """Run t.`call`, with this module as t, in a fresh interpreter with
    one BLAS thread.  A threaded OpenBLAS GEMM splits its work where it
    chooses, so only with one thread does a row block round like the
    same rows of the full product."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    run = subprocess.run([sys.executable, "-c", f"import test_surrogate as t; t.{call}"],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr


def valid_coords(pool):
    return pool[in_feature_bounds(pool[:, OUTPUT_COLS]), CST_COLS]


def assert_thin_selection(pool, keep_counts):
    """select_samples equals the masked loop, and its traced peak is
    O(n (_DIST_BLOCK + _CANDIDATES)) floats, where an n×n matrix would
    take n² of them."""
    n = len(valid_coords(pool))
    tracemalloc.start()
    try:
        select_samples(pool, keep_counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n * (_DIST_BLOCK + _CANDIDATES) * 8
    assert_same_sets(pool, keep_counts)


def test_select_matches_the_masked_loop_on_a_proxy_pool():
    # in this process, with however many BLAS threads it has
    assert_thin_selection(generate_pool(1200, seed=7), [700, 100])


def test_select_matches_the_masked_loop_on_a_desk_size_pool():
    # the desk pool_size; an n×n float64 matrix here is 42 MiB
    assert_thin_selection(generate_pool(3000, seed=11), [2000, 200])


def expression_distances(coords):
    """The distance matrix as one expression, as select_samples built it
    before it took distances in blocks (verbatim)."""
    return np.sqrt(np.maximum(
        np.sum(coords**2, axis=1)[:, None] + np.sum(coords**2, axis=1)[None, :]
        - 2.0 * coords @ coords.T, 0.0))


def assert_blocks_equal_the_expression(coords):
    n = len(coords)
    sq = np.sum(coords**2, axis=1)
    want = expression_distances(coords)
    s, tiling = 0, []
    while s < n:  # the blocks tile the rows, none of one row but for n = 1
        assert _block_of(s, n)[0] == s
        e = _block_of(s, n)[1]
        assert e - s > 1 or n == 1
        assert all(_block_of(i, n) == (s, e) for i in range(s, e))
        got = np.sqrt(np.maximum(sq[s:e, None] + sq - _gram_rows(coords, s, e), 0.0))
        assert got.tobytes() == want[s:e].tobytes(), (s, e)
        tiling.append((s, e))
        s = e
    assert list(_row_blocks(n)) == tiling


@pytest.mark.parametrize("n", [_DIST_BLOCK - 1, _DIST_BLOCK, _DIST_BLOCK + 1,
                               2 * _DIST_BLOCK + 1])
def test_block_distances_equal_the_expression_bitwise(n):
    # real-valued coordinates, so a changed rounding shows in the last bit;
    # the sizes straddle the block and give a one-row tail
    in_one_blas_thread("assert_blocks_equal_the_expression("
                       f"t.np.random.default_rng({n}).normal(0.0, 0.1, ({n}, 14)))")


def test_block_distances_equal_the_expression_on_a_proxy_pool():
    in_one_blas_thread("assert_blocks_equal_the_expression("
                       "t.valid_coords(t.generate_pool(1200, seed=7)))")


def random_samples(n, seed):
    """A table of n rows of real-valued coefficients and outputs inside the box."""
    rng = np.random.default_rng(seed)
    return np.array([[*rng.normal(0.0, 0.1, 14),
                      *(rng.uniform(*FEATURE_BOUNDS[k]) for k in OUTPUT_NAMES)]
                     for _ in range(n)])


def whole_set_train_surrogate(train, test, hidden, schedule, batch_size, seed):
    """train_surrogate with each history record taken by one forward of
    the whole set, as before it took them in row blocks (verbatim, the
    sets' columns taken by CST_COLS and OUTPUT_COLS)."""
    x_tr, y_tr = train[:, CST_COLS], train[:, OUTPUT_COLS]
    x_te, y_te = test[:, CST_COLS], test[:, OUTPUT_COLS]
    rng = np.random.default_rng(seed)
    model = build_surrogate_model(x_tr, hidden, rng)
    history: list[dict] = []

    def record(mb: int) -> None:
        if mb % HISTORY_EVERY:
            return
        p_tr = mlp_forward(model, x_tr)
        p_te = mlp_forward(model, x_te)
        entry = {"minibatch": mb}
        for k, name in enumerate(OUTPUT_NAMES):
            b = FEATURE_BOUNDS[name]
            entry[f"train_{name}"] = rsme(p_tr[:, k], y_tr[:, k], b)
            entry[f"test_{name}"] = rsme(p_te[:, k], y_te[:, k], b)
        history.append(entry)

    train_minibatch(model, x_tr, y_tr, schedule, batch_size, seed=seed, callback=record)
    return model, history


@pytest.mark.parametrize("n", [1, 2, _DIST_BLOCK - 1, _DIST_BLOCK + 1, 2 * _DIST_BLOCK + 1, 700])
@pytest.mark.parametrize("width", [14, 128, 256])
def test_forward_in_blocks_equals_the_whole_forward_bitwise(n, width):
    # in this process, with however many BLAS threads it has; the sizes
    # give one-row tails, which a row-by-row rule would send to GEMV
    rng = np.random.default_rng(n)
    x = rng.normal(0.0, 0.1, (n, 14))
    model = build_surrogate_model(x, [width] * 3, rng)
    assert _forward_in_blocks(model, x).tobytes() == mlp_forward(model, x).tobytes()


@pytest.mark.parametrize("n_train, n_test, epochs", [
    (700, 100, 2),  # the desk split of a 1,200 pool
    (193, 97, 5),  # one-row tails, folded into the block before
    (97, 193, 8),
])
def test_history_in_blocks_equals_the_whole_set_forward_bitwise(n_train, n_test, epochs):
    # in this process, with however many BLAS threads it has; batches of
    # 4 rows make at least two records cheaply
    train, test = random_samples(n_train, 1), random_samples(n_test, 2)
    args = (DESK_HIDDEN, [(epochs, 0.01)], 4, 3)
    model, history = train_surrogate(train, test, *args)
    ref_model, ref_history = whole_set_train_surrogate(train, test, *args)
    assert len(history) >= 2
    assert [list(entry) for entry in history] == [HISTORY_COLUMNS] * len(history)
    assert repr(history) == repr(ref_history)
    assert model.flat.tobytes() == ref_model.flat.tobytes()


@pytest.mark.parametrize("n_train", [2000, 4000])
def test_train_surrogate_memory_is_set_by_its_model_and_batch(n_train):
    # a forward of a whole 256-wide set holds n x 256 floats per layer;
    # in blocks, the peak is seven parameter-sized buffers (the model,
    # its initial weights, the gradient, two Adam moments and two
    # scratch), the Fit buffers, the sets' tables and a few blocks of
    # activations
    hidden, batch = [256] * 3, 16
    train, test = random_samples(n_train, 4), random_samples(1000, 5)
    sizes = [14, *hidden, 5]
    params = sum((a + 1) * b for a, b in zip(sizes[:-1], sizes[1:]))
    fit = batch * (sum(sizes[1:]) + sum(hidden) + 2 * sizes[-1])
    tables = 3 * (n_train + 1000) * 19
    blocks = 4 * _DIST_BLOCK * max(hidden)
    tracemalloc.start()
    try:
        _, history = train_surrogate(train, test, hidden, [(1, 1e-3)], batch, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert history  # at least one record was taken
    assert peak <= 8 * (7 * params + fit + tables + blocks)


def test_rsme_hand_case():
    # errors (0.1, -0.1) over width 0.5: sqrt(mean(0.01)) / 0.5 = 0.2
    val = rsme([1.1, 0.9], [1.0, 1.0], (1.0, 1.5))
    assert abs(val - 0.2) < 1e-12


def test_rsme_zero_for_exact_prediction():
    assert rsme([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], (0.0, 4.0)) == 0.0


def test_rsme_rejects_mismatch():
    with pytest.raises(SurrogateError):
        rsme([1.0], [1.0, 2.0], (0.0, 1.0))
    with pytest.raises(SurrogateError):
        rsme([1.0], [1.0], (1.0, 1.0))


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_rsme_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    pred = rng.uniform(0.0, 1.0, 20)
    truth = rng.uniform(0.0, 1.0, 20)
    perm = rng.permutation(20)
    a = rsme(pred, truth, (0.0, 1.0))
    b = rsme(pred[perm], truth[perm], (0.0, 1.0))
    assert abs(a - b) < 1e-12


def test_selected_sets_are_pool_rows_in_pool_order():
    pool = generate_pool(300, seed=7)
    sets = select_samples(pool, [150, 50])
    for count, table in sets.items():
        idx = [int(np.flatnonzero((pool == row).all(axis=1))[0]) for row in table]
        assert len(idx) == count and idx == sorted(set(idx))
        assert table.tobytes() == pool[idx].tobytes()


def test_feature_bounds_values():
    assert FEATURE_BOUNDS["cd"] == (0.009, 0.013)
    assert FEATURE_BOUNDS["x1"] == (0.2, 0.8)
    assert FEATURE_BOUNDS["mw1"] == (1.0, 1.2)
    assert FEATURE_BOUNDS["mwl"] == (1.0, 1.3)
    assert FEATURE_BOUNDS["mwa"] == (0.9, 1.1)
