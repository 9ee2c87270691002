"""Surrogate dataset selection, RSME metric, and model training tests."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from airfoilrl.proxy import generate_pool
from airfoilrl.surrogate import (FEATURE_BOUNDS, OUTPUT_NAMES, SampleRecord,
                                 SurrogateError, in_feature_bounds,
                                 read_dataset, rsme, select_samples,
                                 write_dataset)

IN_BOX = dict(cd=0.01, x1=0.5, mw1=1.1, mwl=1.1, mwa=1.0)


def make_pool(coords, outputs=None):
    return [SampleRecord(cst14=np.asarray(c, dtype=float),
                         outputs=dict(outputs or IN_BOX)) for c in coords]


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
    bad = dict(IN_BOX)
    bad["cd"] = 0.02
    assert not in_feature_bounds(bad)


def test_select_matches_naive_reimplementation():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0.0, 1.0, (12, 14))
        snaps = select_samples(make_pool(coords), [6])
        got = sorted(tuple(s.cst14) for s in snaps[6])
        want = sorted(tuple(coords[i]) for i in naive_select(coords, 6))
        assert got == want


def test_select_five_of_eight_brute_force_optimum():
    # pools where the greedy deletion attains the exhaustive C(8,5)
    # max-min-distance optimum
    for seed in (0, 1, 2, 3, 4):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0.0, 1.0, (8, 14))
        sel = select_samples(make_pool(coords), [5])[5]
        keys = {tuple(s.cst14) for s in sel}
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
    pool[2].outputs["mw1"] = 1.5  # outside the box
    snaps = select_samples(pool, [5])
    assert all(tuple(s.cst14) != tuple(coords[2]) for s in snaps[5])


def test_select_multiple_keep_counts_nested():
    rng = np.random.default_rng(4)
    coords = rng.uniform(0.0, 1.0, (20, 14))
    snaps = select_samples(make_pool(coords), [15, 8])
    keys15 = {tuple(s.cst14) for s in snaps[15]}
    keys8 = {tuple(s.cst14) for s in snaps[8]}
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
    assert [tuple(s.cst14) for s in a] == [tuple(s.cst14) for s in b]


def masked_select_samples(pool, keep_counts):
    """select_samples as it was when it also masked removed samples out
    of the next-nearest row and the closest-pair search (verbatim)."""
    keep_counts = sorted(set(int(k) for k in keep_counts), reverse=True)
    if not keep_counts:
        raise SurrogateError("at least one keep count required")
    valid_idx = [i for i, rec in enumerate(pool) if in_feature_bounds(rec.outputs)]
    if len(valid_idx) < keep_counts[0]:
        raise SurrogateError(
            f"only {len(valid_idx)} valid samples for keep count {keep_counts[0]}")

    coords = np.stack([pool[i].cst14 for i in valid_idx])
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
    got = select_samples(pool, keep_counts)
    want = masked_select_samples(pool, keep_counts)
    assert list(got) == list(want)
    for count in want:  # the same records, in the same order
        assert [id(r) for r in got[count]] == [id(r) for r in want[count]]


def test_select_matches_the_masked_loop_on_tied_pools():
    # integer coordinates 0-2 give many equal distances; varying only
    # the first few coordinates also gives duplicate samples
    for seed in range(60):
        rng = np.random.default_rng(seed)
        coords = np.zeros((40, 14))
        coords[:, :2 + seed % 13] = rng.integers(0, 3, (40, 2 + seed % 13))
        assert_same_sets(make_pool(coords), [30, 12, 5, 1])


def test_select_matches_the_masked_loop_on_a_proxy_pool():
    assert_same_sets(generate_pool(1200, seed=7), [700, 100])


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


def test_dataset_file_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    pool = make_pool(rng.uniform(0.0, 1.0, (6, 14)))
    pool[1].outputs["cd"] = 0.05  # out of box, kept but marked
    path = tmp_path / "pool.csv"
    write_dataset(path, pool)
    back = read_dataset(path)
    assert len(back) == len(pool)
    for orig, rec in zip(pool, back):
        assert np.array_equal(rec.cst14, orig.cst14)
        for k in OUTPUT_NAMES:
            assert rec.outputs[k] == orig.outputs[k]


def test_feature_bounds_values():
    assert FEATURE_BOUNDS["cd"] == (0.009, 0.013)
    assert FEATURE_BOUNDS["x1"] == (0.2, 0.8)
    assert FEATURE_BOUNDS["mw1"] == (1.0, 1.2)
    assert FEATURE_BOUNDS["mwl"] == (1.0, 1.3)
    assert FEATURE_BOUNDS["mwa"] == (0.9, 1.1)
