"""The block proxy and feature extraction against the per-row code they
replaced.

The ref_* functions are verbatim copies of the one-airfoil-at-a-time
proxy_distribution, _moving_average, proxy_evaluate, extract_features,
_find_shock, _plateau_err, seed_airfoils and generate_pool (renamed,
with the calls between them pointed at each other, the model constants
written as literals, and make_airfoil run on a lane of one; ref_generate_pool
also counts its draws, build failures and evaluations into a run
record, the Counter that generate_pool fills).
Each block row must give the same floats, bit for bit.
"""
import math
from collections import Counter

import numpy as np
import pytest

from airfoilrl.features import (MIN_SHOCK_DROP, PEAK_WINDOW, SHOCK_WINDOW,
                                FeatureError, FeatureSet, WallMachDistribution,
                                extract_features)
from airfoilrl.geometry import cosine_stations, cst_at_stations
import airfoilrl.proxy as proxy
from airfoilrl.proxy import (_PROXY_BLOCK, BASE_CST, T_MAX_DEFAULT, _moving_average,
                             generate_pool, proxy_distribution, proxy_evaluate, seed_airfoils)
from airfoilrl.tables import in_feature_bounds
from conftest import built_airfoil, features_of_one, synthetic_distribution


def ref_moving_average(v: np.ndarray, halfwidth: int) -> np.ndarray:
    if halfwidth <= 0:
        return v.copy()
    n = v.size
    kernel = np.ones(2 * halfwidth + 1)
    # np.convolve swaps its arguments when the kernel is the longer one,
    # which sums each window backwards; zero tails keep v the longer
    tail = np.zeros(max(kernel.size - n, 0))

    def window_sums(a: np.ndarray) -> np.ndarray:
        return np.convolve(np.concatenate([a, tail]), kernel, "same")[:n]

    return window_sums(v) / window_sums(np.ones(n))


def ref_proxy_distribution(cst14, m_inf: float = 0.76) -> WallMachDistribution:
    cst14 = np.asarray(cst14, dtype=float)
    x = cosine_stations()
    y_u = cst_at_stations(cst14[:7])
    y_l = cst_at_stations(cst14[7:])
    dy = np.gradient(y_u, x)
    u = (m_inf + 6.0 * y_u
         + 0.12 * np.maximum(-dy, 0.0))
    u = ref_moving_average(u, 2)
    crossings = np.nonzero((u[:-1] >= 1.0) & (u[1:] < 1.0))[0]
    if crossings.size:
        ic = int(crossings[-1])
        k = np.arange(u.size - ic - 1, dtype=float)
        w = np.minimum((k + 1.0) / 5, 1.0)
        u[ic + 1:] = (1.0 - w) * u[ic + 1:] + w * 0.92
    low = ref_moving_average(m_inf + 2.0 * (-y_l), 2)
    return WallMachDistribution(x_upper=x, mw_upper=u, x_lower=x,
                                mw_lower=low, m_inf=m_inf)


def ref_proxy_evaluate(cst14, m_inf: float = 0.76) -> tuple[float, FeatureSet]:
    feats = ref_extract_features(ref_proxy_distribution(cst14, m_inf))
    wave = 0.0 if feats.no_shock else max(feats.mw1 - 1.0, 0.0) ** 4
    cd = 0.0095 + 1.2 * wave + 0.004 * feats.err
    return cd, feats


def ref_extract_features(dist: WallMachDistribution) -> FeatureSet:
    x = np.asarray(dist.x_upper, dtype=float)
    mw = np.asarray(dist.mw_upper, dtype=float)
    if x.size < 20:
        raise FeatureError("upper surface needs at least 20 stations")
    if np.any(np.diff(x) <= 0.0):
        raise FeatureError("upper stations must be strictly increasing")

    peak_mask = (x >= PEAK_WINDOW[0]) & (x <= PEAK_WINDOW[1])
    if not np.any(peak_mask):
        raise FeatureError("no stations in the suction-peak window")
    i_peak = int(np.nonzero(peak_mask)[0][np.argmax(mw[peak_mask])])
    mwl = float(mw[i_peak])

    mw_lower_max = float(np.max(dist.mw_lower)) if len(dist.mw_lower) else 0.0

    shock = ref_find_shock(x, mw)
    if np.max(mw) < 1.0 or shock is None:
        i_max = int(np.argmax(mw))
        return FeatureSet(
            x1=float(x[i_max]),
            mw1=float(mw[i_max]),
            mwl=mwl,
            mwa=float(np.min(mw[i_max:])) if i_max < mw.size else float(mw[-1]),
            mw_lower=mw_lower_max,
            err=ref_plateau_err(x, mw, i_peak, i_max),
            no_shock=True,
        )

    i_steep, i_pre, i_foot = shock
    x1 = 0.5 * (x[i_steep] + x[i_steep + 1])
    mw1 = float(mw[i_pre])
    mwa = float(np.max(mw[i_foot:]))
    err = ref_plateau_err(x, mw, i_peak, i_pre)
    return FeatureSet(x1=float(x1), mw1=mw1, mwl=mwl, mwa=mwa,
                      mw_lower=mw_lower_max, err=err, no_shock=False)


def ref_find_shock(x: np.ndarray, mw: np.ndarray):
    grad = np.diff(mw) / np.diff(x)
    mid = 0.5 * (x[:-1] + x[1:])
    window = (mid >= SHOCK_WINDOW[0]) & (mid <= SHOCK_WINDOW[1])
    if not np.any(window) or np.min(grad[window]) >= 0.0:
        return None
    cand = np.nonzero(window)[0]
    i_steep = int(cand[np.argmin(grad[cand])])
    # expand the monotone descending run around the steepest cell
    i_pre = i_steep
    while i_pre > 0 and mw[i_pre - 1] > mw[i_pre]:
        i_pre -= 1
    i_foot = i_steep + 1
    while i_foot < mw.size - 1 and mw[i_foot + 1] < mw[i_foot]:
        i_foot += 1
    if mw[i_pre] - mw[i_foot] < MIN_SHOCK_DROP:
        return None
    return i_steep, i_pre, i_foot


def ref_plateau_err(x: np.ndarray, mw: np.ndarray, i_peak: int, i_pre: int) -> float:
    if i_pre <= i_peak + 1:
        return 0.0
    xs = x[i_peak : i_pre + 1]
    ys = mw[i_peak : i_pre + 1]
    line = ys[0] + (ys[-1] - ys[0]) * (xs - xs[0]) / (xs[-1] - xs[0])
    inner = slice(1, -1)
    dev = ys[inner] - line[inner]
    if dev.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(dev**2)))


def _ref_outputs(cd: float, feats: FeatureSet) -> list:
    return [cd, feats.x1, feats.mw1, feats.mwl, feats.mwa]


def ref_proxy_sample(cst14, m_inf: float = 0.76) -> np.ndarray:
    """The sample-table row of one airfoil."""
    cd, feats = ref_proxy_evaluate(cst14, m_inf)
    return np.array([*np.asarray(cst14, dtype=float), *_ref_outputs(cd, feats)])


def ref_seed_airfoils(n: int, seed: int = 0, spread: float = 0.008,
                      t_max: float = T_MAX_DEFAULT,
                      m_inf: float = 0.76, max_tries: int = 20000):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(max_tries):
        if len(out) >= n:
            break
        upper = BASE_CST[:7] + rng.uniform(-spread, spread, 7)
        lower = BASE_CST[7:] + rng.uniform(-spread, spread, 7)
        foil = built_airfoil(np.concatenate((upper, lower)), t_max)
        if foil is None:
            continue
        cd, feats = ref_proxy_evaluate(foil, m_inf)
        if not feats.no_shock and in_feature_bounds(_ref_outputs(cd, feats)):
            out.append(foil)
    if len(out) < n:
        raise RuntimeError(f"seed generator produced {len(out)}/{n} valid airfoils")
    return out


def ref_generate_pool(n: int, seed: int = 0, spread: float = 0.08,
                      t_max: float = T_MAX_DEFAULT,
                      m_inf: float = 0.76, record: Counter = None):
    record = Counter() if record is None else record
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(20 * n):
        if len(pool) >= n:
            break
        record["pool_draws"] += 1
        upper = BASE_CST[:7] + rng.uniform(-spread, spread, 7)
        lower = BASE_CST[7:] + rng.uniform(-spread, spread, 7)
        foil = built_airfoil(np.concatenate((upper, lower)), t_max)
        if foil is None:
            record["build_failures"] += 1
            continue
        record["proxy_rows"] += 1
        pool.append(ref_proxy_sample(foil, m_inf))
    if len(pool) < n:
        raise RuntimeError(f"pool generator produced {len(pool)}/{n} valid airfoils")
    return pool


FIELDS = ("x1", "mw1", "mwl", "mwa", "mw_lower", "err", "no_shock")


def _bits(*values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def _assert_rows_match(feats: FeatureSet, refs: list[FeatureSet]) -> None:
    """Every row of a block FeatureSet equals its per-row reference bitwise."""
    for name in FIELDS:
        column = np.asarray(getattr(feats, name))
        assert column.shape == (len(refs),), name
        want = [getattr(ref, name) for ref in refs]
        assert column.astype(float).tobytes() == _bits(*want), name


def _cst_rows():
    """2,000 coefficient rows: pool-like perturbations of the base
    geometry, wider ones that lose the shock or the sonic crossing, and
    thin ones that stay subsonic."""
    rng = np.random.default_rng(31)
    base = BASE_CST
    rows = [base + rng.uniform(-spread, spread, (n, 14))
            for spread, n in ((0.008, 400), (0.08, 800), (0.2, 600))]
    rows.append(base * rng.uniform(0.2, 0.6, (200, 1)))
    return np.concatenate(rows)


@pytest.fixture(scope="module")
def cst_rows():
    return _cst_rows()


def test_moving_average_rows_match_convolve():
    rng = np.random.default_rng(32)
    block = 0.76 + rng.uniform(-0.3, 0.5, (50, 201))
    for halfwidth in range(5):
        out = _moving_average(block, halfwidth)
        for row, want in zip(out, block):
            assert row.tobytes() == ref_moving_average(want, halfwidth).tobytes()
    for n in range(9):
        block = rng.normal(size=(3, n))
        for halfwidth in range(4):
            out = _moving_average(block, halfwidth)
            assert out.shape == block.shape
            for row, want in zip(out, block):
                assert row.tobytes() == ref_moving_average(want, halfwidth).tobytes()


def test_proxy_block_matches_per_row_reference(cst_rows):
    cd, feats = proxy_evaluate(cst_rows)
    dist = proxy_distribution(cst_rows)
    refs = [ref_proxy_evaluate(row) for row in cst_rows]
    assert cd.tobytes() == _bits(*(c for c, _ in refs))
    _assert_rows_match(feats, [f for _, f in refs])
    crossings = 0
    for k, row in enumerate(cst_rows):
        want = ref_proxy_distribution(row)
        assert dist.mw_upper[k].tobytes() == want.mw_upper.tobytes()
        assert dist.mw_lower[k].tobytes() == want.mw_lower.tobytes()
        crossings += bool(np.any((want.mw_upper[:-1] >= 1.0) & (want.mw_upper[1:] < 1.0)))
    # the rows cover shocks, shockless rows and rows never reaching Mach 1
    assert 200 <= int(np.count_nonzero(feats.no_shock)) <= len(cst_rows) - 200
    assert np.count_nonzero(feats.mw1 < 1.0) >= 100
    assert 100 <= crossings <= len(cst_rows) - 100


def test_single_airfoil_is_a_batch_of_one(cst_rows):
    for row in cst_rows[::100]:
        cd, feats = proxy_evaluate(row)
        ref_cd, ref = ref_proxy_evaluate(row)
        assert cd.tobytes() == _bits(ref_cd)
        _assert_rows_match(feats, [ref])
        assert feats.state.shape == (1, 4)
        assert proxy_distribution(row).mw_upper.shape == (1, 201)
    cd, block = proxy_evaluate(cst_rows[:3])
    one_cd, one = proxy_evaluate(cst_rows[1:2])
    assert block.state.shape == (3, 4)
    assert cd[1:2].tobytes() == one_cd.tobytes()
    assert block.state[1:2].tobytes() == one.state.tobytes()


def _synthetic_rows(x: np.ndarray) -> np.ndarray:
    """Distributions on grid x: synthetic single-shock profiles, a run
    that descends from the first station to the last, subsonic rows,
    noise, and runs that end one station short of either end."""
    rng = np.random.default_rng(33)
    rows = []
    for _ in range(40):
        x1, mw1, mwl, mwa = rng.uniform([0.3, 1.0, 1.0, 0.9], [0.8, 1.2, 1.3, 1.1])
        grid = synthetic_distribution(x1, mw1, mwl, mwa)
        rows.append(np.interp(x, grid.x_upper, grid.mw_upper))
    rows.append(1.3 - 0.5 * x)  # one descending run over the whole chord
    rows.append(0.8 - 0.1 * x)  # subsonic
    rows.append(1.05 - 0.04 * x)  # supersonic, drop too small
    rows.append(np.where(x < 0.6, 1.2, 0.9) + 0.0 * x)  # step, flat ends
    edge = 1.3 - 0.5 * x
    edge[0], edge[-1] = edge[1] - 0.01, edge[-2] + 0.01  # runs stop one short
    rows.append(edge)
    rows.extend(1.0 + 0.2 * rng.standard_normal((20, x.size)))
    rows.extend(np.cumsum(rng.uniform(-0.05, 0.01, (20, x.size)), axis=1) + 1.3)
    return np.array(rows)


@pytest.mark.parametrize("grid", ["linspace201", "linspace401", "random", "cosine"])
def test_features_block_matches_per_row_reference(grid):
    rng = np.random.default_rng(34)
    x = {"linspace201": np.linspace(0.0, 1.0, 201),
         "linspace401": np.linspace(0.0, 1.0, 401),
         "random": np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 150)])),
         "cosine": cosine_stations()}[grid]
    mw = _synthetic_rows(x)
    low = 0.7 + 0.01 * rng.standard_normal(mw.shape)
    feats = extract_features(WallMachDistribution(x, mw, x, low, 0.76))
    refs = [ref_extract_features(WallMachDistribution(x, m, x, lo, 0.76))
            for m, lo in zip(mw, low)]
    _assert_rows_match(feats, refs)
    singles = [features_of_one(WallMachDistribution(x, m, x, lo, 0.76))
               for m, lo in zip(mw, low)]
    _assert_rows_match(feats, singles)
    assert any(r.no_shock for r in refs) and not all(r.no_shock for r in refs)
    # the whole-chord run reaches both ends of the grid
    ends = ref_find_shock(x, mw[40])
    assert ends is not None and (ends[1], ends[2]) == (0, x.size - 1)


def test_features_without_lower_surface_or_shock_window():
    x = np.linspace(0.0, 1.0, 30)
    mw = np.array([1.2 - 0.3 * x, 0.9 + 0.0 * x])
    feats = extract_features(WallMachDistribution(x, mw, x, np.zeros((2, 0)), 0.76))
    assert feats.mw_lower.tolist() == [0.0, 0.0]
    narrow = np.linspace(0.0, 0.19, 25)  # no interval inside the shock window
    feats = features_of_one(WallMachDistribution(narrow, 1.2 - narrow, narrow, narrow, 0.76))
    ref = ref_extract_features(WallMachDistribution(narrow, 1.2 - narrow, narrow, narrow, 0.76))
    assert feats == ref and feats.no_shock


def _outcome(make, *args, **kwargs):
    """make's pool rows or seed coefficients as bytes, or the message it
    gives up with."""
    try:
        out = make(*args, **kwargs)
    except RuntimeError as exc:
        return str(exc)
    rows = [np.asarray(r) for r in out]
    assert all(math.isfinite(v) for row in rows for v in row)
    return [row.tobytes() for row in rows]


@pytest.mark.parametrize("seed, t_pool, t_seed, n_seeds, tries, failing", [
    *(pytest.param(seed, T_MAX_DEFAULT, T_MAX_DEFAULT, 4, 20000, None, id=str(seed))
      for seed in range(3)),
    # about 44% of the draws of either spread fail to build, so blocks draw again
    pytest.param(4, 0.18, 0.18, 40, 20000, False, id="redraws"),
    # 97% (pool) and 99.9% (seeds) fail, so the tries run out inside a block
    pytest.param(4, 0.25, 0.19, 40, 2000, True, id="tries-cap"),
])
def test_pool_and_seeds_match_reference(seed, t_pool, t_seed, n_seeds, tries, failing,
                                        monkeypatch):
    record, ref_record = Counter(), Counter()
    pool = _outcome(generate_pool, 75, seed=seed, t_max=t_pool, record=record)
    assert pool == _outcome(ref_generate_pool, 75, seed=seed, t_max=t_pool, record=ref_record)
    # the pool keeps every built airfoil, so each of its blocks but the
    # last is full
    ref_record["proxy_blocks"] = -(-ref_record["proxy_rows"] // _PROXY_BLOCK)
    assert record == ref_record
    monkeypatch.setattr(proxy, "_SEED_TRIES", tries)
    seeds = _outcome(seed_airfoils, n_seeds, seed=seed, t_max=t_seed)
    assert seeds == _outcome(ref_seed_airfoils, n_seeds, seed=seed, t_max=t_seed,
                             max_tries=tries)
    if failing is not None:  # the input does what its comment says
        assert record["build_failures"] > record["proxy_rows"] / 2
        assert isinstance(pool, str) == isinstance(seeds, str) == failing
    else:
        assert len(pool) == 75 and len(seeds) == n_seeds
