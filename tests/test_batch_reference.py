"""The lane-batched step path against the scalar code it replaced.

Below are verbatim copies of the scalar bump chain that apply_action and
solve_t2 ran one airfoil at a time (CST sum, bump, windowed width,
anchored t2 bisection, apply_action), and of the greedy_search loop that
scored its candidates one by one.  The parts the batched path still
runs per lane (cst_fit, _rescale_lower) are the library's.  Every lane
of geometry.apply_action over lanes, and every greedy sample, must carry
the same floats as these give.  The environment tests then check that
stepping N lanes at once equals stepping each lane as a batch of one.
"""
import math

import numpy as np
import pytest

from airfoilrl import geometry
from airfoilrl.env import (ACTION_BOUNDS, OUTCOMES, REWARD_SCALE, DesignEnv, EnvConfig,
                           proxy_evaluator, surrogate_evaluator)
from airfoilrl.geometry import (N_CST, WIDTH_GRID, _BINOM6, _STATION_BASIS,
                                _STATIONS, AirfoilGeom, BumpAction, GeometryError,
                                _rescale_lower, cst_fit)
from airfoilrl.nnet import Scaler, make_mlp
from airfoilrl.pretrain import StateActionSample, greedy_search
from airfoilrl.proxy import proxy_evaluate, seed_airfoils
from airfoilrl.surrogate import OUTPUT_NAMES, in_feature_bounds

_WIDTH_X = np.linspace(0.0, 1.0, WIDTH_GRID)
_WIDTH_LEVEL = 0.01
_HALF_WINDOW = 3

# ---------------------------------------------------------------------------
# reference: the scalar chain, verbatim


def _cst_sum(coeffs, basis) -> np.ndarray:
    """cls * sum_i ((c_i * C(6,i)) * x^i) * (1-x)^(6-i), the terms added
    in index order to 0.0.

    A reduce over the leading axis adds whole rows in turn.  For a
    single station numpy adds the 7 terms in its own inner loop, also in
    order (it sums pairwise only from 8 terms).  The explicit initial
    0.0 fixes the sign of an all-zero sum to that of a sum started from
    zeros, whatever start value the numpy version picks.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (N_CST,):
        raise GeometryError(f"expected {N_CST} CST coefficients, got {coeffs.shape}")
    cls, xi, xo = basis
    scale = (coeffs * _BINOM6).reshape((N_CST,) + (1,) * cls.ndim)
    return cls * np.add.reduce(scale * xi * xo, axis=0, initial=0.0)


def cst_at_stations(coeffs) -> np.ndarray:
    """cst_evaluate(coeffs, cosine_stations()), the same floats from a
    basis computed once."""
    return _cst_sum(coeffs, _STATION_BASIS)


def _check_bump_params(t1: float, t2: float) -> None:
    if not 0.0 < t1 < 1.0:
        raise GeometryError("t1 must be in (0, 1)")
    if t2 <= 0.0:
        raise GeometryError("t2 must be positive")


def _peak_exponent(t1: float) -> float:
    """e in sin(pi x^e), placing the bump peak x^e = 1/2 at x = t1."""
    return math.log(0.5) / math.log(t1)


def _unit_bump(x: np.ndarray, e: float, t2: float) -> np.ndarray:
    """sin(pi * x^e)^t2 at stations x in [0, 1]."""
    # sin can underflow to a tiny negative at x=1; clip before the
    # fractional power
    s = np.clip(np.sin(np.pi * np.power(x, e)), 0.0, None)
    # sin(pi) rounds to ~1e-16 instead of 0 and a fractional power t2
    # would inflate it, so pin the analytic end zeros
    s[(x == 0.0) | (x == 1.0)] = 0.0
    return np.power(s, t2)


def bump_y(t1: float, t2: float, h_b: float, x) -> np.ndarray:
    """Hicks-Henne bump h_b * sin(pi * x^e)^t2 with e mapping t1 to 0.5."""
    _check_bump_params(t1, t2)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise GeometryError("station outside [0, 1]")
    return h_b * _unit_bump(x, _peak_exponent(t1), t2)


def _crossing_phase(t2: float) -> float:
    """a in [0, 1/2] with sin(pi a)^t2 = 1%: the crossings sit at x^e = a, 1-a."""
    return math.asin(_WIDTH_LEVEL ** (1.0 / t2)) / math.pi


def _cross(x, f, i0: int, i1: int) -> float:
    """Linear interpolation of the 1% crossing between points i0 and i1."""
    f0, f1 = f[i0], f[i1]
    if f1 == f0:
        return x[i0]
    return x[i0] + (_WIDTH_LEVEL - f0) * (x[i1] - x[i0]) / (f1 - f0)


def _width_extent(t1: float, t2: float) -> tuple[float, int, int]:
    """measure_bump_width plus the width-grid indices of the first and
    last points at or above 1% height (-1, -1 when there are none).

    The crossings of sin(pi x^e)^t2 lie at x = a^(1/e) and (1-a)^(1/e)
    (a from _crossing_phase).  Only the grid points around each
    are evaluated, with bump_y's operations, so every value is the
    full grid's.  The bump is unimodal and zero at both grid ends, so a
    left window rising through 1% holds the grid's first point at or
    above it and a right window falling through 1% holds the last;
    otherwise the whole grid is evaluated.
    """
    _check_bump_params(t1, t2)
    e = _peak_exponent(t1)
    a = _crossing_phase(t2)
    if not math.isnan(a):  # a NaN t2 gives an all-NaN bump on the full grid
        n = 2 * _HALF_WINDOW
        # first grid index of each window, kept inside the grid
        lo_l, lo_r = (min(max(int(c * (WIDTH_GRID - 1)) - _HALF_WINDOW + 1, 0),
                          WIDTH_GRID - n)
                      for c in (a ** (1.0 / e), (1.0 - a) ** (1.0 / e)))
        xs = np.concatenate([_WIDTH_X[lo_l:lo_l + n], _WIDTH_X[lo_r:lo_r + n]])
        f = _unit_bump(xs, e, t2).tolist()
        above = [v >= _WIDTH_LEVEL for v in f]
        if not above[0] and above[n - 1] and above[n] and not above[-1]:
            j = above.index(True)
            k = 2 * n - 1 - above[::-1].index(True)
            x = xs.tolist()
            width = _cross(x, f, k, k + 1) - _cross(x, f, j - 1, j)
            return width, lo_l + j, lo_r + k - n
    f = _unit_bump(_WIDTH_X, e, t2)
    above = np.nonzero(f >= _WIDTH_LEVEL)[0]
    if above.size == 0:
        return 0.0, -1, -1
    # f is pinned to 0 at both grid ends, so each crossing has a neighbour
    i_l, i_r = int(above[0]), int(above[-1])
    width = _cross(_WIDTH_X, f, i_r, i_r + 1) - _cross(_WIDTH_X, f, i_l - 1, i_l)
    return float(width), i_l, i_r


def measure_bump_width(t1: float, t2: float) -> float:
    """Chordwise distance between the two 1%-height points of a bump.

    Measured on a 2001-point uniform grid with linear interpolation of
    the crossings; independent of h_b.  Only the grid points next to
    the two crossings are evaluated, which gives the same float as
    evaluating the whole grid.
    """
    return _width_extent(t1, t2)[0]


_T2_LO = 0.2
_T2_HI = 200.0


def _closed_form_root(t1: float, s_b: float) -> tuple[float, float]:
    """Gridless estimate of the t2 giving width s_b, and dW/dt2 there.

    The exact bump has width (1-a)^p - a^p, p = 1/e, decreasing in
    a = _crossing_phase(t2); bisect it in a inside the t2 bracket.
    """
    p = 1.0 / _peak_exponent(t1)

    def width(a: float) -> float:
        return (1.0 - a) ** p - a ** p

    lo, hi = _crossing_phase(_T2_LO), _crossing_phase(_T2_HI)
    for _ in range(32):
        mid = 0.5 * (lo + hi)
        if width(mid) > s_b:
            lo = mid
        else:
            hi = mid
    t2 = math.log(_WIDTH_LEVEL) / math.log(math.sin(math.pi * 0.5 * (lo + hi)))
    t2 = min(max(t2, _T2_LO), _T2_HI)
    h = 1e-4 * t2
    w_lo, w_hi = (width(_crossing_phase(t)) for t in (t2 - h, t2 + h))
    slope = (w_hi - w_lo) / (2.0 * h)
    # t1 next to 1 can round the slope to 0; callers still need a direction
    return t2, min(slope, -1e-12)


def _anchors(t1: float, s_b: float, clear: float) -> tuple[float, float]:
    """(ta, tb) with measured widths W(ta) >= s_b + clear and
    W(tb) <= s_b - clear, each as close to the root as the search gets;
    -inf or inf where the search leaves the t2 bracket without one.

    Secant steps on the measured width from the closed-form root give
    the root; anchors are then tried outward from it at distances that
    double until each inequality holds.  Only the inequalities matter
    to solve_t2, not where the anchors land.
    """
    t, slope = _closed_form_root(t1, s_b)
    w = measure_bump_width(t1, t)
    for _ in range(3):
        t_new = min(max(t + (s_b - w) / slope, _T2_LO), _T2_HI)
        if abs(w - s_b) < clear or t_new == t:
            break
        w_new = measure_bump_width(t1, t_new)
        if (w_new - w) / (t_new - t) < 0.0:
            slope = (w_new - w) / (t_new - t)
        t, w = t_new, w_new
    root = t + (s_b - w) / slope
    anchors = [-math.inf, math.inf]
    for side, sign in ((0, -1.0), (1, 1.0)):
        step = 2.0 * clear / -slope
        while _T2_LO <= root + sign * step <= _T2_HI:
            cand = root + sign * step
            if sign * (s_b - measure_bump_width(t1, cand)) >= clear:
                anchors[side] = cand
                break
            step *= 2.0
    return anchors[0], anchors[1]


def solve_t2(t1: float, s_b: float, tol: float = 1e-6) -> tuple[float, bool]:
    """Shape exponent giving a 1%-height width of s_b at peak t1.

    Returns (t2, clamped).  clamped is set when the requested width is
    not achievable inside the t2 bracket, or when a 1% crossing sits in
    a boundary grid cell (flank truncated by the [0,1] support); in the
    infeasible case the closest achievable t2 is returned.

    t2 is the first midpoint of a bisection on [0.2, 200] whose
    measure_bump_width lies within tol/4 of s_b.  The width decreases
    monotonically in t2, so midpoints at or below an anchor whose width
    clears s_b + tol/2, or at or above one below s_b - tol/2, go the
    way the bisection would send them without being measured; the
    anchors sit close to the root, so only the last few midpoints are.
    The margin of tol/2 rather than tol/4 covers rounding in the
    measured width.
    """
    if not 0.0 < t1 < 1.0:
        raise GeometryError("t1 must be in (0, 1)")
    if s_b <= 0.0:
        raise GeometryError("s_b must be positive")
    band = 0.25 * tol
    ta, tb = _anchors(t1, s_b, 2.0 * band)
    # an anchor inside the bracket settles its end's feasibility check
    if ta == -math.inf and s_b >= measure_bump_width(t1, _T2_LO):
        return _T2_LO, True
    if tb == math.inf and s_b <= measure_bump_width(t1, _T2_HI):
        return _T2_HI, True
    lo, hi = _T2_LO, _T2_HI
    for _ in range(100):
        t2 = 0.5 * (lo + hi)
        if t2 <= ta:
            lo = t2
        elif t2 >= tb:
            hi = t2
        else:
            w, first, last = _width_extent(t1, t2)
            if abs(w - s_b) < band:
                break
            if w > s_b:
                lo = t2
            else:
                hi = t2
    else:  # no midpoint met the stop rule; the last one sets the flag
        _, first, last = _width_extent(t1, t2)
    # a 1% crossing in the first or last width-grid cell truncates a flank
    return t2, first <= 1 or last >= WIDTH_GRID - 2


def apply_action(airfoil: AirfoilGeom, action: BumpAction) -> AirfoilGeom:
    """Add a bump to the upper surface, refit with CST, restore thickness.

    The refit is the smoothing step: the bumped curve is reconstructed
    as a 6th-order CST surface, then the lower surface is rescaled so
    the maximum thickness stays at t_max.  The result records solve_t2's
    clamped flag as ``width_clamped``.
    """
    t2, clamped = solve_t2(action.t1, action.s_b)
    y_bumped = cst_at_stations(airfoil.cst_upper) \
        + bump_y(action.t1, t2, action.h_b, _STATIONS)
    new_upper = cst_fit(_STATIONS, y_bumped)
    new_lower = _rescale_lower(new_upper, airfoil.cst_lower, airfoil.t_max)
    return AirfoilGeom(cst_upper=new_upper, cst_lower=new_lower, t_max=airfoil.t_max,
                       width_clamped=clamped)



# the greedy loop as it was, renamed from greedy_search


def reference_greedy_search(baseline: AirfoilGeom, evaluator, searches: int,
                  steps: int, candidates: int, rng) -> list[StateActionSample]:
    """Random greedy searches: at each step draw candidate actions
    uniformly over the physical action box, keep the one with the
    smallest drag that stays inside the feature box, and advance."""
    samples: list[StateActionSample] = []
    for _ in range(searches):
        foil = baseline
        cd, feats = evaluator(foil.cst14)
        for _ in range(steps):
            draws = rng.uniform(ACTION_BOUNDS[:, 0], ACTION_BOUNDS[:, 1],
                                size=(candidates, 3))
            best = None
            for row in draws:
                action = BumpAction(t1=float(row[0]), s_b=float(row[1]),
                                    h_b=float(row[2]))
                try:
                    cand = apply_action(foil, action)
                except GeometryError:
                    continue
                cd_new, feats_new = evaluator(cand.cst14)
                outputs = dict(zip(OUTPUT_NAMES, (cd_new, feats_new.x1,
                                                  feats_new.mw1, feats_new.mwl,
                                                  feats_new.mwa)))
                if feats_new.no_shock or not in_feature_bounds(outputs):
                    continue
                if best is None or cd_new < best[0]:
                    best = (cd_new, feats_new, action, cand)
            if best is None:
                break  # no candidate satisfies the constraints
            cd_new, feats_new, action, cand = best
            samples.append(StateActionSample(state=feats.state, action=action,
                                             reward=REWARD_SCALE * (cd - cd_new)))
            foil, cd, feats = cand, cd_new, feats_new
    return samples


# ---------------------------------------------------------------------------
# the batched path against the reference


def reference_lane(upper, lower, t_max, action):
    """(upper, lower, width_clamped) or the GeometryError message."""
    try:
        foil = apply_action(AirfoilGeom(upper, lower, t_max), BumpAction(*action))
    except GeometryError as exc:
        return str(exc)
    return foil.cst_upper, foil.cst_lower, foil.width_clamped


def random_airfoils(rng, count):
    """Seed airfoils and airfoils a few random bumps away from them."""
    foils = seed_airfoils(6, seed=40)
    while len(foils) < count:
        foil = foils[int(rng.integers(len(foils)))]
        try:
            foils.append(apply_action(foil, BumpAction(
                rng.uniform(0.05, 0.95), rng.uniform(0.2, 0.4), rng.uniform(-0.02, 0.02))))
        except GeometryError:
            pass
    return foils


def test_apply_action_lanes_match_scalar_chain():
    rng = np.random.default_rng(50)
    foils = random_airfoils(rng, 40)
    seen = {"ok": 0, "failed": 0, "clamped": 0}
    for block in range(5):
        picks = rng.integers(len(foils), size=420)
        actions = rng.uniform(ACTION_BOUNDS[:, 0], ACTION_BOUNDS[:, 1], (420, 3))
        # the action box's corners clamp the width; invalid bumps fail
        actions[:20, :2] = [[0.99, 0.4], [0.01, 0.4], [0.95, 0.4], [0.02, 0.2]] * 5
        actions[20:24] = [[0.0, 0.3, 0.01], [0.5, -0.1, 0.01], [1.2, 0.3, 0.0],
                          [math.nan, 0.3, 0.0]]
        actions[24] = [0.5, math.nan, 0.01]  # solve_t2 lets a NaN width through
        upper = np.array([foils[i].cst_upper for i in picks])
        lower = np.array([foils[i].cst_lower for i in picks])
        got_upper, got_lower, width_clamped, errors = geometry.apply_action(
            (upper, lower, np.full(len(picks), 0.095)), actions)
        for k in range(len(picks)):
            ref = reference_lane(upper[k], lower[k], 0.095, actions[k])
            if isinstance(ref, str):
                assert errors[k] == ref
                assert got_upper[k].tobytes() == upper[k].tobytes()
                assert got_lower[k].tobytes() == lower[k].tobytes()
                assert not width_clamped[k]
                seen["failed"] += 1
                continue
            assert errors[k] is None
            assert got_upper[k].tobytes() == ref[0].tobytes()
            assert got_lower[k].tobytes() == ref[1].tobytes()
            assert bool(width_clamped[k]) == ref[2]
            seen["ok"] += 1
            seen["clamped"] += ref[2]
    assert seen["ok"] + seen["failed"] >= 2000
    assert min(seen.values()) >= 100, seen


def test_solve_t2_lanes_match_scalar_reference():
    rng = np.random.default_rng(51)
    pairs = [(rng.uniform(0.01, 0.99), rng.uniform(0.2, 0.4)) for _ in range(600)]
    pairs += [(0.95, 0.4), (0.99, 0.4), (0.01, 0.4), (0.02, 0.2), (0.99, 0.2),
              (0.5, 0.999), (0.5, 1e-4), (0.3, math.nan)]
    for tol in (1e-6, 1e-3, 1e-9):
        t2, clamped = geometry.solve_t2(np.array([t1 for t1, _ in pairs]),
                                        np.array([s for _, s in pairs]), tol)
        for (t1, s_b), got_t2, got_clamped in zip(pairs, t2, clamped):
            want_t2, want_clamped = solve_t2(t1, s_b, tol)
            assert (got_t2, bool(got_clamped)) == (want_t2, bool(want_clamped)), (t1, s_b, tol)
            assert geometry.solve_t2(t1, s_b, tol) == (want_t2, bool(want_clamped))


@pytest.mark.parametrize("t1,s_b", [([0.5, 0.0], [0.3, 0.3]), ([0.5, math.nan], [0.3, 0.3]),
                                     ([0.5, 0.5], [0.3, -0.1]), ([1.0], [0.3])])
def test_solve_t2_lanes_reject_an_invalid_lane(t1, s_b):
    with pytest.raises(GeometryError):
        geometry.solve_t2(np.array(t1), np.array(s_b))


def test_solve_t2_exact_from_a_poor_start(monkeypatch):
    # a start far from the root leaves the secant steps short of it, so
    # anchors must be searched for and verified, not taken on trust
    closed_form = geometry._closed_form_root

    def poor_start(e, s_b):
        t2, slope = closed_form(e, s_b)
        return min(3.0 * t2, geometry._T2_HI), 0.2 * slope

    monkeypatch.setattr(geometry, "_closed_form_root", poor_start)
    rng = np.random.default_rng(56)
    t1, s_b = rng.uniform(0.01, 0.99, 300), rng.uniform(0.2, 0.4, 300)
    t2, clamped = geometry.solve_t2(t1, s_b)
    for k in range(t1.size):
        assert (t2[k], bool(clamped[k])) == solve_t2(t1[k], s_b[k]), (t1[k], s_b[k])


def test_width_extents_match_scalar_reference():
    rng = np.random.default_rng(52)
    t1 = rng.uniform(0.01, 0.99, 1500)
    t2 = np.exp(rng.uniform(math.log(0.2), math.log(200.0), 1500))
    e = np.array([geometry._peak_exponent(t) for t in t1])
    width, first, last = geometry._width_extents(e, t2)
    for k in range(t1.size):
        assert (width[k], first[k], last[k]) == _width_extent(t1[k], t2[k])
    assert width.tolist() == [measure_bump_width(a, b) for a, b in zip(t1, t2)]


def scalar_proxy(cst14):
    return proxy_evaluate(cst14)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_greedy_search_matches_scalar_loop(seed):
    for foil in seed_airfoils(2, seed=seed):
        got = greedy_search(foil, proxy_evaluator(), 2, 5, 30, np.random.default_rng(seed))
        want = reference_greedy_search(foil, scalar_proxy, 2, 5, 30,
                                       np.random.default_rng(seed))
        assert len(got) == len(want) > 0
        for a, b in zip(got, want):
            assert a.state.tobytes() == b.state.tobytes()
            assert a.action == b.action
            assert repr(a.reward) == repr(b.reward)


def step_both(evaluator, baselines, actions_per_step):
    """Step every baseline as one lane of a batch and alone as a batch of
    one with the same scaled actions; returns both sides' records."""
    batch = DesignEnv(evaluator, EnvConfig(max_steps=4))
    batch.reset_lanes(baselines)
    singles = [DesignEnv(evaluator, EnvConfig(max_steps=4)) for _ in baselines]
    for env, foil in zip(singles, baselines):
        env.reset(foil)
    records = []
    for actions in actions_per_step:
        if not batch.live.any():
            break
        lanes = np.flatnonzero(batch.live)
        result = batch.step(actions[lanes])
        for j, lane in enumerate(lanes):
            one = singles[lane].step(actions[lane])
            records.append((batch, lane, result, j, singles[lane], one))
    return records


def assert_same_step(batch, lane, result, j, single, one, rel):
    assert batch._upper[lane].tobytes() == single._upper[0].tobytes()
    assert batch._lower[lane].tobytes() == single._lower[0].tobytes()
    assert bool(result.done[j]) == bool(one.done[0])
    assert result.reward[j] == pytest.approx(one.reward[0], rel=rel, abs=0.0)
    assert result.next_state[j] == pytest.approx(one.next_state[0], rel=rel, abs=0.0)
    info = one.lane_info
    assert np.array_equal(result.lane_info["action"][j], info["action"][0])
    for key in ("clamped", "width_clamped", "shock_lost", "modify_failed"):
        assert bool(result.lane_info[key][j]) == bool(info[key][0]), key
    for key in ("cd_before", "cd_after"):
        assert result.lane_info[key][j] == pytest.approx(info[key][0], rel=rel, abs=0.0)


def random_actions(rng, steps, lanes):
    actions = rng.uniform(0.3, 0.7, (steps, lanes, 3))
    actions[0, :3] = [[0.5, 0.5, 1.0], [1.0, 1.0, 0.55], [1.2, 0.5, 0.5]]
    return actions


def test_batched_step_equals_batch_of_one_on_proxy():
    baselines = seed_airfoils(6, seed=53)
    records = step_both(proxy_evaluator(), baselines,
                        random_actions(np.random.default_rng(53), 4, 6))
    assert len(records) >= 12
    failed = 0
    for record in records:
        assert_same_step(*record, rel=0.0)
        failed += record[-1].info["modify_failed"]
    assert failed >= 1


def test_batched_step_equals_batch_of_one_on_surrogate():
    rng = np.random.default_rng(54)
    model = make_mlp([14, 16, 5], rng, output_scaler=Scaler(
        lo=np.array([0.009, 0.2, 1.0, 1.0, 0.9]), hi=np.array([0.013, 0.8, 1.2, 1.3, 1.1])))
    # outputs near the middle of the feature box, moving with the geometry
    model.weights[-1][...] *= 0.05
    model.biases[-1][...] = 0.5
    baselines = seed_airfoils(6, seed=54)
    records = step_both(surrogate_evaluator(model), baselines,
                        random_actions(rng, 4, 6))
    assert len(records) >= 12
    for record in records:
        # one (n, 14) forward against (1, 14) ones: gemm against gemv
        assert_same_step(*record, rel=1e-12)


def test_nan_mw1_loses_the_shock():
    nan_model = make_mlp([14, 4, 5], np.random.default_rng(55))
    nan_model.flat[:] = np.nan
    env = DesignEnv(surrogate_evaluator(nan_model))
    env.reset(seed_airfoils(1, seed=55)[0])
    result = env.step(np.array([0.5, 0.5, 0.5]))
    assert result.info["shock_lost"] and result.done and result.reward == 0.0


def test_lockstep_info_counts_outcomes_over_lanes():
    baselines = seed_airfoils(3, seed=58)
    env = DesignEnv(proxy_evaluator(), EnvConfig(max_steps=2))
    env.reset_lanes(baselines)
    result = env.step(np.array([[1.0, 1.0, 0.55], [1.2, 1.0, 0.55], [0.5, 0.5, 0.55]]))
    assert result.info == {k: int(np.count_nonzero(result.lane_info[k])) for k in OUTCOMES}
    assert result.info["clamped"] == 1 and result.info["width_clamped"] == 2
