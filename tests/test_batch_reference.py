"""The lane-batched step path against the scalar code it replaced.

Below are verbatim copies of the scalar windowed width that solve_t2
measured one lane at a time, and of the greedy_search loop that scored
its candidates one by one, each through apply_action on a lane of one.
The batched width must carry the same floats, and every greedy sample
the same bytes.  apply_action and solve_t2 over lanes must give every
lane the floats it gets alone, and meet the tolerance contract that
tests/test_kernel_reference.py checks against the bisection oracles.
The environment tests then check that stepping N lanes at once equals
stepping each lane as a batch of one.
"""
import math

import numpy as np
import pytest

from airfoilrl import geometry
from airfoilrl.env import (ACTION_BOUNDS, OUTCOMES, REWARD_SCALE, DesignEnv,
                           proxy_evaluator, surrogate_evaluator)
from airfoilrl.geometry import WIDTH_GRID, GeometryError, apply_action, max_thickness
from airfoilrl.nnet import Scaler, make_mlp
from airfoilrl.pretrain import greedy_search
from airfoilrl.proxy import T_MAX_DEFAULT, proxy_evaluate, seed_airfoils
from airfoilrl.tables import in_feature_bounds

from conftest import first_row, modified_airfoil
from test_kernel_reference import assert_t2_contract

_WIDTH_X = np.linspace(0.0, 1.0, WIDTH_GRID)
_WIDTH_LEVEL = 0.01
_HALF_WINDOW = 3

# ---------------------------------------------------------------------------
# reference: the scalar chain, verbatim


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


# the greedy loop as it was, renamed from greedy_search; it steps each
# candidate through apply_action on a lane of one; its feature-box check
# takes a row of outputs, and each sample is a table row


def reference_greedy_search(baseline, evaluator, searches: int,
                  steps: int, candidates: int, rng) -> list[list[float]]:
    """Random greedy searches: at each step draw candidate actions
    uniformly over the physical action box, keep the one with the
    smallest drag that stays inside the feature box, and advance."""
    samples: list[list[float]] = []
    for _ in range(searches):
        foil = baseline
        cd, feats = evaluator(foil)
        for _ in range(steps):
            draws = rng.uniform(ACTION_BOUNDS[:, 0], ACTION_BOUNDS[:, 1],
                                size=(candidates, 3))
            best = None
            for row in draws:
                action = (float(row[0]), float(row[1]), float(row[2]))
                cand = modified_airfoil(foil, T_MAX_DEFAULT, action)
                if cand is None:
                    continue
                cd_new, feats_new = evaluator(cand)
                outputs = [cd_new, feats_new.x1, feats_new.mw1, feats_new.mwl,
                           feats_new.mwa]
                if feats_new.no_shock or not in_feature_bounds(outputs):
                    continue
                if best is None or cd_new < best[0]:
                    best = (cd_new, feats_new, action, cand)
            if best is None:
                break  # no candidate satisfies the constraints
            cd_new, feats_new, action, cand = best
            samples.append([*feats.state, *action, REWARD_SCALE * (cd - cd_new)])
            foil, cd, feats = cand, cd_new, feats_new
    return samples


# ---------------------------------------------------------------------------
# the batched path against the reference


def random_airfoils(rng, count):
    """Seed airfoils and airfoils a few random bumps away from them."""
    foils = list(seed_airfoils(6, seed=40))
    while len(foils) < count:
        foil = foils[int(rng.integers(len(foils)))]
        new = modified_airfoil(foil, T_MAX_DEFAULT, (rng.uniform(0.05, 0.95),
                                                     rng.uniform(0.2, 0.4),
                                                     rng.uniform(-0.02, 0.02)))
        if new is not None:
            foils.append(new)
    return foils


# rows that fail or clamp: a NaN width, which solve_t2 lets through as
# (0.2, True); the action box's corners, which clamp the width; invalid
# and NaN peaks and widths, and a NaN height, whose thickness cannot be
# bracketed, which fail
SPECIAL_ACTIONS = np.array(
    [[0.5, math.nan, 0.01], [0.99, 0.4, 0.01], [0.0, 0.3, 0.01], [0.01, 0.4, -0.02],
     [0.5, -0.1, 0.01], [0.95, 0.4, 0.0], [1.2, 0.3, 0.0], [0.02, 0.2, 0.02],
     [math.nan, 0.3, 0.0], [0.5, 0.3, math.nan]] + [[0.99, 0.4, 0.01], [0.01, 0.4, -0.01],
                              [0.95, 0.4, 0.02], [0.02, 0.2, -0.02]] * 4)


def lane_alone(cst, t_max, action):
    """apply_action over lanes on a block of one lane."""
    got = apply_action(cst[None], t_max, action[None])
    return got[0][0], bool(got[1][0]), bool(got[2][0])


def test_apply_action_lanes_match_lanes_of_one():
    rng = np.random.default_rng(50)
    foils = random_airfoils(rng, 40)
    seen = {"ok": 0, "failed": 0, "clamped": 0}
    for size in (1, 2, 30, 420):
        picks = rng.integers(len(foils), size=size)
        actions = rng.uniform(ACTION_BOUNDS[:, 0], ACTION_BOUNDS[:, 1], (size, 3))
        actions[:len(SPECIAL_ACTIONS)] = SPECIAL_ACTIONS[:size]
        cst = np.array([foils[i] for i in picks])
        got, width_clamped, failed = apply_action(cst, 0.095, actions)
        assert failed.dtype == bool and failed.shape == (size,)
        for k in range(size):
            one, one_clamped, one_failed = lane_alone(cst[k], 0.095, actions[k])
            assert bool(failed[k]) == one_failed
            assert got[k].tobytes() == one.tobytes()
            assert bool(width_clamped[k]) == one_clamped
            if failed[k]:
                assert got[k].tobytes() == cst[k].tobytes()
                assert not width_clamped[k]
                seen["failed"] += 1
                continue
            assert abs(max_thickness(one) - 0.095) <= 1e-9
            seen["ok"] += 1
            seen["clamped"] += one_clamped
    assert min(seen.values()) >= 20, seen


def test_solve_t2_lanes_match_scalar_reference(monkeypatch):
    rng = np.random.default_rng(51)
    pairs = [(rng.uniform(0.01, 0.99), rng.uniform(0.2, 0.4)) for _ in range(600)]
    pairs += [(0.95, 0.4), (0.99, 0.4), (0.01, 0.4), (0.02, 0.2), (0.99, 0.2),
              (0.5, 0.999), (0.5, 1e-4), (0.3, math.nan)]
    for tol in (1e-6, 1e-3, 1e-9):
        monkeypatch.setattr(geometry, "T2_TOL", tol)
        t2, clamped = geometry.solve_t2(np.array([t1 for t1, _ in pairs]),
                                        np.array([s for _, s in pairs]))
        for (t1, s_b), got_t2, got_clamped in zip(pairs, t2, clamped):
            one_t2, one_clamped = geometry.solve_t2(np.array([t1]), np.array([s_b]))
            assert (one_t2[0], one_clamped[0]) == (got_t2, got_clamped), (t1, s_b)
        assert (t2[-1], clamped[-1]) == (0.2, True)  # a NaN width


@pytest.mark.parametrize("t1,s_b", [([0.5, 0.0], [0.3, 0.3]), ([0.5, math.nan], [0.3, 0.3]),
                                     ([0.5, 0.5], [0.3, -0.1]), ([1.0], [0.3])])
def test_solve_t2_lanes_reject_an_invalid_lane(t1, s_b):
    with pytest.raises(GeometryError):
        geometry.solve_t2(np.array(t1), np.array(s_b))


def test_solve_t2_exact_from_a_poor_start(monkeypatch):
    # a start far from the root, with a poor slope, leaves the first
    # secant steps short of it or past the bracket: the solve must still
    # meet its contract
    closed_form = geometry._closed_form_root

    def poor_start(e, s_b):
        t2, slope = closed_form(e, s_b)
        return np.minimum(3.0 * t2, geometry._T2_HI), 0.2 * slope

    monkeypatch.setattr(geometry, "_closed_form_root", poor_start)
    rng = np.random.default_rng(56)
    pairs = list(zip(rng.uniform(0.01, 0.99, 300).tolist(), rng.uniform(0.2, 0.4, 300).tolist()))
    assert assert_t2_contract(pairs, 1e-6) == []


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
    """The proxy's answer for one airfoil as floats: the row of its block
    of one."""
    cd, feats = proxy_evaluate(cst14[None])
    return cd[0].item(), first_row(feats)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_greedy_search_matches_scalar_loop(seed):
    for foil in seed_airfoils(2, seed=seed):
        got = greedy_search(foil, DesignEnv(proxy_evaluator()), 2, 5, 30,
                            np.random.default_rng(seed))
        want = reference_greedy_search(foil, scalar_proxy, 2, 5, 30,
                                       np.random.default_rng(seed))
        assert len(got) == len(want) > 0
        assert got.tobytes() == np.array(want).tobytes()


def step_both(evaluator, baselines, actions_per_step):
    """Step every baseline as one lane of a batch and alone as a batch of
    one with the same scaled actions; returns both sides' records."""
    batch = DesignEnv(evaluator, max_steps=4)
    batch.reset_lanes(baselines)
    singles = [DesignEnv(evaluator, max_steps=4) for _ in baselines]
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
    assert batch._cst[lane].tobytes() == single._cst[0].tobytes()
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
    env = DesignEnv(proxy_evaluator(), max_steps=2)
    env.reset_lanes(baselines)
    result = env.step(np.array([[1.0, 1.0, 0.55], [1.2, 1.0, 0.55], [0.5, 0.5, 0.55]]))
    assert result.info == {k: int(np.count_nonzero(result.lane_info[k])) for k in OUTCOMES}
    assert result.info["clamped"] == 1 and result.info["width_clamped"] == 2
