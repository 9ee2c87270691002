"""The fast geometry and smoothing kernels against their reference forms.

The references below are the straightforward implementations: the
bisection solver measuring every midpoint on the full 2001-point grid,
the full-grid width and flank check, the per-station moving average,
CST evaluation building its basis on every call, the thickness-rescale
bisection measuring every midpoint and the term-by-term CST sum.  The
library must return the same floats, except from the t2 solve and the
thickness rescale: those meet a tolerance contract, and the two
bisections serve as its oracles (the same clamp and failure flags,
raises and early returns; widths within tol/4 and thicknesses within
1e-12).
"""
import math

import numpy as np
import pytest

from airfoilrl import geometry
from airfoilrl.env import scaled_to_physical
from airfoilrl.geometry import (GeometryError, apply_action, cosine_stations,
                                cst_at_stations, cst_evaluate, make_airfoil,
                                measure_bump_width, solve_t2)
from airfoilrl.proxy import T_MAX_DEFAULT, _moving_average, seed_airfoils

WIDTH_GRID = 2001


def ref_bump_y(t1, t2, h_b, x):
    if not 0.0 < t1 < 1.0:
        raise GeometryError("t1 must be in (0, 1)")
    if t2 <= 0.0:
        raise GeometryError("t2 must be positive")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise GeometryError("station outside [0, 1]")
    e = math.log(0.5) / math.log(t1)
    s = np.clip(np.sin(np.pi * np.power(x, e)), 0.0, None)
    s[(x == 0.0) | (x == 1.0)] = 0.0
    return h_b * np.power(s, t2)


def ref_measure_bump_width(t1, t2):
    x = np.linspace(0.0, 1.0, WIDTH_GRID)
    f = ref_bump_y(t1, t2, 1.0, x)
    above = np.nonzero(f >= 0.01)[0]
    if above.size == 0:
        return 0.0

    def _cross(i0, i1):
        f0, f1 = f[i0], f[i1]
        if f1 == f0:
            return x[i0]
        return x[i0] + (0.01 - f0) * (x[i1] - x[i0]) / (f1 - f0)

    i_l, i_r = above[0], above[-1]
    x_l = x[i_l] if i_l == 0 else _cross(i_l - 1, i_l)
    x_r = x[i_r] if i_r == WIDTH_GRID - 1 else _cross(i_r, i_r + 1)
    return x_r - x_l


def ref_flank_truncated(t1, t2):
    x = np.linspace(0.0, 1.0, WIDTH_GRID)
    f = ref_bump_y(t1, t2, 1.0, x)
    above = np.nonzero(f >= 0.01)[0]
    if above.size == 0:
        return True
    return above[0] <= 1 or above[-1] >= WIDTH_GRID - 2


def ref_solve_t2(t1, s_b, tol=1e-6):
    if not 0.0 < t1 < 1.0:
        raise GeometryError("t1 must be in (0, 1)")
    if s_b <= 0.0:
        raise GeometryError("s_b must be positive")
    w_lo = ref_measure_bump_width(t1, 0.2)
    w_hi = ref_measure_bump_width(t1, 200.0)
    if s_b >= w_lo:
        return 0.2, True
    if s_b <= w_hi:
        return 200.0, True
    lo, hi = 0.2, 200.0
    t2 = 0.5 * (lo + hi)
    for _ in range(100):
        t2 = 0.5 * (lo + hi)
        w = ref_measure_bump_width(t1, t2)
        if abs(w - s_b) < 0.25 * tol:
            break
        if w > s_b:
            lo = t2
        else:
            hi = t2
    clamped = ref_flank_truncated(t1, t2)
    return t2, clamped


def ref_cst_evaluate(coeffs, x):
    coeffs = np.asarray(coeffs, dtype=float)
    x = np.asarray(x, dtype=float)
    cls = np.power(x, 0.5) * np.power(1.0 - x, 1.0)
    shape = np.zeros_like(x)
    for i in range(7):
        shape = shape + coeffs[i] * math.comb(6, i) * x**i * (1.0 - x) ** (6 - i)
    return cls * shape


def ref_moving_average(v, halfwidth):
    if halfwidth <= 0:
        return v.copy()
    out = np.empty_like(v)
    n = v.size
    for i in range(n):
        a = max(0, i - halfwidth)
        b = min(n, i + halfwidth + 1)
        out[i] = v[a:b].mean()
    return out


def assert_t2_contract(pairs, tol):
    """solve_t2 over lanes against ref_solve_t2 on its contract: a width
    out of reach gives the reference's (t2, True); any other lane's
    width lies within tol/4 of s_b, with the flank flag of its own t2,
    solve_t2 run at geometry.T2_TOL = tol.  Returns the lanes whose
    clamped flag differs from the reference's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "T2_TOL", tol)
        t2, clamped = solve_t2(np.array([t1 for t1, _ in pairs]),
                               np.array([s_b for _, s_b in pairs]))
    differ = []
    for (t1, s_b), got_t2, got_clamped in zip(pairs, t2.tolist(), clamped.tolist()):
        ref_t2, ref_clamped = ref_solve_t2(t1, s_b, tol)
        if ref_t2 in (0.2, 200.0):  # out of reach: no bisection midpoint is a bracket end
            assert (got_t2, got_clamped) == (ref_t2, True), (t1, s_b, tol)
            continue
        assert abs(ref_measure_bump_width(t1, got_t2) - s_b) < 0.25 * tol, (t1, s_b, tol)
        assert got_clamped == ref_flank_truncated(t1, got_t2), (t1, s_b, tol)
        if got_clamped != ref_clamped:
            differ.append((t1, s_b))
    return differ


# truncated flanks at both ends of the action box, an infeasibly wide
# and an infeasibly narrow bump
T2_EDGE_PAIRS = [(0.95, 0.4), (0.99, 0.4), (0.01, 0.4), (0.02, 0.2), (0.99, 0.2),
                 (0.5, 1e-4)]


def test_solve_t2_matches_bisection_reference():
    rng = np.random.default_rng(20)
    pairs = [(rng.uniform(0.01, 0.99), rng.uniform(0.2, 0.4)) for _ in range(2000)]
    pairs += T2_EDGE_PAIRS
    assert assert_t2_contract(pairs, 1e-6) == []
    _, clamped = solve_t2(np.array([t1 for t1, _ in pairs]), np.array([s for _, s in pairs]))
    assert np.count_nonzero(clamped) >= 20
    # a bump as wide as the chord: a 1% crossing passes the boundary grid
    # cell inside the tolerance band, so the flag follows the t2 returned
    assert_t2_contract([(0.5, 0.999)], 1e-6)


def test_solve_t2_matches_reference_at_other_tolerances():
    rng = np.random.default_rng(21)
    for tol in (1e-3, 1e-9):
        pairs = [(rng.uniform(0.01, 0.99), rng.uniform(0.2, 0.4)) for _ in range(100)]
        assert assert_t2_contract(pairs + T2_EDGE_PAIRS, tol) == []
        # a bump as wide as the chord keeps the contract, but its flank
        # flag may differ from the reference's (it does at 1e-3)
        assert_t2_contract([(0.5, 0.999)], tol)


def test_measure_bump_width_matches_full_grid():
    rng = np.random.default_rng(22)
    for _ in range(3000):
        t1 = rng.uniform(0.01, 0.99)
        t2 = math.exp(rng.uniform(math.log(0.2), math.log(200.0)))
        assert measure_bump_width(t1, t2) == ref_measure_bump_width(t1, t2), (t1, t2)


def test_moving_average_matches_loop():
    rng = np.random.default_rng(23)
    for _ in range(200):
        v = 0.76 + rng.uniform(-0.3, 0.5, 201)
        for halfwidth in range(4):
            assert np.array_equal(_moving_average(v, halfwidth),
                                  ref_moving_average(v, halfwidth))


def test_moving_average_short_vectors_match_loop():
    # kernels longer than the signal, where np.convolve swaps its arguments
    rng = np.random.default_rng(24)
    for n in range(9):
        v = rng.normal(size=n)
        for halfwidth in range(4):
            out = _moving_average(v, halfwidth)
            assert out.shape == v.shape
            assert np.array_equal(out, ref_moving_average(v, halfwidth)), (n, halfwidth)


def test_moving_average_long_windows_within_rounding():
    # more than 8 terms: np.mean sums pairwise, so only the last bit may differ
    rng = np.random.default_rng(25)
    v = 0.76 + rng.uniform(-0.3, 0.5, 201)
    for halfwidth in (4, 7, 12):
        np.testing.assert_allclose(_moving_average(v, halfwidth),
                                   ref_moving_average(v, halfwidth), rtol=1e-14, atol=0)


def test_cst_evaluation_matches_reference():
    rng = np.random.default_rng(26)
    stations = cosine_stations()
    for _ in range(200):
        coeffs = rng.uniform(-0.3, 0.3, 7)
        x = rng.uniform(0.0, 1.0, 50)
        expected = ref_cst_evaluate(coeffs, stations)
        assert np.array_equal(cst_at_stations(coeffs), expected)
        assert np.array_equal(cst_evaluate(coeffs, stations), expected)
        assert np.array_equal(cst_evaluate(coeffs, x), ref_cst_evaluate(coeffs, x))


# verbatim copies of the library's basis, sum and thickness rescale as
# they were before the stacked basis and the closed-form factor; the
# rescale evaluates its surfaces with the reference sum instead of the
# library's cst_at_stations, which gave the same floats


def ref_cst_basis(x: np.ndarray) -> tuple[np.ndarray, list]:
    """Class function and the Bernstein power pairs (x^i, (1-x)^(6-i))."""
    cls = np.power(x, 0.5) * np.power(1.0 - x, 1.0)
    return cls, [(x**i, (1.0 - x) ** (6 - i)) for i in range(7)]


_BINOM6 = np.array([math.comb(6, i) for i in range(7)], dtype=float)


def ref_cst_sum(coeffs, basis) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (7,):
        raise GeometryError(f"expected {7} CST coefficients, got {coeffs.shape}")
    cls, powers = basis
    shape = np.zeros_like(cls)
    for c, b, (xi, xo) in zip(coeffs, _BINOM6, powers):
        shape = shape + c * b * xi * xo
    return cls * shape


def ref_rescale_lower(upper, lower, t_max: float) -> np.ndarray:
    """Scale lower coefficients so max thickness equals t_max.

    Bisection on the scale factor in [0.25, 4.0]; thickness is monotone
    in the factor for any lower surface below the upper one.
    """
    upper = np.asarray(upper, dtype=float)
    lower = np.asarray(lower, dtype=float)
    yu = ref_cst_sum(upper, ref_cst_basis(cosine_stations()))
    yl = ref_cst_sum(lower, ref_cst_basis(cosine_stations()))

    def thick(s: float) -> float:
        return float(np.max(yu - s * yl))

    if abs(thick(1.0) - t_max) <= 1e-9:
        return lower
    lo, hi = 0.25, 4.0
    f_lo, f_hi = thick(lo) - t_max, thick(hi) - t_max
    if f_lo * f_hi > 0.0:
        raise GeometryError("cannot bracket thickness scale factor")
    # thick may be increasing or decreasing in s depending on sign of yl
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = thick(mid) - t_max
        if abs(f_mid) < 1e-10 or hi - lo < 1e-12:
            return mid * lower
        if (f_mid > 0.0) == (f_hi > 0.0):
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi) * lower


def assert_same_floats(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()  # also tells -0.0 from 0.0


BASE_U = np.array([0.17, 0.16, 0.15, 0.14, 0.14, 0.13, 0.12])
BASE_L = -np.array([0.14, 0.12, 0.11, 0.10, 0.09, 0.08, 0.06])


def thickness_at(upper, lower, s):
    return float(np.max(cst_at_stations(upper) - s * cst_at_stations(lower)))


def rescale_one(upper, lower, t_max):
    """make_airfoil on a lane of one: (lower row, failed flag)."""
    built, failed = make_airfoil(np.concatenate((upper, lower))[None], t_max)
    return built[0, 7:], bool(failed[0])


def rescale_outcome(upper, lower, t_max):
    """The rescale contract against ref_rescale_lower: a failed lane
    that keeps its row where the reference raises, the row kept where it
    returns early, else a thickness within 1e-12 of t_max (relative
    above 1).  Returns 'raised', 'early' or 'rescaled'."""
    new, failed = rescale_one(upper, lower, t_max)
    try:
        ref = ref_rescale_lower(upper, lower, t_max)
    except GeometryError:
        assert failed
        assert_same_floats(new, lower)
        return "raised"
    assert not failed
    if ref is lower:
        assert_same_floats(new, lower)
        return "early"
    assert new.tobytes() != lower.tobytes()
    assert abs(thickness_at(upper, new, 1.0) - t_max) <= 1e-12 * max(1.0, abs(t_max))
    return "rescaled"


def test_rescale_matches_bisection_reference():
    rng = np.random.default_rng(30)
    seen = {"rising": 0, "falling": 0, "raised": 0}
    for k in range(3000):
        upper = BASE_U * rng.uniform(0.5, 1.5, 7)
        lower = BASE_L * rng.uniform(0.5, 1.5, 7)
        if k % 3 == 1:  # lower surface above the chord: thickness falls in s
            lower = -lower * rng.uniform(0.1, 0.9)
        if k % 3 == 2:  # mixed signs
            lower = rng.normal(0.0, 0.1, 7)
        # a root anywhere in the bracket, or a target that may not bracket
        t_max = (thickness_at(upper, lower, rng.uniform(0.25, 4.0)) if k % 5
                 else rng.uniform(-0.2, 0.6))
        outcome = rescale_outcome(upper, lower, t_max)
        if outcome == "raised":
            seen["raised"] += 1
        elif outcome == "rescaled":
            rising = thickness_at(upper, lower, 0.25) < t_max
            seen["rising" if rising else "falling"] += 1
    assert min(seen.values()) >= 200, seen


def test_rescale_early_return_and_unbracketable_match_reference():
    upper, lower = BASE_U, BASE_L
    t1 = thickness_at(upper, lower, 1.0)
    for t_max in (t1, t1 + 5e-10, t1 - 9e-10):
        assert rescale_outcome(upper, lower, t_max) == "early"  # returned as given at s = 1
    for t_max in (t1 + 2e-9, t1 - 2e-9):
        assert rescale_outcome(upper, lower, t_max) == "rescaled"
    # thinner than the 0.25 end, thicker than the 4.0 end
    for t_max in (0.5 * thickness_at(upper, lower, 0.25),
                  2.0 * thickness_at(upper, lower, 4.0)):
        assert rescale_outcome(upper, lower, t_max) == "raised"
    # an end of the bracket that meets t_max exactly is the factor
    for s in (0.25, 4.0):
        t_max = thickness_at(upper, lower, s)
        assert_same_floats(rescale_one(upper, lower, t_max)[0], s * lower)
    # a NaN surface cannot be bracketed either
    assert rescale_one(upper, np.full(7, np.nan), 0.095)[1]


def _rescale_lane(kind, rng):
    """(upper, lower, t_max) of one rescale lane of the given kind."""
    upper = BASE_U * rng.uniform(0.5, 1.5, 7)
    lower = BASE_L * rng.uniform(0.5, 1.5, 7)
    if kind == "falling":  # lower surface above the chord: thickness falls in s
        lower = -lower * rng.uniform(0.1, 0.9)
    if kind == "large":  # thicknesses near 1e3
        upper, lower = 1e4 * upper, 1e4 * lower
    if kind == "early":
        return upper, lower, thickness_at(upper, lower, 1.0) + rng.uniform(-9e-10, 9e-10)
    if kind == "unbracketed":  # thinner than the 0.25 end or thicker than the 4.0 end
        return upper, lower, (0.5 * thickness_at(upper, lower, 0.25) if rng.random() < 0.5
                              else 2.0 * thickness_at(upper, lower, 4.0))
    return upper, lower, thickness_at(upper, lower, rng.uniform(0.3, 3.9))


def test_rescale_lanes_match_reference_and_lanes_of_one():
    rng = np.random.default_rng(34)
    kinds = ["early", "rising", "falling", "unbracketed", "large"]
    seen = dict.fromkeys(["early", "rescaled", "raised", "large"], 0)
    for _ in range(30):
        picks = rng.integers(0, len(kinds), 12)
        block = [_rescale_lane(kinds[j], rng) for j in picks]
        upper, lower, t_max = (np.array(column) for column in zip(*block))
        lowers, failed = geometry._rescale_lower(upper, lower, t_max)
        assert lowers.shape == lower.shape
        assert failed.dtype == bool and failed.shape == (len(block),)
        for i, (u, l, t) in enumerate(block):
            one, one_failed = rescale_one(u, l, t)
            assert one_failed == failed[i]
            assert_same_floats(lowers[i], one)
            outcome = rescale_outcome(u, l, t)
            seen[outcome] += 1
            seen["large"] += kinds[picks[i]] == "large"
            if failed[i]:
                assert outcome == "raised"
                assert_same_floats(lowers[i], l)  # a failed lane keeps its row
    assert min(seen.values()) >= 20, seen
    empty, empty_failed = geometry._rescale_lower(np.empty((0, 7)), np.empty((0, 7)),
                                                  np.empty(0))
    assert empty.shape == (0, 7) and empty_failed.shape == (0,)


def test_rescale_of_step_lanes_meets_contract(monkeypatch):
    # rescales as the pool, greedy search and env make them: baselines
    # and lockstep chains of random actions over the action box
    lanes = []
    rescale = geometry._rescale_lower

    def recording_rescale(upper, lower, t_max):
        lanes.extend(zip(np.array(upper, dtype=float).reshape(-1, 7),
                         np.array(lower, dtype=float).reshape(-1, 7),
                         np.atleast_1d(t_max).tolist()))
        return rescale(upper, lower, t_max)

    monkeypatch.setattr(geometry, "_rescale_lower", recording_rescale)
    rng = np.random.default_rng(32)
    for foil in seed_airfoils(6, seed=32):
        chains = np.tile(foil, (3, 1))
        for _ in range(5):
            phys, _ = scaled_to_physical(rng.uniform(0.0, 1.0, (3, 3)))
            chains, _, _ = apply_action(chains, T_MAX_DEFAULT, phys)
    assert len(lanes) >= 60
    monkeypatch.undo()
    outcomes = [rescale_outcome(upper, lower, t_max) for upper, lower, t_max in lanes]
    assert outcomes.count("rescaled") >= 60


def test_cst_sum_matches_term_by_term_loop():
    rng = np.random.default_rng(33)
    grids = [cosine_stations(), rng.uniform(0.0, 1.0, 50), np.array([0.3]),
             np.array(0.3), np.array([]), np.array([0.0, 1.0]),
             rng.uniform(0.0, 1.0, (3, 4))]
    for k in range(600):
        coeffs = rng.uniform(-1.0, 1.0, 7) * 10.0 ** rng.uniform(-3.0, 3.0)
        if k % 5 == 0:  # zero terms, signed zeros included
            coeffs[rng.integers(0, 7, 3)] = rng.choice([0.0, -0.0], 3)
        for x in grids:
            expected = ref_cst_sum(coeffs, ref_cst_basis(x))
            assert_same_floats(cst_evaluate(coeffs, x), expected)
        assert_same_floats(cst_at_stations(coeffs),
                           ref_cst_sum(coeffs, ref_cst_basis(cosine_stations())))
    for coeffs in (np.full(7, -0.0), np.array([-1.0] * 6 + [-0.0])):
        for x in grids:
            assert_same_floats(cst_evaluate(coeffs, x),
                               ref_cst_sum(coeffs, ref_cst_basis(x)))
    with pytest.raises(GeometryError):
        cst_at_stations(np.zeros(6))
