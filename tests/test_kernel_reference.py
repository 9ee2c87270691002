"""The fast geometry and smoothing kernels against their reference forms.

The references below are the straightforward implementations: the
bisection solver measuring every midpoint on the full 2001-point grid,
the full-grid width and flank check, the per-station moving average,
and CST evaluation building its basis on every call.  The library must
return the same floats.
"""
import math

import numpy as np

from airfoilrl.geometry import (GeometryError, cosine_stations, cst_at_stations,
                                cst_evaluate, measure_bump_width, solve_t2)
from airfoilrl.proxy import _moving_average

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


def test_solve_t2_matches_bisection_reference():
    rng = np.random.default_rng(20)
    pairs = [(rng.uniform(0.01, 0.99), rng.uniform(0.2, 0.4)) for _ in range(2000)]
    # truncated flanks at both ends of the action box, an infeasibly wide
    # and an infeasibly narrow bump
    pairs += [(0.95, 0.4), (0.99, 0.4), (0.01, 0.4), (0.02, 0.2), (0.99, 0.2),
              (0.5, 0.999), (0.5, 1e-4)]
    clamped_seen = 0
    for t1, s_b in pairs:
        t2, clamped = solve_t2(t1, s_b)
        ref_t2, ref_clamped = ref_solve_t2(t1, s_b)
        assert (t2, bool(clamped)) == (ref_t2, bool(ref_clamped)), (t1, s_b)
        clamped_seen += bool(ref_clamped)
    assert clamped_seen >= 20


def test_solve_t2_matches_reference_at_other_tolerances():
    rng = np.random.default_rng(21)
    for tol in (1e-3, 1e-9):
        for _ in range(100):
            t1, s_b = rng.uniform(0.01, 0.99), rng.uniform(0.2, 0.4)
            t2, clamped = solve_t2(t1, s_b, tol)
            ref_t2, ref_clamped = ref_solve_t2(t1, s_b, tol)
            assert (t2, bool(clamped)) == (ref_t2, bool(ref_clamped)), (t1, s_b, tol)


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
