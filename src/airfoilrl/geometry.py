"""CST airfoil representation and Hicks-Henne bump modification.

An airfoil is stored as two sets of 7 CST coefficients (6th-order
Bernstein shape function, class exponents 0.5/1.0, zero trailing-edge
gap).  Local modifications are sine-power bumps added to the upper
surface; the bumped curve is refit with CST (smoothing) and the lower
surface is rescaled to hold maximum thickness fixed.

The step path (solve_t2, the bump, the refit and the rescale) is array
code over lanes, one airfoil each; a single airfoil is a lane of one,
and every lane gets the floats it gets alone.  It meets the tolerance
contracts of solve_t2 (the bump width) and _rescale_lower (the thickness).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

N_CST = 7  # 6th-order Bernstein -> 7 coefficients per surface
CLASS_N1 = 0.5
CLASS_N2 = 1.0
N_STATIONS = 201  # cosine grid used for evaluation, fitting, thickness
WIDTH_GRID = 2001  # uniform grid used to measure bump widths
_BINOM6 = np.array([math.comb(6, i) for i in range(N_CST)], dtype=float)


class GeometryError(ValueError):
    """Raised for invalid stations, fit failures, or degenerate rescales."""


def cosine_stations(n: int = N_STATIONS) -> np.ndarray:
    """Chordwise stations clustered at both ends, x[0]=0, x[-1]=1."""
    return 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, n)))


@dataclass(frozen=True)
class AirfoilGeom:
    """A baseline airfoil: CST coefficients whose lower surface was
    rescaled to meet ``t_max`` (see :func:`make_airfoil`)."""

    cst_upper: np.ndarray
    cst_lower: np.ndarray
    t_max: float

    @property
    def cst14(self) -> np.ndarray:
        return np.concatenate([self.cst_upper, self.cst_lower])


def _cst_basis(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class function and the Bernstein powers x^i and (1-x)^(6-i),
    each power stacked over i into an array of shape (7,) + x.shape."""
    cls = np.power(x, CLASS_N1) * np.power(1.0 - x, CLASS_N2)
    return (cls, np.stack([x**i for i in range(N_CST)]),
            np.stack([(1.0 - x) ** (6 - i) for i in range(N_CST)]))


def _cst_sum(coeffs, basis) -> np.ndarray:
    """cls * sum_i ((c_i * C(6,i)) * x^i) * (1-x)^(6-i), the terms added
    in index order to 0.0; coeffs of shape (..., 7) give one surface per
    leading index.

    A reduce over the coefficient axis adds whole rows in turn, for each
    surface alike.  For a single station numpy adds the 7 terms in its
    own inner loop, also in order (it sums pairwise only from 8 terms).
    The explicit initial 0.0 fixes the sign of an all-zero sum to that of
    a sum started from zeros, whatever start value the numpy version
    picks.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[-1:] != (N_CST,):
        raise GeometryError(f"expected {N_CST} CST coefficients, got {coeffs.shape}")
    cls, xi, xo = basis
    scale = (coeffs * _BINOM6).reshape(coeffs.shape + (1,) * cls.ndim)
    terms = np.multiply(scale, xi)
    terms *= xo  # in place: a second (N, 7, ...) temporary costs more than the product
    return cls * np.add.reduce(terms, axis=coeffs.ndim - 1, initial=0.0)


def cst_evaluate(coeffs, x) -> np.ndarray:
    """Evaluate a 7-coefficient CST surface at stations x in [0,1]."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise GeometryError("station outside [0, 1]")
    return _cst_sum(coeffs, _cst_basis(x))


_STATIONS = cosine_stations()
_STATIONS.flags.writeable = False
_STATION_BASIS = _cst_basis(_STATIONS)


def cst_at_stations(coeffs) -> np.ndarray:
    """cst_evaluate(coeffs, cosine_stations()), the same floats from a
    basis computed once; (N, 7) coefficients give (N, 201) surfaces."""
    return _cst_sum(coeffs, _STATION_BASIS)


def _design_matrix(x: np.ndarray) -> np.ndarray:
    cls, xis, xos = _cst_basis(x)
    return np.stack([cls * b * xi * xo for b, xi, xo in zip(_BINOM6, xis, xos)], axis=1)


def _projection(x: np.ndarray) -> np.ndarray:
    """The transposed pseudo-inverse (n, 7) of the CST design matrix on
    stations x: the least-squares map from curves to coefficients.  Its
    rank check is lstsq's default, every singular value above the
    largest times eps * max(n, 7)."""
    u, s, vt = np.linalg.svd(_design_matrix(x), full_matrices=False)
    if not s[-1] > s[0] * np.finfo(float).eps * max(x.size, N_CST):
        raise GeometryError("rank-deficient CST design matrix")
    return (u / s) @ vt


@functools.cache
def _station_projection() -> np.ndarray:
    """_projection on the cosine grid, built on first use, so that a run
    which never fits a curve (pool generation, say) does no SVD."""
    return _projection(_STATIONS)


def cst_fit(x, y) -> np.ndarray:
    """Least-squares CST coefficients for a sampled curve y on stations
    x, or for each row of (k, n) curves.

    The coefficients are the pseudo-inverse applied as a sum over the
    stations in order, not a matrix product, whose blocking depends on
    the number of rows; so each row gets the floats of fitting it alone.
    On the cached cosine grid (`x is _STATIONS`) the pseudo-inverse is
    built once.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim not in (1, 2) or y.shape[-1:] != x.shape:
        raise GeometryError("x must be 1-D and y hold curves of its length")
    if x.size < N_CST + 1:
        raise GeometryError("need at least 8 stations to fit 7 coefficients")
    proj = _station_projection() if x is _STATIONS else _projection(x)
    # stations are the outer axis of the product, so that each of their
    # in-order additions is one pass over all rows' 7 coefficients
    rows = y.reshape(-1, x.size)
    sums = np.add.reduce(rows.T[:, None, :] * proj[:, :, None], axis=0)
    return np.ascontiguousarray(sums.T).reshape(y.shape[:-1] + (N_CST,))


def _check_bump_params(t1: float, t2: float) -> None:
    if not 0.0 < t1 < 1.0:
        raise GeometryError("t1 must be in (0, 1)")
    if t2 <= 0.0:
        raise GeometryError("t2 must be positive")


def _peak_exponent(t1: float) -> float:
    """e in sin(pi x^e), placing the bump peak x^e = 1/2 at x = t1."""
    return math.log(0.5) / math.log(t1)


def _unit_bump(x: np.ndarray, e, t2) -> np.ndarray:
    """sin(pi * x^e)^t2 at stations x in [0, 1]; e and t2 broadcast
    against x, so (k, 1) exponents give one bump per row."""
    # sin can underflow to a tiny negative at x=1; clip before the
    # fractional power
    s = np.maximum(np.sin(np.pi * np.power(x, e)), 0.0)
    # sin(pi) rounds to ~1e-16 instead of 0 and a fractional power t2
    # would inflate it, so pin the analytic end zeros
    np.copyto(s, 0.0, where=(x == 0.0) | (x == 1.0))
    return np.power(s, t2)


def bump_y(t1: float, t2: float, h_b: float, x) -> np.ndarray:
    """Hicks-Henne bump h_b * sin(pi * x^e)^t2 with e mapping t1 to 0.5."""
    _check_bump_params(t1, t2)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise GeometryError("station outside [0, 1]")
    return h_b * _unit_bump(x, _peak_exponent(t1), t2)


_WIDTH_X = np.linspace(0.0, 1.0, WIDTH_GRID)
_WIDTH_LEVEL = 0.01  # widths are measured between the 1%-height points
_HALF_WINDOW = 3  # grid points evaluated either side of a predicted crossing


def _crossing_phase(t2):
    """a in [0, 1/2] with sin(pi a)^t2 = 1%: the crossings sit at x^e = a, 1-a;
    elementwise over an array of t2."""
    return np.arcsin(_WIDTH_LEVEL ** (1.0 / t2)) / np.pi


def _cross(x, f, i0, i1):
    """Linear interpolation of the 1% crossing between points i0 and i1
    (indices, or tuples of index arrays); callers silence the division
    warnings of the f1 == f0 case, whose result is discarded."""
    f0, f1, x0 = f[i0], f[i1], x[i0]
    return np.where(f1 == f0, x0, x0 + (_WIDTH_LEVEL - f0) * (x[i1] - x0) / (f1 - f0))


def _full_grid_extent(e: float, t2: float) -> tuple[float, int, int]:
    """Width and first/last indices at or above 1%, from the whole grid."""
    f = _unit_bump(_WIDTH_X, e, t2)
    above = np.nonzero(f >= _WIDTH_LEVEL)[0]
    if above.size == 0:
        return 0.0, -1, -1
    # f is pinned to 0 at both grid ends, so each crossing has a neighbour
    i_l, i_r = int(above[0]), int(above[-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        width = _cross(_WIDTH_X, f, i_r, i_r + 1) - _cross(_WIDTH_X, f, i_l - 1, i_l)
    return float(width), i_l, i_r


# window point offsets: the left window in grid order, the right one
# reversed, so that both rise through 1% along their last axis
_WINDOW_OFFSETS = np.array([np.arange(2 * _HALF_WINDOW), np.arange(2 * _HALF_WINDOW)[::-1]])
_SIDES = np.array([[0, 1]])


def _width_extents(e: np.ndarray, t2: np.ndarray):
    """measure_bump_width for rows of bump exponents e and shape
    exponents t2, plus the width-grid indices of each row's first and
    last points at or above 1% height (-1, -1 when there are none).

    The crossings of sin(pi x^e)^t2 lie at x = a^(1/e) and (1-a)^(1/e)
    (a from _crossing_phase).  Only the 2 x 6 grid points around them
    are evaluated, with bump_y's operations, so every value is the full
    grid's.  The bump is unimodal and zero at both grid ends, so a left
    window rising through 1% holds the grid's first point at or above it
    and a right window falling through 1% holds the last; where that
    check fails (as a NaN t2's all-NaN bump does) the row's whole grid
    is evaluated.  Window placement therefore need not be exact.
    """
    n = 2 * _HALF_WINDOW
    rows = np.arange(e.size)[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = _crossing_phase(t2)
        centres = (np.array([a, 1.0 - a]) ** (1.0 / e)).T
        # first grid index of each window, kept inside the grid
        starts = np.minimum(np.maximum(
            (centres * (WIDTH_GRID - 1)).astype(int) - (_HALF_WINDOW - 1), 0), WIDTH_GRID - n)
        xs = _WIDTH_X[starts[:, :, None] + _WINDOW_OFFSETS]
        f = _unit_bump(xs, e[:, None, None], t2[:, None, None])
        above = f >= _WIDTH_LEVEL
        found = np.all(above[:, :, -1] & ~above[:, :, 0], axis=1)
        # the first point at or above 1% along each window, and the one
        # before it: the crossing interpolates from the point before it
        # on the left and from it on the right, as over the whole grid
        first_above = np.argmax(above, axis=2)
        i0, i1 = first_above - [[1, 0]], first_above - [[0, 1]]
        cross = _cross(xs, f, (rows, _SIDES, i0), (rows, _SIDES, i1))
    width = cross[:, 1] - cross[:, 0]
    first = starts[:, 0] + first_above[:, 0]
    last = starts[:, 1] + (n - 1) - first_above[:, 1]
    for r in np.flatnonzero(~found):
        width[r], first[r], last[r] = _full_grid_extent(float(e[r]), float(t2[r]))
    return width, first, last


def measure_bump_width(t1: float, t2: float) -> float:
    """Chordwise distance between the two 1%-height points of a bump.

    Measured on a 2001-point uniform grid with linear interpolation of
    the crossings; independent of h_b.  Only the grid points next to
    the two crossings are evaluated, which gives the same float as
    evaluating the whole grid.
    """
    _check_bump_params(t1, t2)
    width, _, _ = _width_extents(np.array([_peak_exponent(t1)]), np.array([float(t2)]))
    return float(width[0])


_T2_LO = 0.2
_T2_HI = 200.0
_PHASE_LO, _PHASE_HI = _crossing_phase(_T2_LO), _crossing_phase(_T2_HI)
_T2_STEPS = 100  # secant or bisection steps a lane may take in solve_t2
T2_TOL = 1e-6  # solve_t2 stops a lane once its width is within T2_TOL/4 of s_b


def _closed_form_root(e: np.ndarray, s_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gridless estimate of the t2 giving width s_b for bump exponents e,
    and dW/dt2 there, for every lane.

    The exact bump has width (1-a)^p - a^p, p = 1/e, decreasing in
    a = _crossing_phase(t2); bisect it in a inside the t2 bracket.
    """
    p = 1.0 / e
    a, step = np.full(e.shape, _PHASE_LO), _PHASE_HI - _PHASE_LO
    for _ in range(32):
        step *= 0.5
        mid = a + step
        a = np.where((1.0 - mid) ** p - mid ** p > s_b, mid, a)
    t2 = np.clip(math.log(_WIDTH_LEVEL) / np.log(np.sin(np.pi * (a + 0.5 * step))),
                 _T2_LO, _T2_HI)
    h = 1e-4 * t2
    w_lo, w_hi = ((1.0 - phase) ** p - phase ** p
                  for phase in (_crossing_phase(t2 - h), _crossing_phase(t2 + h)))
    # t1 next to 1 can round the slope to 0; the secant still needs a direction
    return t2, np.minimum((w_hi - w_lo) / (2.0 * h), -1e-12)


def _solve_t2_lanes(e: np.ndarray, s_b: np.ndarray):
    """solve_t2 for every lane (bump exponent e[i], width s_b[i]) at
    once; returns (t2, clamped) arrays.

    Each round measures every searching lane's width in one
    _width_extents call; the first also measures both bracket ends,
    which decide the clamp rule.  A lane keeps the bracket its
    measurements set (the width falls as t2 grows).  Its next t2 is a
    secant step, or the bracket's midpoint where that step leaves the
    bracket.
    """
    k = e.size
    t, slope = _closed_form_root(e, s_b)
    w, first, last = (v.reshape(3, k) for v in _width_extents(
        np.tile(e, 3), np.concatenate((t, np.full(k, _T2_LO), np.full(k, _T2_HI)))))
    # out of reach (a NaN width too): the closer bracket end, clamped
    t2 = np.where(s_b < w[1], _T2_HI, _T2_LO)
    clamped = ~((s_b < w[1]) & (s_b > w[2]))
    lanes = np.flatnonzero(~clamped)
    e, s_b, t, slope = e[lanes], s_b[lanes], t[lanes], slope[lanes]
    w, first, last = w[0, lanes], first[0, lanes], last[0, lanes]
    lo, hi = np.full(lanes.size, _T2_LO), np.full(lanes.size, _T2_HI)
    t_prev = w_prev = np.full(lanes.size, np.nan)
    for step in range(_T2_STEPS):
        done = (np.abs(w - s_b) < 0.25 * T2_TOL) | (step == _T2_STEPS - 1)
        t2[lanes[done]] = t[done]
        # a 1% crossing in the first or last width-grid cell truncates a flank
        clamped[lanes[done]] = ((first <= 1) | (last >= WIDTH_GRID - 2))[done]
        wider = w > s_b
        lo, hi = np.where(wider, t, lo), np.where(wider, hi, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            secant = (w - w_prev) / (t - t_prev)
        slope = np.where(secant < 0.0, secant, slope)
        t_next = t + (s_b - w) / slope
        t_next = np.where((lo < t_next) & (t_next < hi), t_next, 0.5 * (lo + hi))
        keep = ~done
        lanes, e, s_b, lo, hi, slope, t_prev, w_prev, t = (
            a[keep] for a in (lanes, e, s_b, lo, hi, slope, t, w, t_next))
        if not lanes.size:
            break
        w, first, last = _width_extents(e, t)
    return t2, clamped


def _invalid_actions(t1: np.ndarray, s_b: np.ndarray) -> np.ndarray:
    """The lanes solve_t2 rejects: t1 not in (0, 1), NaN included, or s_b <= 0."""
    return ~((0.0 < t1) & (t1 < 1.0)) | (s_b <= 0.0)


def action_error(t1: float, s_b: float) -> str | None:
    """Why solve_t2 rejects (t1, s_b), or None; a failed apply_action
    lane with a valid action failed with BRACKET_ERROR."""
    if not 0.0 < t1 < 1.0:
        return "t1 must be in (0, 1)"
    if s_b <= 0.0:
        return "s_b must be positive"
    return None


def solve_t2(t1, s_b):
    """Shape exponents giving 1%-height widths s_b at peaks t1.

    Equal-length arrays of t1 and s_b give (t2, clamped) arrays, one
    lane per pair, each lane on this contract:

    - s_b >= measure_bump_width(t1, 0.2) gives (0.2, True), and
      s_b <= measure_bump_width(t1, 200) gives (200, True): the width is
      out of reach, and the closest achievable t2 is returned;
    - otherwise measure_bump_width(t1, t2) lies within T2_TOL/4 of s_b, and
      clamped is set when a 1% crossing sits in a boundary grid cell
      (flank truncated by the [0,1] support);
    - a NaN s_b gives (0.2, True).

    The search measures both bracket ends, starts from a gridless
    estimate of the root and takes secant steps on the measured width,
    with a bisection fallback inside the bracket (see _solve_t2_lanes).
    It takes at most 100 steps a lane; a lane still outside the
    tolerance then keeps its last t2.  Every lane gets the floats of a
    lane of one.  An invalid pair in any lane raises GeometryError.
    """
    t1, s_b = np.asarray(t1, dtype=float), np.asarray(s_b, dtype=float)
    bad = np.flatnonzero(_invalid_actions(t1, s_b))
    if bad.size:
        raise GeometryError(action_error(float(t1[bad[0]]), float(s_b[bad[0]])))
    return _solve_t2_lanes(np.array([_peak_exponent(a) for a in t1.tolist()]), s_b)


def max_thickness(airfoil: AirfoilGeom) -> float:
    """Maximum of (y_upper - y_lower) on the fixed 201-point cosine grid."""
    return float(np.max(cst_at_stations(airfoil.cst_upper)
                        - cst_at_stations(airfoil.cst_lower)))


_FACTORS = np.array([[1.0], [0.25], [4.0]])
BRACKET_ERROR = "cannot bracket thickness scale factor"


def _rescale_lower(upper: np.ndarray, lower: np.ndarray, t_max: np.ndarray):
    """Scale each lane's lower coefficients so max thickness equals t_max.

    With the lower surface scaled by s, the thickness on the cosine grid
    is f(s) = max_i(yu_i - s*yl_i), convex and piecewise linear in s.
    The contract:

    - within 1e-9 of t_max at s = 1, the lane keeps its lower row;
    - when f(0.25) - t_max and f(4) - t_max have the same sign (or one
      is NaN), the thickness cannot be bracketed: the lane fails and
      keeps its lower row;
    - otherwise the factor is the root of f(s) = t_max in [0.25, 4] in
      closed form, so the thickness meets t_max up to rounding.

    Station i's line crosses t_max at r_i = (yu_i - t_max)/yl_i.  When f
    rises from f(0.25) < t_max the root is the first crossing of a
    rising line, the minimum of r_i over yl_i < 0; when it falls to
    f(4) < t_max, the last crossing of a falling one, the maximum over
    yl_i > 0.  An end where f equals t_max is the root itself.

    (k, 7) upper and lower lanes and (k,) t_max give (lowers, failed),
    failed a (k,) bool array, every step over all lanes at once; every
    lane gets the floats of a lane of one.
    """
    y = cst_at_stations(np.concatenate((upper, lower)))
    k = len(lower)
    yu, yl = y[:k], y[k:]
    # thickness less t_max at the factors 1, 0.25 and 4
    f_1, f_lo, f_hi = np.maximum.reduce(yu[:, None] - _FACTORS * yl[:, None], axis=2).T - t_max
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (yu - t_max[:, None]) / yl
    root = np.where(f_lo < 0.0, np.minimum.reduce(np.where(yl < 0.0, r, np.inf), axis=1),
                    np.maximum.reduce(np.where(yl > 0.0, r, -np.inf), axis=1))
    root = np.where(f_lo == 0.0, 0.25, np.where(f_hi == 0.0, 4.0, root))
    early = np.abs(f_1) <= 1e-9
    failed = ~early & ~(f_lo * f_hi <= 0.0)
    factor = np.where(early | failed, 1.0, root)
    return factor[:, None] * lower, failed


def make_airfoil(cst_upper, cst_lower, t_max):
    """Rescale each lane's lower surface to meet its t_max: (k, 7) upper
    and lower lanes and (k,) t_max give _rescale_lower's (lower,
    failed)."""
    return _rescale_lower(np.asarray(cst_upper, dtype=float),
                          np.asarray(cst_lower, dtype=float), np.asarray(t_max, dtype=float))


def apply_action(airfoil, action):
    """Add a bump to the upper surface, refit with CST, restore thickness.

    The refit is the smoothing step: the bumped curve is reconstructed
    as a 6th-order CST surface, then the lower surface is rescaled so
    the maximum thickness stays at t_max, within the tolerances of
    solve_t2 and _rescale_lower.

    airfoil is a tuple (upper, lower, t_max) of (N, 7), (N, 7) and (N,)
    arrays, one airfoil per lane, and action an (N, 3) array of physical
    (t1, s_b, h_b) rows; the result is (upper, lower, width_clamped,
    failed), with width_clamped[i] solve_t2's clamped flag and failed[i]
    set on a lane whose action solve_t2 rejects or whose thickness
    rescale fails (it keeps its input coefficients).  The t2 solve, the
    bump, the CST sums, the refit and the thickness rescale each run
    over all lanes together, and every lane gets the floats of a lane of
    one.
    """
    upper, lower, t_max = (np.asarray(a, dtype=float) for a in airfoil)
    t1, s_b, h_b = np.asarray(action, dtype=float).T
    failed = _invalid_actions(t1, s_b)
    ok = np.flatnonzero(~failed)
    t2, clamped = solve_t2(t1[ok], s_b[ok])
    e = np.array([_peak_exponent(a) for a in t1[ok].tolist()])
    fitted = cst_fit(_STATIONS, cst_at_stations(upper[ok])
                     + h_b[ok, None] * _unit_bump(_STATIONS, e[:, None], t2[:, None]))
    rescaled, failed[ok] = _rescale_lower(fitted, lower[ok], t_max[ok])
    built = ~failed[ok]
    new_upper, new_lower = upper.copy(), lower.copy()
    width_clamped = np.zeros(len(failed), dtype=bool)
    new_upper[ok[built]], new_lower[ok[built]] = fitted[built], rescaled[built]
    width_clamped[ok[built]] = clamped[built]
    return new_upper, new_lower, width_clamped, failed


# ---------------------------------------------------------------------------
# file formats


def write_coordinates(path, airfoil: AirfoilGeom) -> None:
    """Selig-order coordinate file on the 201-point cosine grid: upper
    TE->LE, then lower LE->TE."""
    x = cosine_stations()
    yu = cst_evaluate(airfoil.cst_upper, x)
    yl = cst_evaluate(airfoil.cst_lower, x)
    with open(path, "w") as fh:
        fh.write("# airfoil coordinates, Selig order\n")
        for xi, yi in zip(x[::-1], yu[::-1]):
            fh.write(f"{float(xi)!r} {float(yi)!r}\n")
        for xi, yi in zip(x[1:], yl[1:]):
            fh.write(f"{float(xi)!r} {float(yi)!r}\n")


def _numbers(path, lineno: int, line: str, count: int, what: str) -> np.ndarray:
    """The `count` numbers of one line of a file, or a GeometryError
    naming the file and the line."""
    try:
        values = np.array([float(v) for v in line.split()])
    except ValueError:
        values = np.empty(0)
    if values.size != count:
        raise GeometryError(f"{path}, line {lineno}: expected {what}, got {line.strip()!r}")
    return values


def read_coordinates(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a Selig-order coordinate file; returns (x, y) as written."""
    xs, ys = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0]
            if line.strip():
                x, y = _numbers(path, lineno, line, 2, "'x y'")
                xs.append(x)
                ys.append(y)
    return np.array(xs), np.array(ys)


def write_cst_file(path, airfoil: AirfoilGeom) -> None:
    """14 whitespace-separated coefficients, then t_max on line two."""
    with open(path, "w") as fh:
        fh.write(" ".join(repr(float(c)) for c in airfoil.cst14) + "\n")
        fh.write(repr(float(airfoil.t_max)) + "\n")


def read_cst_file(path) -> AirfoilGeom:
    """Read write_cst_file's format and rescale the lower surface to
    meet t_max, as make_airfoil does for a lane of one.  Raises
    GeometryError naming the file, and the line where one is at fault."""
    with open(path) as fh:
        cst = _numbers(path, 1, fh.readline(), 2 * N_CST, f"{2 * N_CST} CST coefficients")
        t_max = _numbers(path, 2, fh.readline(), 1, "t_max")
    lower, failed = make_airfoil(cst[None, :N_CST], cst[None, N_CST:], t_max)
    if failed[0]:
        raise GeometryError(f"{path}: {BRACKET_ERROR}")
    return AirfoilGeom(cst_upper=cst[:N_CST], cst_lower=lower[0], t_max=float(t_max[0]))
