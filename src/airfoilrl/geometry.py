"""CST airfoil representation and Hicks-Henne bump modification.

An airfoil is a (14,) row of CST coefficients, 7 for the upper surface
then 7 for the lower (6th-order Bernstein, class exponents 0.5/1.0, zero
trailing-edge gap); a set of airfoils is an (N, 14) array, all at the
run's one maximum thickness t_max.  A modification adds a sine-power bump
to the upper surface, refits it with CST (the smoothing step) and
rescales the lower surface to hold t_max.  Every function over lanes or
rows gives each lane the floats it gets as a lane of one.
"""
from __future__ import annotations

import functools
import math

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


def _cst_basis(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    cls = np.power(x, CLASS_N1) * np.power(1.0 - x, CLASS_N2)
    return (cls, np.stack([x**i for i in range(N_CST)]),
            np.stack([(1.0 - x) ** (6 - i) for i in range(N_CST)]))


def _cst_sum(coeffs, basis) -> np.ndarray:
    """cls * sum_i ((c_i * C(6,i)) * x^i) * (1-x)^(6-i), one surface per
    leading index of (..., 7) coeffs.  The terms are added in index order
    from 0.0 for any number of surfaces and stations (numpy reduces a
    non-last axis row by row, and sums pairwise only from 8 terms), so a
    surface gets the floats it gets alone; the initial 0.0 fixes the sign
    of an all-zero sum whatever start value the numpy version picks."""
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
    """The floats of cst_evaluate(coeffs, cosine_stations()) from a basis
    computed once; (N, 7) coefficients give (N, 201) surfaces."""
    return _cst_sum(coeffs, _STATION_BASIS)


def _design_matrix(x: np.ndarray) -> np.ndarray:
    cls, xis, xos = _cst_basis(x)
    return np.stack([cls * b * xi * xo for b, xi, xo in zip(_BINOM6, xis, xos)], axis=1)


def _projection(x: np.ndarray) -> np.ndarray:
    """The (n, 7) transposed pseudo-inverse of the CST design matrix on
    stations x; GeometryError unless every singular value is above
    lstsq's cutoff, the largest times eps * max(n, 7)."""
    u, s, vt = np.linalg.svd(_design_matrix(x), full_matrices=False)
    if not s[-1] > s[0] * np.finfo(float).eps * max(x.size, N_CST):
        raise GeometryError("rank-deficient CST design matrix")
    return (u / s) @ vt


@functools.cache
def _station_projection() -> np.ndarray:
    """_projection on the cosine grid, built on first use: a process that
    never fits a curve skips the SVD, whose LAPACK set-up costs 1.2 MiB RSS."""
    return _projection(_STATIONS)


def cst_fit(x, y) -> np.ndarray:
    """Least-squares CST coefficients of a curve y on stations x, or of
    each row of (k, n) curves.  The pseudo-inverse is applied as a sum
    over the stations in order, not as a matrix product, whose blocking
    depends on the row count, so each row gets the floats of fitting it
    alone."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim not in (1, 2) or y.shape[-1:] != x.shape:
        raise GeometryError("x must be 1-D and y hold curves of its length")
    if x.size < N_CST + 1:
        raise GeometryError("need at least 8 stations to fit 7 coefficients")
    proj = _station_projection() if x is _STATIONS else _projection(x)
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
    """sin(pi * x^e)^t2 at stations x in [0, 1]; e and t2 broadcast against x."""
    # before the fractional power: clip sin's tiny negative at x = 1, and
    # pin the analytic end zeros, which sin(pi) misses by ~1e-16
    s = np.maximum(np.sin(np.pi * np.power(x, e)), 0.0)
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
    """a in [0, 1/2] with sin(pi a)^t2 = 1%: the crossings sit at x^e = a, 1-a."""
    return np.arcsin(_WIDTH_LEVEL ** (1.0 / t2)) / np.pi


def _cross(x, f, i0, i1):
    """The 1% crossing interpolated between points i0 and i1; x[i0] where
    f1 == f0, whose division warnings callers silence."""
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


# the left window in grid order, the right one reversed: both rise through 1%
_WINDOW_OFFSETS = np.array([np.arange(2 * _HALF_WINDOW), np.arange(2 * _HALF_WINDOW)[::-1]])
_SIDES = np.array([[0, 1]])


def _width_extents(e: np.ndarray, t2: np.ndarray):
    """measure_bump_width over rows of exponents e and t2, plus each row's
    first and last width-grid index at or above 1% (-1, -1 when none).

    Only the 2 x 6 grid points around the crossings x = a^(1/e) and
    (1-a)^(1/e) are evaluated, with bump_y's operations.  The bump is
    unimodal and zero at both grid ends, so a left window rising through
    1% holds the grid's first point at or above it and a right window
    falling through it the last; a row failing that check (a NaN t2, say)
    is measured on the whole grid.  So every value is the whole grid's.
    """
    n = 2 * _HALF_WINDOW
    rows = np.arange(e.size)[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = _crossing_phase(t2)
        centres = (np.array([a, 1.0 - a]) ** (1.0 / e)).T
        starts = np.minimum(np.maximum(
            (centres * (WIDTH_GRID - 1)).astype(int) - (_HALF_WINDOW - 1), 0), WIDTH_GRID - n)
        xs = _WIDTH_X[starts[:, :, None] + _WINDOW_OFFSETS]
        f = _unit_bump(xs, e[:, None, None], t2[:, None, None])
        above = f >= _WIDTH_LEVEL
        found = np.all(above[:, :, -1] & ~above[:, :, 0], axis=1)
        # as over the whole grid, the left crossing interpolates from the
        # point before the first one at or above 1%, the right one from it
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
    """Chordwise distance between the two 1%-height points of a bump, on a
    2001-point uniform grid with the crossings linearly interpolated;
    independent of h_b."""
    _check_bump_params(t1, t2)
    width, _, _ = _width_extents(np.array([_peak_exponent(t1)]), np.array([float(t2)]))
    return float(width[0])


_T2_LO = 0.2
_T2_HI = 200.0
_PHASE_LO, _PHASE_HI = _crossing_phase(_T2_LO), _crossing_phase(_T2_HI)
_T2_STEPS = 100  # secant or bisection steps a lane may take in solve_t2
T2_TOL = 1e-6


def _closed_form_root(e: np.ndarray, s_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gridless estimate of the t2 giving width s_b at exponents e, and
    dW/dt2 there: the exact width (1-a)^p - a^p, p = 1/e, falls in
    a = _crossing_phase(t2) and is bisected in a inside the t2 bracket."""
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
    """solve_t2 over lanes (e[i], s_b[i]); returns (t2, clamped).  Each
    round measures every searching lane in one _width_extents call, the
    first also both bracket ends.  A lane's next t2 is a secant step, or
    its bracket's midpoint where the step leaves the bracket."""
    k = e.size
    t, slope = _closed_form_root(e, s_b)
    w, first, last = (v.reshape(3, k) for v in _width_extents(
        np.tile(e, 3), np.concatenate((t, np.full(k, _T2_LO), np.full(k, _T2_HI)))))
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

    Equal-length arrays of t1 and s_b give (t2, clamped) arrays, per lane:

    - s_b >= measure_bump_width(t1, 0.2) gives (0.2, True) and
      s_b <= measure_bump_width(t1, 200) gives (200, True): out of reach,
      the closest t2 is returned; a NaN s_b gives (0.2, True);
    - otherwise measure_bump_width(t1, t2) lies within T2_TOL/4 of s_b
      after at most 100 secant or bisection steps (a lane still outside
      then keeps its last t2), and clamped is set when a 1% crossing sits
      in a boundary grid cell (a flank cut by the [0, 1] support).

    GeometryError if any lane's pair is invalid (see action_error).
    """
    t1, s_b = np.asarray(t1, dtype=float), np.asarray(s_b, dtype=float)
    bad = np.flatnonzero(_invalid_actions(t1, s_b))
    if bad.size:
        raise GeometryError(action_error(float(t1[bad[0]]), float(s_b[bad[0]])))
    return _solve_t2_lanes(np.array([_peak_exponent(a) for a in t1.tolist()]), s_b)


def max_thickness(cst) -> float:
    """Maximum of y_upper - y_lower of a (14,) row on the 201-point cosine grid."""
    return float(np.max(cst_at_stations(cst[:N_CST]) - cst_at_stations(cst[N_CST:])))


_FACTORS = np.array([[1.0], [0.25], [4.0]])
BRACKET_ERROR = "cannot bracket thickness scale factor"


def _rescale_lower(upper: np.ndarray, lower: np.ndarray, t_max: np.ndarray):
    """Scale each lane's lower row so its maximum thickness is t_max.

    (k, 7) upper and lower rows and (k,) t_max give (lowers, failed).
    With the lower surface scaled by s, the thickness on the cosine grid,
    f(s) = max_i(yu_i - s*yl_i), is convex and piecewise linear in s:

    - within 1e-9 of t_max at s = 1, the lane keeps its lower row;
    - when f(0.25) - t_max and f(4) - t_max share a sign (or one is NaN),
      the thickness cannot be bracketed: the lane fails, keeping its row;
    - otherwise s is the root of f(s) = t_max in [0.25, 4] in closed form,
      so the thickness meets t_max up to rounding.  Station i's line
      crosses t_max at r_i = (yu_i - t_max)/yl_i; the root is the least
      r_i over yl_i < 0 when f(0.25) < t_max, else the greatest over
      yl_i > 0, and an end where f equals t_max is the root itself.
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


def make_airfoil(cst, t_max: float):
    """Rescale the lower half of each (k, 14) row to meet t_max; returns the
    rows and _rescale_lower's failed flags, a failed row as it came."""
    cst = np.array(cst, dtype=float)
    cst[:, N_CST:], failed = _rescale_lower(cst[:, :N_CST], cst[:, N_CST:],
                                            np.full(len(cst), t_max))
    return cst, failed


def apply_action(cst, t_max: float, action):
    """Bump each lane's upper surface, refit it with CST and restore the
    thickness t_max, within the tolerances of solve_t2 and _rescale_lower.

    cst is (N, 14), all at t_max, and action (N, 3) physical (t1, s_b,
    h_b) rows.  Returns (cst, width_clamped, failed): width_clamped is
    solve_t2's clamped flag, and failed marks a lane whose action solve_t2
    rejects or whose rescale fails; such a lane keeps its coefficients.
    """
    cst = np.array(cst, dtype=float)
    t1, s_b, h_b = np.asarray(action, dtype=float).T
    failed = _invalid_actions(t1, s_b)
    ok = np.flatnonzero(~failed)
    t2, clamped = solve_t2(t1[ok], s_b[ok])
    e = np.array([_peak_exponent(a) for a in t1[ok].tolist()])
    fitted = cst_fit(_STATIONS, cst_at_stations(cst[ok, :N_CST])
                     + h_b[ok, None] * _unit_bump(_STATIONS, e[:, None], t2[:, None]))
    rescaled, failed[ok] = _rescale_lower(fitted, cst[ok, N_CST:], np.full(ok.size, t_max))
    built = ~failed[ok]
    cst[ok[built]] = np.hstack((fitted, rescaled))[built]
    width_clamped = np.zeros(len(failed), dtype=bool)
    width_clamped[ok[built]] = clamped[built]
    return cst, width_clamped, failed


def write_coordinates(path, cst) -> None:
    """Selig-order coordinate file of a (14,) row on the 201-point
    cosine grid: upper TE->LE, then lower LE->TE."""
    yu, yl = cst_at_stations(np.reshape(cst, (2, N_CST)))
    with open(path, "w") as fh:
        fh.write("# airfoil coordinates, Selig order\n")
        for xi, yi in zip(_STATIONS[::-1], yu[::-1]):
            fh.write(f"{float(xi)!r} {float(yi)!r}\n")
        for xi, yi in zip(_STATIONS[1:], yl[1:]):
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


def write_cst_file(path, cst, t_max: float) -> None:
    """A (14,) row's coefficients, whitespace-separated, then t_max on line two."""
    with open(path, "w") as fh:
        fh.write(" ".join(repr(float(c)) for c in cst) + "\n")
        fh.write(repr(float(t_max)) + "\n")


def read_cst_file(path) -> tuple[np.ndarray, float]:
    """Read write_cst_file's format and rescale the lower half to meet t_max,
    as make_airfoil does; returns (cst, t_max).  GeometryError names the
    file, and the line where one is at fault."""
    with open(path) as fh:
        cst = _numbers(path, 1, fh.readline(), 2 * N_CST, f"{2 * N_CST} CST coefficients")
        t_max = float(_numbers(path, 2, fh.readline(), 1, "t_max")[0])
    built, failed = make_airfoil(cst[None], t_max)
    if failed[0]:
        raise GeometryError(f"{path}: {BRACKET_ERROR}")
    return built[0], t_max
