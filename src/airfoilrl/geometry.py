"""CST airfoil representation and Hicks-Henne bump modification.

An airfoil is stored as two sets of 7 CST coefficients (6th-order
Bernstein shape function, class exponents 0.5/1.0, zero trailing-edge
gap).  Local modifications are sine-power bumps added to the upper
surface; the bumped curve is refit with CST (smoothing) and the lower
surface is rescaled to hold maximum thickness fixed.
"""
from __future__ import annotations

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
class BumpAction:
    """Sine-power bump: peak location t1, width s_b, signed height h_b."""

    t1: float
    s_b: float
    h_b: float


@dataclass(frozen=True)
class AirfoilGeom:
    """CST airfoil with a maximum-thickness constraint.

    Construct through :func:`make_airfoil` so the lower surface is
    rescaled to meet ``t_max``.
    """

    cst_upper: np.ndarray
    cst_lower: np.ndarray
    t_max: float

    def upper_y(self, x: np.ndarray) -> np.ndarray:
        return cst_evaluate(self.cst_upper, x)

    def lower_y(self, x: np.ndarray) -> np.ndarray:
        return cst_evaluate(self.cst_lower, x)

    @property
    def cst14(self) -> np.ndarray:
        return np.concatenate([self.cst_upper, self.cst_lower])


def _cst_basis(x: np.ndarray) -> tuple[np.ndarray, list]:
    """Class function and the Bernstein power pairs (x^i, (1-x)^(6-i))."""
    cls = np.power(x, CLASS_N1) * np.power(1.0 - x, CLASS_N2)
    return cls, [(x**i, (1.0 - x) ** (6 - i)) for i in range(N_CST)]


def _cst_sum(coeffs, basis) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (N_CST,):
        raise GeometryError(f"expected {N_CST} CST coefficients, got {coeffs.shape}")
    cls, powers = basis
    shape = np.zeros_like(cls)
    for c, b, (xi, xo) in zip(coeffs, _BINOM6, powers):
        shape = shape + c * b * xi * xo
    return cls * shape


def cst_evaluate(coeffs, x) -> np.ndarray:
    """Evaluate a 7-coefficient CST surface at stations x in [0,1]."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise GeometryError("station outside [0, 1]")
    return _cst_sum(coeffs, _cst_basis(x))


_STATION_BASIS = _cst_basis(cosine_stations())


def cst_at_stations(coeffs) -> np.ndarray:
    """cst_evaluate(coeffs, cosine_stations()), the same floats from a
    basis computed once."""
    return _cst_sum(coeffs, _STATION_BASIS)


def _design_matrix(x: np.ndarray) -> np.ndarray:
    cls, powers = _cst_basis(x)
    return np.stack([cls * b * xi * xo for b, (xi, xo) in zip(_BINOM6, powers)], axis=1)


def cst_fit(x, y) -> np.ndarray:
    """Least-squares CST coefficients for a sampled curve."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise GeometryError("x and y must be 1-D arrays of equal length")
    if x.size < N_CST + 1:
        raise GeometryError("need at least 8 stations to fit 7 coefficients")
    a = _design_matrix(x)
    coeffs, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
    if rank < N_CST:
        raise GeometryError("rank-deficient CST design matrix")
    return coeffs


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


_WIDTH_X = np.linspace(0.0, 1.0, WIDTH_GRID)
_WIDTH_LEVEL = 0.01  # widths are measured between the 1%-height points
_HALF_WINDOW = 3  # grid points evaluated either side of a predicted crossing


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


def curvature(x, y) -> np.ndarray:
    """kappa = y'' / (1 + y'^2)^(3/2), central differences, one-sided ends."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise GeometryError("need at least 3 stations for curvature")
    if np.any(np.diff(x) <= 0.0):
        raise GeometryError("stations must be strictly increasing")
    dy = np.gradient(y, x)
    d2y = np.gradient(dy, x)
    return d2y / np.power(1.0 + dy**2, 1.5)


def max_thickness(airfoil: AirfoilGeom) -> float:
    """Maximum of (y_upper - y_lower) on the fixed 201-point cosine grid."""
    return float(np.max(cst_at_stations(airfoil.cst_upper)
                        - cst_at_stations(airfoil.cst_lower)))


def _rescale_lower(upper, lower, t_max: float) -> np.ndarray:
    """Scale lower coefficients so max thickness equals t_max.

    Bisection on the scale factor in [0.25, 4.0]; thickness is monotone
    in the factor for any lower surface below the upper one.
    """
    upper = np.asarray(upper, dtype=float)
    lower = np.asarray(lower, dtype=float)
    yu = cst_at_stations(upper)
    yl = cst_at_stations(lower)

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


def make_airfoil(cst_upper, cst_lower, t_max: float) -> AirfoilGeom:
    """Build an airfoil, rescaling the lower surface to meet t_max."""
    upper = np.asarray(cst_upper, dtype=float).copy()
    lower = _rescale_lower(upper, cst_lower, t_max)
    return AirfoilGeom(cst_upper=upper, cst_lower=lower, t_max=t_max)


def apply_action(airfoil: AirfoilGeom, action: BumpAction) -> AirfoilGeom:
    """Add a bump to the upper surface, refit with CST, restore thickness.

    The refit is the smoothing step: the bumped curve is reconstructed
    as a 6th-order CST surface, then the lower surface is rescaled so
    the maximum thickness stays at t_max.
    """
    t2, _ = solve_t2(action.t1, action.s_b)
    x = cosine_stations()
    y_bumped = cst_at_stations(airfoil.cst_upper) + bump_y(action.t1, t2, action.h_b, x)
    new_upper = cst_fit(x, y_bumped)
    new_lower = _rescale_lower(new_upper, airfoil.cst_lower, airfoil.t_max)
    return AirfoilGeom(cst_upper=new_upper, cst_lower=new_lower, t_max=airfoil.t_max)


# ---------------------------------------------------------------------------
# file formats


def write_coordinates(path, airfoil: AirfoilGeom, n: int = N_STATIONS) -> None:
    """Selig-order coordinate file: upper TE->LE, then lower LE->TE."""
    x = cosine_stations(n)
    yu = airfoil.upper_y(x)
    yl = airfoil.lower_y(x)
    with open(path, "w") as fh:
        fh.write("# airfoil coordinates, Selig order\n")
        for xi, yi in zip(x[::-1], yu[::-1]):
            fh.write(f"{float(xi)!r} {float(yi)!r}\n")
        for xi, yi in zip(x[1:], yl[1:]):
            fh.write(f"{float(xi)!r} {float(yi)!r}\n")


def read_coordinates(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a Selig-order coordinate file; returns (x, y) as written."""
    xs, ys = [], []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            a, b = line.split()
            xs.append(float(a))
            ys.append(float(b))
    return np.array(xs), np.array(ys)


def write_cst_file(path, airfoil: AirfoilGeom) -> None:
    """14 whitespace-separated coefficients, then t_max on line two."""
    with open(path, "w") as fh:
        fh.write(" ".join(repr(float(c)) for c in airfoil.cst14) + "\n")
        fh.write(repr(float(airfoil.t_max)) + "\n")


def read_cst_file(path) -> AirfoilGeom:
    with open(path) as fh:
        vals = [float(v) for v in fh.readline().split()]
        t_max = float(fh.readline().strip())
    if len(vals) != 2 * N_CST:
        raise GeometryError("CST file must hold 14 coefficients on line one")
    return make_airfoil(vals[:N_CST], vals[N_CST:], t_max)
