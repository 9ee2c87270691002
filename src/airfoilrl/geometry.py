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
    rescaled to meet ``t_max``.  ``width_clamped`` is set on the result
    of :func:`apply_action` when solve_t2 clamped its bump: the width was
    out of reach or a 1% flank was cut at the leading or trailing edge.
    """

    cst_upper: np.ndarray
    cst_lower: np.ndarray
    t_max: float
    width_clamped: bool = False

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


_STATION_DESIGN = _design_matrix(_STATIONS)


def cst_fit(x, y) -> np.ndarray:
    """Least-squares CST coefficients for a sampled curve.

    On the cached cosine grid (`x is _STATIONS`) the design matrix built
    once at import is used; it holds the same floats as a fresh one.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise GeometryError("x and y must be 1-D arrays of equal length")
    if x.size < N_CST + 1:
        raise GeometryError("need at least 8 stations to fit 7 coefficients")
    a = _STATION_DESIGN if x is _STATIONS else _design_matrix(x)
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


def _crossing_phase(t2: float) -> float:
    """a in [0, 1/2] with sin(pi a)^t2 = 1%: the crossings sit at x^e = a, 1-a."""
    return math.asin(_WIDTH_LEVEL ** (1.0 / t2)) / math.pi


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
        a = np.arcsin(_WIDTH_LEVEL ** (1.0 / t2)) / np.pi
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


def _closed_form_root(e: float, s_b: float) -> tuple[float, float]:
    """Gridless estimate of the t2 giving width s_b for bump exponent e,
    and dW/dt2 there.

    The exact bump has width (1-a)^p - a^p, p = 1/e, decreasing in
    a = _crossing_phase(t2); bisect it in a inside the t2 bracket.
    """
    p = 1.0 / e
    lo, hi = _PHASE_LO, _PHASE_HI
    for _ in range(32):
        mid = 0.5 * (lo + hi)
        if (1.0 - mid) ** p - mid ** p > s_b:
            lo = mid
        else:
            hi = mid
    t2 = math.log(_WIDTH_LEVEL) / math.log(math.sin(math.pi * 0.5 * (lo + hi)))
    t2 = min(max(t2, _T2_LO), _T2_HI)
    h = 1e-4 * t2
    w_lo, w_hi = ((1.0 - a) ** p - a ** p
                  for a in (_crossing_phase(t2 - h), _crossing_phase(t2 + h)))
    slope = (w_hi - w_lo) / (2.0 * h)
    # t1 next to 1 can round the slope to 0; callers still need a direction
    return t2, min(slope, -1e-12)


def _t2_search(e: float, s_b: float, tol: float):
    """solve_t2 for one lane, as a generator: it yields lists of t2
    values to measure and is sent back their (width, first, last)
    triples; it returns (t2, clamped).

    Anchors first: secant steps on the measured width from the
    closed-form root give the root; anchors ta, tb are then tried
    outward from it, both sides at once, at distances that double until
    W(ta) >= s_b + tol/2 and W(tb) <= s_b - tol/2 (-inf or inf where
    the search leaves the t2 bracket without one).  Only those
    inequalities matter, not where the anchors land.  Then the
    bisection: midpoints at or below ta, or at or above tb, go the way
    the bisection would send them without being measured.
    """
    band = 0.25 * tol
    clear = 2.0 * band
    t, slope = _closed_form_root(e, s_b)
    (w, _, _), = yield [t]
    for _ in range(3):
        t_new = min(max(t + (s_b - w) / slope, _T2_LO), _T2_HI)
        if abs(w - s_b) < clear or t_new == t:
            break
        (w_new, _, _), = yield [t_new]
        if (w_new - w) / (t_new - t) < 0.0:
            slope = (w_new - w) / (t_new - t)
        t, w = t_new, w_new
    root = t + (s_b - w) / slope
    anchors, sign = [-math.inf, math.inf], (-1.0, 1.0)
    steps = [2.0 * clear / -slope] * 2
    sides = [0, 1]  # the sides still searching
    while True:
        sides = [k for k in sides if _T2_LO <= root + sign[k] * steps[k] <= _T2_HI]
        if not sides:
            break
        cands = [root + sign[k] * steps[k] for k in sides]
        for k, cand, (w_c, _, _) in zip(list(sides), cands, (yield cands)):
            if sign[k] * (s_b - w_c) >= clear:
                anchors[k] = cand
                sides.remove(k)
            else:
                steps[k] *= 2.0
    ta, tb = anchors
    # an anchor inside the bracket settles its end's feasibility check
    ends = [t for t, anchor in ((_T2_LO, ta), (_T2_HI, tb)) if math.isinf(anchor)]
    if ends:
        measured = yield ends
        widths = {end: w_end for end, (w_end, _, _) in zip(ends, measured)}
        if ta == -math.inf and s_b >= widths[_T2_LO]:
            return _T2_LO, True
        if tb == math.inf and s_b <= widths[_T2_HI]:
            return _T2_HI, True
    lo, hi = _T2_LO, _T2_HI
    for _ in range(100):
        t2 = 0.5 * (lo + hi)
        if t2 <= ta:
            lo = t2
        elif t2 >= tb:
            hi = t2
        else:
            (w, first, last), = yield [t2]
            if abs(w - s_b) < band:
                break
            if w > s_b:
                lo = t2
            else:
                hi = t2
    else:  # no midpoint met the stop rule; the last one sets the flag
        (_, first, last), = yield [t2]
    # a 1% crossing in the first or last width-grid cell truncates a flank
    return t2, bool(first <= 1 or last >= WIDTH_GRID - 2)


def _solve_t2_lanes(e: np.ndarray, s_b: np.ndarray, tol: float = 1e-6):
    """solve_t2 for every lane (bump exponent e[i], width s_b[i]) at
    once: each round measures the widths all lanes ask for in one
    _width_extents call.  Returns (t2, clamped) arrays."""
    searches = [_t2_search(ei, si, tol) for ei, si in zip(e.tolist(), s_b.tolist())]
    asks = [next(search) for search in searches]
    out = [None] * len(searches)
    pending = list(range(len(searches)))
    while pending:
        lane = np.repeat(pending, [len(asks[i]) for i in pending])
        measured = zip(*(v.tolist() for v in _width_extents(
            e[lane], np.array([t for i in pending for t in asks[i]]))))
        still = []
        for i in pending:
            try:
                asks[i] = searches[i].send([next(measured) for _ in asks[i]])
                still.append(i)
            except StopIteration as stop:
                out[i] = stop.value
        pending = still
    t2, clamped = zip(*out) if out else ((), ())
    return np.array(t2, dtype=float), np.array(clamped, dtype=bool)


def _action_error(t1: float, s_b: float) -> str | None:
    """Why solve_t2 rejects (t1, s_b), or None."""
    if not 0.0 < t1 < 1.0:
        return "t1 must be in (0, 1)"
    if s_b <= 0.0:
        return "s_b must be positive"
    return None


def solve_t2(t1, s_b, tol: float = 1e-6):
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
    anchors sit close to the root, so only the last few midpoints are
    (see _t2_search).  The margin of tol/2 rather than tol/4 covers
    rounding in the measured width.

    Equal-length arrays of t1 and s_b solve every lane at once and give
    arrays of t2 and clamped, each lane the floats of a call with its
    own pair.  An invalid pair, in either form, raises GeometryError.
    """
    t1s = np.atleast_1d(np.asarray(t1, dtype=float)).tolist()
    s_bs = np.atleast_1d(np.asarray(s_b, dtype=float))
    for a, b in zip(t1s, s_bs.tolist()):
        error = _action_error(a, b)
        if error is not None:
            raise GeometryError(error)
    t2, clamped = _solve_t2_lanes(np.array([_peak_exponent(a) for a in t1s]), s_bs, tol)
    if np.ndim(t1) == 0:
        return float(t2[0]), bool(clamped[0])
    return t2, clamped


def max_thickness(airfoil: AirfoilGeom) -> float:
    """Maximum of (y_upper - y_lower) on the fixed 201-point cosine grid."""
    return float(np.max(cst_at_stations(airfoil.cst_upper)
                        - cst_at_stations(airfoil.cst_lower)))


def _thickness(yu: np.ndarray, yl: np.ndarray, s: float):
    """max(yu - s*yl): the maximum thickness with the lower surface scaled
    by s; a float for one surface, one value per lane for (k, 201) rows."""
    thick = np.maximum.reduce(yu - s * yl, axis=-1)
    return float(thick) if thick.ndim == 0 else thick


_SKIP_MARGIN = 2e-10  # twice the rescale bisection's |f| < 1e-10 stop
_EPS = float(np.finfo(float).eps)


def _bisect_start(hi_pos: bool, root: float, slope: float, margin: float
                  ) -> tuple[float, float]:
    """The bracket _bisect_scale's bisection reaches before it measures a
    midpoint, where that is cheap to show; else its first one, [0.25, 4].

    Where the slope's sign agrees with hi_pos (f rising with f(4) > 0, or
    falling with f(4) < 0), each unmeasured midpoint moves the bracket
    end on its side of the root, so the brackets are the dyadic
    intervals 0.25 + 3.75 * [j, j + 1] / 2**d that hold the root.  Take
    the level d whose width is about 16 margins over |slope|.  When the
    bounds of its interval's ends clear the margin, each on its side of
    the root, every coarser midpoint (all lie at or beyond those ends)
    clears it too, since rounding is monotone; none of them is measured,
    and the bisection reaches that interval exactly.  Its ends are exact
    dyadic floats, the values the halving gives.
    """
    if slope == 0.0 or (slope > 0.0) != hi_pos or not 0.25 < root < 4.0:
        return 0.25, 4.0
    ratio = 3.75 * abs(slope) / (16.0 * margin)
    if not ratio >= 2.0:
        return 0.25, 4.0
    level = 40 if ratio >= 2.0 ** 40 else int(math.log2(ratio))
    width = math.ldexp(3.75, -level)
    j = math.floor((root - 0.25) / width)
    if not 0 <= j < 1 << level:
        return 0.25, 4.0
    lo = 0.25 + j * width
    hi = lo + width
    below, above = slope * (lo - root), slope * (hi - root)
    if hi_pos and below <= -margin and above >= margin \
            or not hi_pos and below >= margin and above <= -margin:
        return lo, hi
    return 0.25, 4.0


def _bisect_scale(yu: np.ndarray, yl: np.ndarray, t_max: float, hi_pos: bool,
                  root: float, slope: float, margin: float) -> float:
    """The scale factor _rescale_lower's bisection on [0.25, 4] stops at,
    for one lane's surfaces on the cosine grid."""
    lo, hi = _bisect_start(hi_pos, root, slope, margin)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-12:
            return mid
        bound = slope * (mid - root)
        if bound >= margin:
            mid_pos = True
        elif bound <= -margin:
            mid_pos = False
        else:
            f_mid = _thickness(yu, yl, mid) - t_max
            if abs(f_mid) < 1e-10:
                return mid
            mid_pos = f_mid > 0.0
        # a midpoint replaces the bracket end whose f has its sign
        if mid_pos == hi_pos:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _thickness_roots(yu: np.ndarray, yl: np.ndarray, t_max: np.ndarray, s_neg: float) -> list:
    """For every lane, the root in the rescale bracket of
    f(s) = max(yu - s*yl) - t_max when f is negative at its end s_neg:
    the minimum of r_i = (yu_i - t_max)/yl_i over yl_i < 0 for 0.25 (f
    rises), the maximum over yl_i > 0 for 4 (f falls).  r is divided out
    only at those stations; the others hold the reduction's identity."""
    if s_neg == 0.25:
        stations, reduce, identity = yl < 0.0, np.minimum.reduce, np.inf
    else:
        stations, reduce, identity = yl > 0.0, np.maximum.reduce, -np.inf
    r = np.divide(yu - t_max[:, None], yl, out=np.full_like(yl, identity), where=stations)
    return reduce(r, axis=1).tolist()


def _rescale_lower(upper, lower, t_max):
    """Scale lower coefficients so max thickness equals t_max.

    Bisection on the scale factor in [0.25, 4.0]; thickness is monotone
    in the factor for any lower surface below the upper one.  It stops at
    the first midpoint with |thickness - t_max| < 1e-10 or once the
    bracket is narrower than 1e-12.  Within 1e-9 of t_max at factor 1,
    lower is returned as given.

    Thickness is convex and piecewise linear in the factor s, so its
    root in the bracket has a closed form and, with s_neg the bracket
    end where f = thickness - t_max is negative, convexity bounds
    |f(s)| >= |f(s_neg)| * |s - root| / |root - s_neg| with f(s) on
    root's far side from s_neg positive and on its near side negative.
    The root is the minimum of r_i = (yu_i - t_max)/yl_i over yl_i < 0
    when f rises from f(0.25) < 0, the maximum over yl_i > 0 when it
    falls to f(4) < 0.  A midpoint where that bound is at least 2e-10
    plus a bound on the rounding in measuring f (the margin) can neither
    stop the bisection nor go the other way, so it goes its side's way
    unmeasured; only the few midpoints next to the root are measured.
    The slope is 0, skipping nothing, unless the negative end's |f|
    clears the margin.  The midpoints, the stop and the returned factor
    are those of measuring every midpoint.

    (7,) coefficient vectors and a float t_max give the rescaled lower
    vector, and a thickness that cannot be bracketed raises
    GeometryError.  (k, 7) lanes and (k,) t_max give (lowers, errors):
    the CST sums, the bracket thicknesses, the surface sizes in the
    margin and the roots are computed over all lanes at once; each lane
    then takes its margin and slope from them and runs its own
    bisection, and a lane that fails reports its message in errors and
    keeps its lower row.  Every lane gets the floats of a call with its
    own vectors.
    """
    lower = np.asarray(lower, dtype=float)
    y = cst_at_stations(np.concatenate((upper, lower)).reshape(-1, N_CST))
    k = len(y) // 2
    yu, yl = y[:k], y[k:]
    t = np.asarray(t_max, dtype=float).reshape(k)
    size = np.maximum.reduce(np.abs(y), axis=1).tolist()
    factors, errors, roots = [1.0] * k, [None] * k, {}
    for i, t_i, th_1, th_lo, th_hi in zip(range(k), t.tolist(), *(
            _thickness(yu, yl, s).tolist() for s in (1.0, 0.25, 4.0))):
        if abs(th_1 - t_i) <= 1e-9:
            continue
        f_lo, f_hi = th_lo - t_i, th_hi - t_i
        if f_lo * f_hi > 0.0:
            errors[i] = "cannot bracket thickness scale factor"
            continue
        margin = _SKIP_MARGIN + 8.0 * _EPS * (size[i] + 4.0 * size[k + i] + abs(t_i))
        if f_lo <= -margin:
            s_neg, f_neg = 0.25, f_lo
        elif f_hi <= -margin:
            s_neg, f_neg = 4.0, f_hi
        else:
            s_neg = None
        root = slope = 0.0
        if s_neg is not None:
            if s_neg not in roots:  # one reduction over all lanes, when a lane first needs it
                roots[s_neg] = _thickness_roots(yu, yl, t, s_neg)
            root = roots[s_neg][i]
            slope = f_neg / (s_neg - root)
        factors[i] = _bisect_scale(yu[i], yl[i], t_i, f_hi > 0.0, root, slope, margin)
    if lower.ndim == 2:
        return np.array(factors)[:, None] * lower, errors
    if errors[0] is not None:
        raise GeometryError(errors[0])
    return lower if factors[0] == 1.0 else factors[0] * lower


def make_airfoil(cst_upper, cst_lower, t_max: float) -> AirfoilGeom:
    """Build an airfoil, rescaling the lower surface to meet t_max."""
    upper = np.array(cst_upper, dtype=float)
    lower = _rescale_lower(upper, cst_lower, t_max)
    return AirfoilGeom(cst_upper=upper, cst_lower=lower, t_max=t_max)


def _apply_lanes(upper: np.ndarray, lower: np.ndarray, t_max: np.ndarray,
                 actions: np.ndarray):
    t1, s_b, h_b = actions.T
    errors = [_action_error(a, b) for a, b in zip(t1.tolist(), s_b.tolist())]
    ok = np.array([i for i, err in enumerate(errors) if err is None], dtype=int)
    t2, clamped = solve_t2(t1[ok], s_b[ok])
    e = np.array([_peak_exponent(a) for a in t1[ok].tolist()])
    y_bumped = cst_at_stations(upper[ok]) \
        + h_b[ok, None] * _unit_bump(_STATIONS, e[:, None], t2[:, None])
    new_upper, new_lower = upper.copy(), lower.copy()
    width_clamped = np.zeros(len(actions), dtype=bool)
    fitted, flags = [], []
    for i, y, flag in zip(ok.tolist(), y_bumped, clamped.tolist()):
        try:
            new_upper[i] = cst_fit(_STATIONS, y)
        except GeometryError as exc:
            errors[i] = str(exc)
            continue
        fitted.append(i)
        flags.append(flag)
    rescaled, rescale_errors = _rescale_lower(new_upper[fitted], lower[fitted], t_max[fitted])
    for i, row, flag, err in zip(fitted, rescaled, flags, rescale_errors):
        if err is None:
            new_lower[i] = row
            width_clamped[i] = flag
        else:
            new_upper[i] = upper[i]
            errors[i] = err
    return new_upper, new_lower, width_clamped, errors


def apply_action(airfoil, action):
    """Add a bump to the upper surface, refit with CST, restore thickness.

    The refit is the smoothing step: the bumped curve is reconstructed
    as a 6th-order CST surface, then the lower surface is rescaled so
    the maximum thickness stays at t_max.  The result records solve_t2's
    clamped flag as ``width_clamped``.

    Over lanes, airfoil is a tuple (upper, lower, t_max) of (N, 7),
    (N, 7) and (N,) arrays and action an (N, 3) array of physical
    (t1, s_b, h_b) rows; the result is (upper, lower, width_clamped,
    errors), with errors[i] the GeometryError message of a lane that
    failed (it keeps its input coefficients) or None.  The t2 solve, the
    bump and the CST sums run over all lanes together, the least-squares
    refit and the thickness rescale (with its skip rule) per lane, and
    every lane gets the floats a call with its airfoil alone gives.  A
    single AirfoilGeom and BumpAction run as a lane of one and raise
    GeometryError.
    """
    if not isinstance(airfoil, AirfoilGeom):
        upper, lower, t_max = (np.asarray(a, dtype=float) for a in airfoil)
        return _apply_lanes(upper, lower, t_max, np.asarray(action, dtype=float).reshape(-1, 3))
    upper, lower, width_clamped, errors = _apply_lanes(
        np.asarray(airfoil.cst_upper, dtype=float)[None],
        np.asarray(airfoil.cst_lower, dtype=float)[None], np.array([airfoil.t_max]),
        np.array([[action.t1, action.s_b, action.h_b]], dtype=float))
    if errors[0] is not None:
        raise GeometryError(errors[0])
    return AirfoilGeom(cst_upper=upper[0], cst_lower=lower[0], t_max=airfoil.t_max,
                       width_clamped=bool(width_clamped[0]))


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
