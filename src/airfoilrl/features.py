"""Wall Mach number distributions and their physical features.

A distribution reduces to six features: suction-peak Mach MwL, shock
location X1, pre-shock Mach Mw1, highest post-shock Mach MwA, highest
lower-surface Mach and plateau smoothness Err.  The RL state is
[X1, Mw1, MwL, MwA].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# upper-surface search windows (chord fractions)
PEAK_WINDOW = (0.0, 0.2)
SHOCK_WINDOW = (0.2, 0.9)
MIN_SHOCK_DROP = 0.05  # minimum Mach drop across a detected shock


class NonphysicalPressureError(ValueError):
    """Static pressure ratio fell to or below zero."""


class FeatureError(ValueError):
    """Distribution too coarse or malformed for feature extraction."""


@dataclass(frozen=True)
class WallMachDistribution:
    """Wall Mach numbers over (n,) station grids: one distribution per row
    of (N, n) blocks for extract_features, 1-D arrays in the file format."""

    x_upper: np.ndarray
    mw_upper: np.ndarray
    x_lower: np.ndarray
    mw_lower: np.ndarray
    m_inf: float


@dataclass(frozen=True)
class FeatureSet:
    """The features of a block of distributions, (N,) arrays each."""

    x1: np.ndarray
    mw1: np.ndarray
    mwl: np.ndarray
    mwa: np.ndarray
    mw_lower: np.ndarray
    err: np.ndarray
    no_shock: np.ndarray

    @property
    def state(self) -> np.ndarray:
        """The (N, 4) RL states [X1, Mw1, MwL, MwA]."""
        return np.stack([self.x1, self.mw1, self.mwl, self.mwa], axis=-1)


def cp_to_wall_mach(cp, m_inf: float):
    """Isentropic wall Mach number from pressure coefficient, elementwise:
    p/p_inf = 1 + 0.7 M^2 cp, total pressure (1 + 0.2 M^2)^3.5, so cp = 0
    gives the free-stream Mach."""
    cp = np.asarray(cp, dtype=float)
    p_ratio = 1.0 + 0.7 * m_inf**2 * cp
    if np.any(p_ratio <= 0.0):
        raise NonphysicalPressureError("static pressure ratio <= 0")
    p0_ratio = (1.0 + 0.2 * m_inf**2) ** 3.5
    m2 = 5.0 * ((p0_ratio / p_ratio) ** (1.0 / 3.5) - 1.0)
    if np.any(m2 < -1e-12):
        raise NonphysicalPressureError("pressure above stagnation value")
    return np.sqrt(np.clip(m2, 0.0, None))


def extract_features(dist: WallMachDistribution) -> FeatureSet:
    """The features, (N,) arrays, of each row of (N, n) mw_upper and
    mw_lower blocks on shared x grids.  The shock is the steepest falling
    interval of mw_upper in SHOCK_WINDOW, taken only when the monotone
    descending run around it drops at least MIN_SHOCK_DROP.  Without one,
    or without a supersonic station, no_shock is set, Mw1/X1 sit at the
    upper maximum and MwA is the lowest Mach from there on."""
    x = np.asarray(dist.x_upper, dtype=float)
    mw = np.asarray(dist.mw_upper, dtype=float)
    if mw.shape[1:] != x.shape:
        raise FeatureError(f"mw_upper must be an (N, {x.size}) block, got {mw.shape}")
    if x.size < 20:
        raise FeatureError("upper surface needs at least 20 stations")
    if np.any(np.diff(x) <= 0.0):
        raise FeatureError("upper stations must be strictly increasing")

    peak = np.flatnonzero((x >= PEAK_WINDOW[0]) & (x <= PEAK_WINDOW[1]))
    if not peak.size:
        raise FeatureError("no stations in the suction-peak window")
    rows = np.arange(len(mw))
    i_peak = peak[np.argmax(mw[:, peak], axis=1)]
    mwl = mw[rows, i_peak]

    low = np.reshape(np.asarray(dist.mw_lower, dtype=float), (len(mw), -1))
    mw_lower_max = low.max(axis=1) if low.shape[1] else np.zeros(len(mw))

    i_steep, i_pre, i_foot, shock = _find_shock(x, mw)
    no_shock = (mw.max(axis=1) < 1.0) | ~shock
    i_max = np.argmax(mw, axis=1)
    x1 = np.where(no_shock, x[i_max], 0.5 * (x[i_steep] + x[i_steep + 1]))
    i_mw1 = np.where(no_shock, i_max, i_pre)
    after = np.arange(mw.shape[1]) >= np.where(no_shock, i_max, i_foot)[:, None]
    mwa = np.where(no_shock, np.where(after, mw, np.inf).min(axis=1),
                   np.where(after, mw, -np.inf).max(axis=1))
    err = np.array([_plateau_err(x, mw[r], int(i_peak[r]), int(i_mw1[r]))
                    for r in rows.tolist()])
    return FeatureSet(x1, mw[rows, i_mw1], mwl, mwa, mw_lower_max, err, no_shock)


def _find_shock(x: np.ndarray, mw: np.ndarray):
    """Per row of mw: the steepest falling interval, its monotone run's
    pre-shock local-maximum and foot indices, and whether the run drops at
    least MIN_SHOCK_DROP (where not, the indices mean nothing)."""
    n_rows, n = mw.shape
    grad = np.diff(mw, axis=1) / np.diff(x)
    mid = 0.5 * (x[:-1] + x[1:])
    cand = np.flatnonzero((mid >= SHOCK_WINDOW[0]) & (mid <= SHOCK_WINDOW[1]))
    if not cand.size:
        zeros = np.zeros(n_rows, dtype=int)
        return zeros, zeros, zeros, np.zeros(n_rows, dtype=bool)
    rows = np.arange(n_rows)
    grad = grad[:, cand]
    found = ~(grad.min(axis=1) >= 0.0)
    i_steep = cand[np.argmin(grad, axis=1)]
    # descends[:, j]: interval j-1 falls (mw[j-1] > mw[j]), False at both
    # ends.  The run extends from i_steep left, and from i_steep + 1 right,
    # to the nearest station whose outward interval does not fall
    station = np.arange(n)
    descends = np.zeros((n_rows, n + 1), dtype=bool)
    descends[:, 1:n] = mw[:, :-1] > mw[:, 1:]
    left_stop = np.where(descends[:, :-1], 0, station)
    i_pre = np.maximum.accumulate(left_stop, axis=1)[rows, i_steep]
    right_stop = np.where(descends[:, :0:-1], n - 1, station[::-1])
    i_foot = np.minimum.accumulate(right_stop, axis=1)[rows, n - 2 - i_steep]
    found &= ~(mw[rows, i_pre] - mw[rows, i_foot] < MIN_SHOCK_DROP)
    return i_steep, i_pre, i_foot, found


def _plateau_err(x: np.ndarray, mw: np.ndarray, i_peak: int, i_pre: int) -> float:
    """RMS deviation of mw from the peak-to-preshock chord line, a stand-in
    for the published plateau-smoothness measure."""
    if i_pre <= i_peak + 1:
        return 0.0
    xs = x[i_peak : i_pre + 1]
    ys = mw[i_peak : i_pre + 1]
    line = ys[0] + (ys[-1] - ys[0]) * (xs - xs[0]) / (xs[-1] - xs[0])
    return float(np.sqrt(np.mean((ys[1:-1] - line[1:-1]) ** 2)))


def is_single_shock(features):
    """True where a distribution has a genuine single shock: one was found
    and Mw1 >= 1 (a NaN Mw1 is not one).  Takes a FeatureSet or an env
    Evaluation; the env's shock_lost is its negation."""
    return np.logical_not(features.no_shock) & (np.asarray(features.mw1) >= 1.0)


def write_distribution(path, dist: WallMachDistribution) -> None:
    """A distribution file: a ``# kind=mw m_inf=...`` header, then one
    ``x value surface_id`` row per station, surface 0 upper and 1 lower."""
    with open(path, "w") as fh:
        fh.write(f"# kind=mw m_inf={float(dist.m_inf)!r}\n")
        for xi, mi in zip(dist.x_upper, dist.mw_upper):
            fh.write(f"{float(xi)!r} {float(mi)!r} 0\n")
        for xi, mi in zip(dist.x_lower, dist.mw_lower):
            fh.write(f"{float(xi)!r} {float(mi)!r} 1\n")


def read_distribution(path) -> WallMachDistribution:
    """Read write_distribution's format, or Cp values under kind=cp, as one
    distribution of 1-D arrays; FeatureError names the file, and the line
    where one is at fault."""
    kind = "mw"
    m_inf = None
    rows: list[tuple[float, float, int]] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            where = f"{path}, line {lineno}"
            if line.startswith("#"):
                for tok in line.lstrip("#").split():
                    if tok.startswith("kind="):
                        kind = tok.split("=", 1)[1]
                        if kind not in ("mw", "cp"):
                            raise FeatureError(f"{where}: unknown distribution kind {kind!r} "
                                               f"(mw or cp)")
                    elif tok.startswith("m_inf="):
                        try:
                            m_inf = float(tok.split("=", 1)[1])
                        except ValueError:
                            raise FeatureError(f"{where}: m_inf must be a number, "
                                               f"got {tok!r}") from None
                        if not np.isfinite(m_inf):
                            raise FeatureError(f"{where}: m_inf must be finite, got {m_inf}")
                continue
            if not line:
                continue
            try:
                a, b, sid = line.split()
                row = (float(a), float(b), int(sid))
            except ValueError:
                raise FeatureError(f"{where}: expected 'x value surface_id', "
                                   f"got {line!r}") from None
            if not np.all(np.isfinite(row[:2])):
                raise FeatureError(f"{where}: x and value must be finite, got {line!r}")
            if row[2] not in (0, 1):
                raise FeatureError(f"{where}: surface id must be 0 (upper) or 1 (lower), "
                                   f"got {sid}")
            rows.append(row)
    if m_inf is None:
        raise FeatureError(f"{path}: the header must declare m_inf")
    up = sorted((r for r in rows if r[2] == 0), key=lambda r: r[0])
    lo = sorted((r for r in rows if r[2] == 1), key=lambda r: r[0])
    xu = np.array([r[0] for r in up])
    vu = np.array([r[1] for r in up])
    xl = np.array([r[0] for r in lo])
    vl = np.array([r[1] for r in lo])
    if kind == "cp":
        try:
            vu = cp_to_wall_mach(vu, m_inf)
            vl = cp_to_wall_mach(vl, m_inf)
        except NonphysicalPressureError as exc:
            raise FeatureError(f"{path}: {exc}") from None
    return WallMachDistribution(x_upper=xu, mw_upper=vu, x_lower=xl,
                                mw_lower=vl, m_inf=m_inf)
