"""Deterministic pseudo-aerodynamics evaluator standing in for CFD.

Maps (N, 14) CST blocks to synthetic wall-Mach distributions and drag
coefficients, so that the pipeline runs at desk scale.  No aerodynamic
fidelity is claimed: the model puts the seed airfoils inside the
single-shock feature box and lets bumps earn a few drag counts.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from .features import WallMachDistribution, extract_features
from .geometry import cosine_stations, cst_at_stations, make_airfoil
from .tables import CSV_COLUMNS, CST_COLS, is_valid_design


# the model; a run sets only m_inf ([proxy]).  M_POST, a post-shock level
# inside the MwA box, keeps the seed airfoils valid
M_INF_DEFAULT = 0.76
GAIN_THICKNESS, GAIN_SLOPE, SMOOTH_HALFWIDTH = 6.0, 0.12, 2
M_POST, BLEND_CELLS = 0.92, 5
CD_BASE, K_WAVE, K_ERR = 0.0095, 1.2, 0.004


def _moving_average(v: np.ndarray, halfwidth: int) -> np.ndarray:
    """Mean of v[..., i-h : i+h+1] at each i of the last axis, the window
    cut at both ends.  Each window is added left to right from 0.0, as
    np.convolve sums short windows: for up to 8 terms (halfwidth <= 3)
    that is np.mean's floats, and longer windows may differ from it in
    the last bit, where np.mean sums pairwise."""
    n = v.shape[-1]
    pad = np.zeros(v.shape[:-1] + (halfwidth,))
    padded = np.concatenate([pad, v, pad], axis=-1)
    sums = np.zeros(v.shape)
    for k in range(2 * halfwidth + 1):
        sums += padded[..., k : k + n]
    station = np.arange(n)
    counts = np.minimum(station, halfwidth) + np.minimum(station[::-1], halfwidth) + 1.0
    return sums / counts


def proxy_distribution(cst, m_inf: float = M_INF_DEFAULT) -> WallMachDistribution:
    """Synthetic wall-Mach distributions of an (N, 14) block on the cosine
    grid: (N, 201) mw_upper and mw_lower, one airfoil a row.  The upper
    signal (free stream plus thickness and adverse-slope terms, smoothed)
    recompresses toward M_POST over BLEND_CELLS stations past its last
    supersonic-to-subsonic crossing, a shock-like step."""
    x = cosine_stations()
    y_u = cst_at_stations(cst[:, :7])
    y_l = cst_at_stations(cst[:, 7:])
    dy = np.gradient(y_u, x, axis=1)
    u = m_inf + GAIN_THICKNESS * y_u + GAIN_SLOPE * np.maximum(-dy, 0.0)
    u = _moving_average(u, SMOOTH_HALFWIDTH)
    n = u.shape[1]
    crossings = (u[:, :-1] >= 1.0) & (u[:, 1:] < 1.0)
    # the last crossing interval per row; n where there is none, so that
    # no station lies downstream of it
    ic = np.where(crossings.any(axis=1), n - 2 - np.argmax(crossings[:, ::-1], axis=1), n)
    cells = np.arange(n) - ic[:, None]
    w = np.minimum(cells / BLEND_CELLS, 1.0)
    u = np.where(cells > 0, (1.0 - w) * u + w * M_POST, u)
    low = _moving_average(m_inf + 2.0 * (-y_l), SMOOTH_HALFWIDTH)
    return WallMachDistribution(x_upper=x, mw_upper=u, x_lower=x, mw_lower=low, m_inf=m_inf)


def proxy_evaluate(cst, m_inf: float = M_INF_DEFAULT):
    """(N,) drag coefficients and the FeatureSet of an (N, 14) block:
    CD = CD_BASE + K_WAVE * max(Mw1 - 1, 0)^4 + K_ERR * Err, the wave
    term zero without a shock."""
    feats = extract_features(proxy_distribution(cst, m_inf))
    # Python's float power per row: np.power(x, 4) may round differently
    wave = np.array([0.0 if ns else max(m - 1.0, 0.0) ** 4
                     for m, ns in zip(feats.mw1.tolist(), feats.no_shock.tolist())])
    return CD_BASE + K_WAVE * wave + K_ERR * feats.err, feats


# the geometry every draw perturbs: a supersonic plateau near Mach 1.12,
# recompressed mid-chord, with a few counts of removable wave drag
BASE_CST = np.array([0.1968, 0.1804, 0.164, 0.1558, 0.1394, 0.1312, 0.123,
                     -0.100, -0.085, -0.070, -0.050, -0.025, 0.005, 0.015])
T_MAX_DEFAULT = 0.095


_PROXY_BLOCK = 32  # airfoils per proxy call; small blocks hold peak memory down
_POOL_TRIES_PER_SAMPLE = 20  # about 1% of draws at the pool's spread fail to build
_POOL_SPREAD = 0.08  # half-width of the uniform draw around each base coefficient
_SEED_SPREAD = 0.008  # narrow, so that most seed draws are valid designs
_SEED_TRIES = 20000


def _evaluated(what: str, seed: int, spread: float, t_max: float, tries: int, n: int,
               m_inf: float, keep=None, record: Counter | None = None) -> np.ndarray:
    """A sample table (CSV_COLUMNS) of n random perturbations of the base
    geometry that build and pass keep(cd, feats), a row mask (all pass
    without it), from at most `tries` draws; RuntimeError naming the
    `what` generator if fewer pass.  `record` receives ``pool_draws``,
    ``build_failures`` (draws make_airfoil cannot bracket), ``proxy_rows``
    and ``proxy_blocks``.  A block, at most _PROXY_BLOCK and no more than
    are missing, is drawn as one (k, 14) uniform array (the floats of k
    draws of 14) and topped up by drawing as many as failed to build."""
    rng = np.random.default_rng(seed)
    kept = [np.empty((0, len(CSV_COLUMNS)))]
    count = draws = failures = rows = blocks = 0
    while count < n:
        want = min(_PROXY_BLOCK, n - count)
        block = np.empty((0, 14))
        while len(block) < want and draws < tries:
            k = min(want - len(block), tries - draws)
            built, failed = make_airfoil(BASE_CST + rng.uniform(-spread, spread, (k, 14)), t_max)
            draws += k
            failures += int(np.count_nonzero(failed))
            block = np.concatenate((block, built[~failed]))
        if not len(block):
            break
        cd, feats = proxy_evaluate(block, m_inf)
        rows += len(block)
        blocks += 1
        table = np.column_stack((block, cd, feats.state))
        kept.append(table if keep is None else table[keep(cd, feats)])
        count += len(kept[-1])
    if record is not None:
        record.update(pool_draws=draws, build_failures=failures, proxy_rows=rows,
                      proxy_blocks=blocks)
    if count < n:
        # where no draw builds, the run's t_max is out of reach, not the box
        why = (f": none of {draws} draws builds an airfoil at t_max = {t_max!r}"
               if failures == draws else "")
        raise RuntimeError(f"{what} generator produced {count}/{n} valid airfoils{why}")
    return np.concatenate(kept)


def seed_airfoils(n: int, seed: int = 0, t_max: float = T_MAX_DEFAULT,
                  m_inf: float = M_INF_DEFAULT) -> np.ndarray:
    """A deterministic (n, 14) seed set: perturbations of the base geometry
    at t_max, rejection-sampled so that every seed is a valid design."""
    kept = _evaluated("seed", seed, _SEED_SPREAD, t_max, _SEED_TRIES, n, m_inf,
                      keep=lambda cd, feats: is_valid_design(cd, feats.state, feats.no_shock))
    return kept[:, CST_COLS]


def generate_pool(n: int, seed: int = 0, t_max: float = T_MAX_DEFAULT,
                  m_inf: float = M_INF_DEFAULT, record: Counter | None = None) -> np.ndarray:
    """A sample table of n random proxy-evaluated airfoils, in the feature
    box or not; RuntimeError after 20 draws per sample.  `record` as in
    _evaluated."""
    return _evaluated("pool", seed, _POOL_SPREAD, t_max, _POOL_TRIES_PER_SAMPLE * n, n, m_inf,
                      record=record)
