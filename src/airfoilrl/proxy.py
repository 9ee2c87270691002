"""Deterministic pseudo-aerodynamics evaluator standing in for CFD.

Maps CST coefficients to a synthetic wall-Mach distribution and a drag
coefficient so the whole pipeline can run and be verified at desk
scale.  No aerodynamic fidelity is claimed; the shapes are chosen so
that bundled seed airfoils land inside the single-shock feature box
and bump actions can earn drag reductions of a few counts.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from .features import WallMachDistribution, extract_features
from .geometry import cosine_stations, cst_at_stations, make_airfoil
from .tables import CSV_COLUMNS, CST_COLS, is_valid_design


# the model; a run sets only the free-stream Mach m_inf ([proxy]).  M_POST,
# an absolute post-shock level inside the MwA box, keeps seed airfoils valid
M_INF_DEFAULT = 0.76
GAIN_THICKNESS, GAIN_SLOPE, SMOOTH_HALFWIDTH = 6.0, 0.12, 2
M_POST, BLEND_CELLS = 0.92, 5
CD_BASE, K_WAVE, K_ERR = 0.0095, 1.2, 0.004


def _moving_average(v: np.ndarray, halfwidth: int) -> np.ndarray:
    """Mean of v[..., i-h : i+h+1] at each i of the last axis, the window
    cut at both ends.

    Each window is added left to right from 0.0, the order in which
    np.convolve sums short windows; for windows of up to 8 terms
    (halfwidth <= 3) that gives the same floats as np.mean, and longer
    windows may differ from it in the last bit, because np.mean switches
    to pairwise summation.
    """
    if halfwidth <= 0:
        return v.copy()
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
    """Synthetic wall-Mach distribution on the 201-station cosine grid.

    Upper signal: free stream plus thickness and adverse-slope terms,
    smoothed; downstream of the last supersonic-to-subsonic crossing
    the signal is recompressed toward M_POST over BLEND_CELLS stations,
    creating a shock-like step.  An (N, 14) block of coefficients (a
    (14,) vector is a block of one) gives (N, 201) mw_upper and
    mw_lower, one airfoil per row.
    """
    block = np.reshape(np.asarray(cst, dtype=float), (-1, 14))
    x = cosine_stations()
    y_u = cst_at_stations(block[:, :7])
    y_l = cst_at_stations(block[:, 7:])
    dy = np.gradient(y_u, x, axis=1)
    u = m_inf + GAIN_THICKNESS * y_u + GAIN_SLOPE * np.maximum(-dy, 0.0)
    u = _moving_average(u, SMOOTH_HALFWIDTH)
    n = u.shape[1]
    crossings = (u[:, :-1] >= 1.0) & (u[:, 1:] < 1.0)
    # the last crossing interval per row; n where there is none, so that
    # no station lies downstream of it
    ic = np.where(crossings.any(axis=1), n - 2 - np.argmax(crossings[:, ::-1], axis=1), n)
    # station j lies j - ic cells past the crossing
    cells = np.arange(n) - ic[:, None]
    w = np.minimum(cells / BLEND_CELLS, 1.0)
    u = np.where(cells > 0, (1.0 - w) * u + w * M_POST, u)
    low = _moving_average(m_inf + 2.0 * (-y_l), SMOOTH_HALFWIDTH)
    return WallMachDistribution(x_upper=x, mw_upper=u, x_lower=x, mw_lower=low, m_inf=m_inf)


def proxy_evaluate(cst, m_inf: float = M_INF_DEFAULT):
    """Drag coefficients and features of an (N, 14) block of CST
    geometries (a (14,) vector is a block of one): an (N,) array and a
    FeatureSet of (N,) arrays.

    CD = CD_BASE + K_WAVE * max(Mw1 - 1, 0)^4 + K_ERR * Err; the wave
    term is the fourth-power shock-strength rule, zero when no shock.
    """
    feats = extract_features(proxy_distribution(cst, m_inf))
    # Python's float power per row: np.power(x, 4) may round differently
    wave = np.array([0.0 if ns else max(m - 1.0, 0.0) ** 4
                     for m, ns in zip(feats.mw1.tolist(), feats.no_shock.tolist())])
    return CD_BASE + K_WAVE * wave + K_ERR * feats.err, feats


# base geometry the bundled seed generator perturbs: front-loaded upper
# surface giving a supersonic plateau near Mach 1.12 with a mid-chord
# recompression, leaving a few counts of removable wave drag
BASE_CST = np.array([0.1968, 0.1804, 0.164, 0.1558, 0.1394, 0.1312, 0.123,
                     -0.100, -0.085, -0.070, -0.050, -0.025, 0.005, 0.015])
T_MAX_DEFAULT = 0.095


# airfoils evaluated per proxy call; blocks this small keep
# the buffered distributions from raising the process's peak memory
_PROXY_BLOCK = 32

# generate_pool's draws per requested sample before it gives up; about
# 1% of draws at the pool's spread fail to build an airfoil
_POOL_TRIES_PER_SAMPLE = 20
_POOL_SPREAD = 0.08  # half-width of the uniform draw around each base coefficient
_SEED_SPREAD = 0.008  # narrow, so that most seed draws are valid designs
_SEED_TRIES = 20000


def _evaluated(what: str, seed: int, spread: float, t_max: float, tries: int, n: int,
               m_inf: float, keep=None, record: Counter | None = None) -> np.ndarray:
    """A sample table (CSV_COLUMNS) of n random perturbations of the base
    geometry that build and pass keep(cd, feats), a row mask (all rows
    pass without it), from at most `tries` draws of the seeded
    generator; RuntimeError from the `what` generator if fewer pass.
    `record` receives the counts ``pool_draws``, ``build_failures``
    (draws whose thickness make_airfoil cannot bracket), ``proxy_rows``
    and ``proxy_blocks``.

    A block of up to _PROXY_BLOCK airfoils, no more than are still
    missing, is drawn as one (k, 14) uniform array (the floats of k
    draws of 14), built by one make_airfoil call over lanes, topped up
    by drawing as many as failed, then evaluated by one proxy call.
    """
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
    """Deterministic seed set, an (n, 14) array: perturbations of the
    base geometry at t_max, rejection-sampled so every seed is a valid
    design.  Each airfoil is evaluated once, in blocks, and no draw is
    wasted."""
    kept = _evaluated("seed", seed, _SEED_SPREAD, t_max, _SEED_TRIES, n, m_inf,
                      keep=lambda cd, feats: is_valid_design(cd, feats.state, feats.no_shock))
    return kept[:, CST_COLS]


def generate_pool(n: int, seed: int = 0, t_max: float = T_MAX_DEFAULT,
                  m_inf: float = M_INF_DEFAULT, record: Counter | None = None) -> np.ndarray:
    """A sample table of random proxy-evaluated airfoils for surrogate
    training; rows may violate the feature box (selection filters
    later).  Gives up with RuntimeError after 20 draws per requested
    sample.  `record` receives the draw and proxy counts of the blocks
    (see _evaluated).
    """
    return _evaluated("pool", seed, _POOL_SPREAD, t_max, _POOL_TRIES_PER_SAMPLE * n, n, m_inf,
                      record=record)
