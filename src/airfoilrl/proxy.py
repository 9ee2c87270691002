"""Deterministic pseudo-aerodynamics evaluator standing in for CFD.

Maps CST coefficients to a synthetic wall-Mach distribution and a drag
coefficient so the whole pipeline can run and be verified at desk
scale.  No aerodynamic fidelity is claimed; the shapes are chosen so
that bundled seed airfoils land inside the single-shock feature box
and bump actions can earn drag reductions of a few counts.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .features import WallMachDistribution, extract_features
from .geometry import AirfoilGeom, cosine_stations, cst_at_stations, make_airfoil
from .tables import CSV_COLUMNS, CST_COLS, is_valid_design


@dataclass(frozen=True)
class ProxyConfig:
    m_inf: float = 0.76
    gain_thickness: float = 6.0
    gain_slope: float = 0.12
    cd_base: float = 0.0095
    k_wave: float = 1.2
    k_err: float = 0.004
    smooth_halfwidth: int = 2
    # post-shock wall Mach the aft distribution is blended toward; an
    # absolute level inside the MwA box so seed airfoils stay valid
    m_post: float = 0.92
    blend_cells: int = 5


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


def proxy_distribution(cst14, config: ProxyConfig = ProxyConfig()) -> WallMachDistribution:
    """Synthetic wall-Mach distribution on the 201-station cosine grid.

    Upper signal: free stream plus thickness and adverse-slope terms,
    smoothed; downstream of the last supersonic-to-subsonic crossing
    the signal is recompressed toward m_post over a few stations,
    creating a shock-like step.  An (N, 14) block of coefficients gives
    (N, 201) mw_upper and mw_lower, one airfoil per row.
    """
    cst = np.asarray(cst14, dtype=float)
    block = np.reshape(cst, (-1, 14))
    x = cosine_stations()
    y_u = cst_at_stations(block[:, :7])
    y_l = cst_at_stations(block[:, 7:])
    dy = np.gradient(y_u, x, axis=1)
    u = (config.m_inf + config.gain_thickness * y_u
         + config.gain_slope * np.maximum(-dy, 0.0))
    u = _moving_average(u, config.smooth_halfwidth)
    n = u.shape[1]
    crossings = (u[:, :-1] >= 1.0) & (u[:, 1:] < 1.0)
    # the last crossing interval per row; n where there is none, so that
    # no station lies downstream of it
    ic = np.where(crossings.any(axis=1), n - 2 - np.argmax(crossings[:, ::-1], axis=1), n)
    # station j lies j - ic cells past the crossing
    cells = np.arange(n) - ic[:, None]
    w = np.minimum(cells / config.blend_cells, 1.0)
    u = np.where(cells > 0, (1.0 - w) * u + w * config.m_post, u)
    low = _moving_average(config.m_inf + 2.0 * (-y_l), config.smooth_halfwidth)
    if cst.ndim == 1:
        u, low = u[0], low[0]
    return WallMachDistribution(x_upper=x, mw_upper=u, x_lower=x,
                                mw_lower=low, m_inf=config.m_inf)


def proxy_evaluate(cst14, config: ProxyConfig = ProxyConfig()):
    """Drag coefficient and features for a CST geometry: a float and a
    FeatureSet of floats for (14,) coefficients, an (N,) array and a
    FeatureSet of (N,) arrays for an (N, 14) block.

    CD = cd_base + k_wave * max(Mw1 - 1, 0)^4 + k_err * Err; the wave
    term is the fourth-power shock-strength rule, zero when no shock.
    """
    feats = extract_features(proxy_distribution(cst14, config))
    mw1, no_shock = np.atleast_1d(feats.mw1).tolist(), np.atleast_1d(feats.no_shock).tolist()
    # Python's float power per row: np.power(x, 4) may round differently
    wave = np.array([0.0 if ns else max(m - 1.0, 0.0) ** 4 for m, ns in zip(mw1, no_shock)])
    cd = config.cd_base + config.k_wave * wave + config.k_err * np.atleast_1d(feats.err)
    return (cd[0].item() if np.ndim(cst14) == 1 else cd), feats


# base geometry the bundled seed generator perturbs: front-loaded upper
# surface giving a supersonic plateau near Mach 1.12 with a mid-chord
# recompression, leaving a few counts of removable wave drag
BASE_UPPER = np.array([0.1968, 0.1804, 0.164, 0.1558, 0.1394, 0.1312, 0.123])
BASE_LOWER = np.array([-0.100, -0.085, -0.070, -0.050, -0.025, 0.005, 0.015])
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


def _evaluated(rng, spread: float, t_max: float, tries: int, n: int,
               config: ProxyConfig, keep=None, record: Counter | None = None) -> np.ndarray:
    """A sample table (CSV_COLUMNS) of up to n random perturbations of
    the base geometry that build and pass keep(cd, feats), a row mask
    (all rows pass without it), from at most `tries` draws.  `record`
    receives the counts ``pool_draws``, ``build_failures`` (draws whose
    thickness make_airfoil cannot bracket), ``proxy_rows`` and
    ``proxy_blocks``.

    A block of up to _PROXY_BLOCK airfoils, no more than are still
    missing, is drawn as one (k, 2, 7) uniform array (the floats of k
    draws of 7 + 7), built by one make_airfoil call over lanes, topped up
    by drawing as many as failed, then evaluated by one proxy call.
    """
    kept = [np.empty((0, len(CSV_COLUMNS)))]
    count = draws = failures = rows = blocks = 0
    while count < n:
        want = min(_PROXY_BLOCK, n - count)
        block = np.empty((0, 14))
        while len(block) < want and draws < tries:
            k = min(want - len(block), tries - draws)
            d = rng.uniform(-spread, spread, (k, 2, 7))
            upper = BASE_UPPER + d[:, 0]
            lower, failed = make_airfoil(upper, BASE_LOWER + d[:, 1], np.full(k, t_max))
            draws += k
            failures += int(np.count_nonzero(failed))
            block = np.concatenate((block, np.hstack((upper, lower))[~failed]))
        if not len(block):
            break
        cd, feats = proxy_evaluate(block, config)
        rows += len(block)
        blocks += 1
        table = np.column_stack((block, cd, feats.state))
        kept.append(table if keep is None else table[keep(cd, feats)])
        count += len(kept[-1])
    if record is not None:
        record.update(pool_draws=draws, build_failures=failures, proxy_rows=rows,
                      proxy_blocks=blocks)
    return np.concatenate(kept)


def seed_airfoils(n: int, seed: int = 0, t_max: float = T_MAX_DEFAULT,
                  config: ProxyConfig = ProxyConfig()) -> list[AirfoilGeom]:
    """Deterministic seed set: perturbations of the base geometry,
    rejection-sampled so every seed is a valid design.  Each airfoil is
    evaluated once, in blocks, and no draw is wasted."""
    kept = _evaluated(np.random.default_rng(seed), _SEED_SPREAD, t_max, _SEED_TRIES, n,
                      config,
                      keep=lambda cd, feats: is_valid_design(cd, feats.state, feats.no_shock))
    out = [AirfoilGeom(row[:7], row[7:CST_COLS.stop], t_max) for row in kept]
    if len(out) < n:
        raise RuntimeError(f"seed generator produced {len(out)}/{n} valid airfoils")
    return out


def generate_pool(n: int, seed: int = 0, t_max: float = T_MAX_DEFAULT,
                  config: ProxyConfig = ProxyConfig(),
                  record: Counter | None = None) -> np.ndarray:
    """A sample table of random proxy-evaluated airfoils for surrogate
    training; rows may violate the feature box (selection filters
    later).  Gives up with RuntimeError after 20 draws per requested
    sample.  `record` receives the draw and proxy counts of the blocks
    (see _evaluated).
    """
    pool = _evaluated(np.random.default_rng(seed), _POOL_SPREAD, t_max,
                      _POOL_TRIES_PER_SAMPLE * n, n, config, record=record)
    if len(pool) < n:
        raise RuntimeError(f"pool generator produced {len(pool)}/{n} valid airfoils")
    return pool
