"""Deterministic pseudo-aerodynamics evaluator standing in for CFD.

Maps CST coefficients to a synthetic wall-Mach distribution and a drag
coefficient so the whole pipeline can run and be verified at desk
scale.  No aerodynamic fidelity is claimed; the shapes are chosen so
that bundled seed airfoils land inside the single-shock feature box
and bump actions can earn drag reductions of a few counts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FeatureSet, WallMachDistribution, extract_features
from .geometry import (AirfoilGeom, GeometryError, cosine_stations,
                       cst_at_stations, make_airfoil)
from .surrogate import OUTPUT_NAMES, SampleRecord, in_feature_bounds


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
    """Mean of v[i-h : i+h+1] at each i, the window cut at both ends.

    Each window is summed in order by np.convolve, which for windows of
    up to 8 terms (halfwidth <= 3) gives the same floats as np.mean;
    longer windows may differ from it in the last bit, because np.mean
    switches to pairwise summation.
    """
    if halfwidth <= 0:
        return v.copy()
    n = v.size
    kernel = np.ones(2 * halfwidth + 1)
    # np.convolve swaps its arguments when the kernel is the longer one,
    # which sums each window backwards; zero tails keep v the longer
    tail = np.zeros(max(kernel.size - n, 0))

    def window_sums(a: np.ndarray) -> np.ndarray:
        return np.convolve(np.concatenate([a, tail]), kernel, "same")[:n]

    return window_sums(v) / window_sums(np.ones(n))


def proxy_distribution(cst14, config: ProxyConfig = ProxyConfig()) -> WallMachDistribution:
    """Synthetic wall-Mach distribution on the 201-station cosine grid.

    Upper signal: free stream plus thickness and adverse-slope terms,
    smoothed; downstream of the last supersonic-to-subsonic crossing
    the signal is recompressed toward m_post over a few stations,
    creating a shock-like step.
    """
    cst14 = np.asarray(cst14, dtype=float)
    x = cosine_stations()
    y_u = cst_at_stations(cst14[:7])
    y_l = cst_at_stations(cst14[7:])
    dy = np.gradient(y_u, x)
    u = (config.m_inf + config.gain_thickness * y_u
         + config.gain_slope * np.maximum(-dy, 0.0))
    u = _moving_average(u, config.smooth_halfwidth)
    crossings = np.nonzero((u[:-1] >= 1.0) & (u[1:] < 1.0))[0]
    if crossings.size:
        ic = int(crossings[-1])
        k = np.arange(u.size - ic - 1, dtype=float)
        w = np.minimum((k + 1.0) / config.blend_cells, 1.0)
        u[ic + 1:] = (1.0 - w) * u[ic + 1:] + w * config.m_post
    low = _moving_average(config.m_inf + 2.0 * (-y_l), config.smooth_halfwidth)
    return WallMachDistribution(x_upper=x, mw_upper=u, x_lower=x,
                                mw_lower=low, m_inf=config.m_inf)


def proxy_evaluate(cst14, config: ProxyConfig = ProxyConfig()) -> tuple[float, FeatureSet]:
    """Drag coefficient and features for a CST geometry.

    CD = cd_base + k_wave * max(Mw1 - 1, 0)^4 + k_err * Err; the wave
    term is the fourth-power shock-strength rule, zero when no shock.
    """
    feats = extract_features(proxy_distribution(cst14, config))
    wave = 0.0 if feats.no_shock else max(feats.mw1 - 1.0, 0.0) ** 4
    cd = config.cd_base + config.k_wave * wave + config.k_err * feats.err
    return cd, feats


def _outputs(cd: float, feats: FeatureSet) -> dict:
    return dict(zip(OUTPUT_NAMES, (cd, feats.x1, feats.mw1, feats.mwl, feats.mwa)))


def proxy_sample(cst14, config: ProxyConfig = ProxyConfig()) -> SampleRecord:
    cd, feats = proxy_evaluate(cst14, config)
    return SampleRecord(cst14=np.asarray(cst14, dtype=float).copy(),
                        outputs=_outputs(cd, feats))


# base geometry the bundled seed generator perturbs: front-loaded upper
# surface giving a supersonic plateau near Mach 1.12 with a mid-chord
# recompression, leaving a few counts of removable wave drag
BASE_UPPER = np.array([0.1968, 0.1804, 0.164, 0.1558, 0.1394, 0.1312, 0.123])
BASE_LOWER = np.array([-0.100, -0.085, -0.070, -0.050, -0.025, 0.005, 0.015])
T_MAX_DEFAULT = 0.095


def seed_airfoils(n: int, seed: int = 0, spread: float = 0.008,
                  t_max: float = T_MAX_DEFAULT,
                  config: ProxyConfig = ProxyConfig(),
                  max_tries: int = 20000) -> list[AirfoilGeom]:
    """Deterministic seed set: perturbations of the base geometry,
    rejection-sampled so every seed lands inside the feature box."""
    rng = np.random.default_rng(seed)
    out: list[AirfoilGeom] = []
    for _ in range(max_tries):
        if len(out) >= n:
            break
        upper = BASE_UPPER + rng.uniform(-spread, spread, 7)
        lower = BASE_LOWER + rng.uniform(-spread, spread, 7)
        try:
            foil = make_airfoil(upper, lower, t_max)
        except GeometryError:
            continue
        cd, feats = proxy_evaluate(foil.cst14, config)
        if not feats.no_shock and in_feature_bounds(_outputs(cd, feats)):
            out.append(foil)
    if len(out) < n:
        raise RuntimeError(f"seed generator produced {len(out)}/{n} valid airfoils")
    return out


# generate_pool's draws per requested sample before it gives up; about
# 1% of draws at the default spread fail to build an airfoil
_POOL_TRIES_PER_SAMPLE = 20


def generate_pool(n: int, seed: int = 0, spread: float = 0.08,
                  t_max: float = T_MAX_DEFAULT,
                  config: ProxyConfig = ProxyConfig()) -> list[SampleRecord]:
    """Random proxy-evaluated airfoils for surrogate training; rows may
    violate the feature box (selection filters later).  Gives up with
    RuntimeError after 20 draws per requested sample."""
    rng = np.random.default_rng(seed)
    pool: list[SampleRecord] = []
    for _ in range(_POOL_TRIES_PER_SAMPLE * n):
        if len(pool) >= n:
            break
        upper = BASE_UPPER + rng.uniform(-spread, spread, 7)
        lower = BASE_LOWER + rng.uniform(-spread, spread, 7)
        try:
            foil = make_airfoil(upper, lower, t_max)
        except GeometryError:
            continue
        pool.append(proxy_sample(foil.cst14, config))
    if len(pool) < n:
        raise RuntimeError(f"pool generator produced {len(pool)}/{n} valid airfoils")
    return pool
