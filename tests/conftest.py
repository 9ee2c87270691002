"""Shared helpers for the test suite."""
import dataclasses

import numpy as np

from airfoilrl.features import FeatureSet, WallMachDistribution, extract_features
from airfoilrl.geometry import AirfoilGeom, apply_action, make_airfoil


def synthetic_profile(x1, mw1, mwl, mwa):
    """Piecewise-linear upper-surface wall Mach profile with prescribed
    suction peak, shock location, pre-shock Mach and post-shock maximum.

    Layout: peak mwl at x=0.05, valley from 0.15 to 0.2, ramp up to a
    flat plateau at mw1 ending 0.03 ahead of the shock, a sharp drop of
    width 0.004 centred on x1, a short post-shock shelf, a secondary
    acceleration up to mwa at x1+0.08 and a gentle decay to the trailing
    edge.  Returns a callable mw(x).
    """
    valley = min(mwl, mw1) - 0.2
    foot = mwa - 0.2
    plateau_start = x1 - 0.03
    shock_lo = x1 - 0.002
    shock_hi = x1 + 0.002
    shelf_end = x1 + 0.03
    bump_x = x1 + 0.08
    knots_x = np.array([0.0, 0.04, 0.06, 0.15, 0.2, plateau_start, shock_lo,
                        shock_hi, shelf_end, bump_x - 0.01, bump_x + 0.01, 1.0])
    knots_y = np.array([mwl - 0.3, mwl, mwl, valley, valley, mw1, mw1,
                        foot, foot, mwa, mwa, mwa - 0.1])

    def profile(x):
        return np.interp(np.asarray(x, dtype=float), knots_x, knots_y)

    return profile


def synthetic_distribution(x1, mw1, mwl, mwa, n=201, m_inf=0.76):
    profile = synthetic_profile(x1, mw1, mwl, mwa)
    x = np.linspace(0.0, 1.0, n)
    return WallMachDistribution(x_upper=x, mw_upper=profile(x),
                                x_lower=x, mw_lower=np.full(n, 0.7),
                                m_inf=m_inf)


def first_row(feats: FeatureSet) -> FeatureSet:
    """The features of a block's first row, as Python scalars."""
    return FeatureSet(*(getattr(feats, f.name)[0].item() for f in dataclasses.fields(FeatureSet)))


def features_of_one(dist: WallMachDistribution) -> FeatureSet:
    """extract_features of one distribution of 1-D Mach arrays, run as a
    block of one; its row as Python scalars."""
    return first_row(extract_features(dataclasses.replace(
        dist, mw_upper=dist.mw_upper[None], mw_lower=dist.mw_lower[None])))


def built_airfoil(upper, lower, t_max) -> AirfoilGeom | None:
    """make_airfoil on a lane of one: the airfoil, or None where the
    thickness cannot be bracketed."""
    new_lower, failed = make_airfoil(np.array([upper]), np.array([lower]), np.array([t_max]))
    return None if failed[0] else AirfoilGeom(np.array(upper, dtype=float), new_lower[0], t_max)


def modified_airfoil(foil: AirfoilGeom, action) -> AirfoilGeom | None:
    """apply_action on `foil` alone with the physical (t1, s_b, h_b)
    `action`: the modified airfoil, or None where the lane fails."""
    upper, lower, _, failed = apply_action(
        (foil.cst_upper[None], foil.cst_lower[None], np.array([foil.t_max])),
        np.array([action], dtype=float))
    return None if failed[0] else AirfoilGeom(upper[0], lower[0], foil.t_max)
