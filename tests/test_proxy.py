"""Proxy aerodynamics oracle tests."""
import numpy as np
import pytest
from dataclasses import replace

from airfoilrl.geometry import BumpAction, GeometryError, apply_action, make_airfoil
from airfoilrl.proxy import (BASE_LOWER, BASE_UPPER, T_MAX_DEFAULT,
                             ProxyConfig, generate_pool, proxy_distribution,
                             proxy_evaluate, seed_airfoils)
from airfoilrl.surrogate import OUTPUT_NAMES, in_feature_bounds


@pytest.fixture(scope="module")
def base_airfoil():
    return make_airfoil(BASE_UPPER, BASE_LOWER, T_MAX_DEFAULT)


def proxy_outputs(cst14):
    cd, feats = proxy_evaluate(cst14)
    return dict(zip(OUTPUT_NAMES, (cd, feats.x1, feats.mw1, feats.mwl, feats.mwa)))


def test_base_airfoil_in_feature_box(base_airfoil):
    assert in_feature_bounds(proxy_outputs(base_airfoil.cst14))


def test_proxy_distribution_shapes(base_airfoil):
    dist = proxy_distribution(base_airfoil.cst14)
    assert dist.x_upper.size == dist.mw_upper.size
    assert np.all(np.diff(dist.x_upper) > 0.0)
    assert np.all(dist.mw_upper > 0.0)
    assert dist.m_inf == 0.76


def test_proxy_cd_positive_and_finite(base_airfoil):
    cd, feats = proxy_evaluate(base_airfoil.cst14)
    assert np.isfinite(cd) and cd > 0.0
    assert not feats.no_shock


def test_proxy_deterministic(base_airfoil):
    a = proxy_evaluate(base_airfoil.cst14)
    b = proxy_evaluate(base_airfoil.cst14)
    assert a[0] == b[0]
    assert np.array_equal(a[1].state, b[1].state)


def test_proxy_continuity(base_airfoil):
    rng = np.random.default_rng(0)
    cd0, _ = proxy_evaluate(base_airfoil.cst14)
    ok = 0
    for _ in range(100):
        pert = base_airfoil.cst14 + rng.uniform(-1e-6, 1e-6, 14)
        cd1, _ = proxy_evaluate(pert)
        if abs(cd1 - cd0) < 1e-6:
            ok += 1
    assert ok >= 95


def test_seed_airfoils_all_in_box():
    for foil in seed_airfoils(10, seed=0):
        assert in_feature_bounds(proxy_outputs(foil.cst14))


def test_seed_airfoils_deterministic():
    a = seed_airfoils(5, seed=7)
    b = seed_airfoils(5, seed=7)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.cst14, fb.cst14)


def test_reward_structure_nondegenerate():
    # some bump action strictly reduces proxy drag on every seed airfoil
    actions = [BumpAction(t1, 0.3, h)
               for t1 in (0.3, 0.45, 0.6, 0.75) for h in (-0.008, -0.004, 0.004)]
    for foil in seed_airfoils(10, seed=0):
        cd0, _ = proxy_evaluate(foil.cst14)
        improved = False
        for action in actions:
            try:
                new = apply_action(foil, action)
            except GeometryError:
                continue
            cd1, feats = proxy_evaluate(new.cst14)
            if not feats.no_shock and cd1 < cd0:
                improved = True
                break
        assert improved


def test_generate_pool_size_and_determinism():
    a = generate_pool(30, seed=2)
    b = generate_pool(30, seed=2)
    assert len(a) == 30
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.cst14, rb.cst14)
        assert ra.outputs == rb.outputs


def test_drag_model_penalizes_strong_shocks(base_airfoil):
    cfg = ProxyConfig()
    cd_weak, _ = proxy_evaluate(base_airfoil.cst14, cfg)
    hot = replace(cfg, gain_thickness=cfg.gain_thickness * 1.15)
    cd_strong, feats = proxy_evaluate(base_airfoil.cst14, hot)
    assert feats.mw1 > 1.0
    assert cd_strong > cd_weak


def test_seed_airfoils_evaluates_each_candidate_once(monkeypatch):
    import airfoilrl.proxy as proxy
    built, evaluated = [0], [0]
    make, distribution = proxy.make_airfoil, proxy.proxy_distribution

    def counting_make(*args, **kwargs):
        foil = make(*args, **kwargs)
        built[0] += 1
        return foil

    def counting_distribution(cst, *args, **kwargs):
        evaluated[0] += len(np.atleast_2d(cst))
        return distribution(cst, *args, **kwargs)

    monkeypatch.setattr(proxy, "make_airfoil", counting_make)
    monkeypatch.setattr(proxy, "proxy_distribution", counting_distribution)
    seed_airfoils(3, seed=0)
    assert evaluated[0] == built[0] > 0


def test_generate_pool_gives_up_when_no_geometry_builds():
    # no lower-surface scale factor reaches this thickness, so every draw fails
    with pytest.raises(RuntimeError, match="0/3"):
        generate_pool(3, t_max=10.0)
