"""Proxy aerodynamics oracle tests."""
import numpy as np
import pytest

from airfoilrl.proxy import (BASE_CST, T_MAX_DEFAULT, generate_pool, proxy_distribution,
                             proxy_evaluate, seed_airfoils)
from airfoilrl.tables import CST_COLS, OUTPUT_COLS, in_feature_bounds
from conftest import built_airfoil, modified_airfoil


@pytest.fixture(scope="module")
def base_airfoil():
    return built_airfoil(BASE_CST, T_MAX_DEFAULT)


def proxy_outputs(cst):
    """(N, 5) output rows of an (N, 14) block."""
    cd, feats = proxy_evaluate(cst)
    return np.column_stack((cd, feats.state))


def test_base_airfoil_in_feature_box(base_airfoil):
    assert in_feature_bounds(proxy_outputs(base_airfoil[None])).tolist() == [True]


def test_proxy_distribution_shapes(base_airfoil):
    dist = proxy_distribution(base_airfoil[None])
    assert dist.mw_upper.shape == dist.mw_lower.shape == (1, dist.x_upper.size)
    assert np.all(np.diff(dist.x_upper) > 0.0)
    assert np.all(dist.mw_upper > 0.0)
    assert dist.m_inf == 0.76


def test_proxy_cd_positive_and_finite(base_airfoil):
    cd, feats = proxy_evaluate(base_airfoil[None])
    assert cd.shape == feats.no_shock.shape == (1,)
    assert np.isfinite(cd[0]) and cd[0] > 0.0
    assert not feats.no_shock[0]


def test_proxy_deterministic(base_airfoil):
    a = proxy_evaluate(base_airfoil[None])
    b = proxy_evaluate(base_airfoil[None])
    assert a[0].tobytes() == b[0].tobytes()
    assert a[1].state.tobytes() == b[1].state.tobytes()


def test_proxy_continuity(base_airfoil):
    rng = np.random.default_rng(0)
    cd0, _ = proxy_evaluate(base_airfoil[None])
    cd1, _ = proxy_evaluate(base_airfoil + rng.uniform(-1e-6, 1e-6, (100, 14)))
    assert np.count_nonzero(np.abs(cd1 - cd0) < 1e-6) >= 95


def test_seed_airfoils_all_in_box():
    block = seed_airfoils(10, seed=0)
    assert in_feature_bounds(proxy_outputs(block)).all()


def test_seed_airfoils_deterministic():
    a = seed_airfoils(5, seed=7)
    b = seed_airfoils(5, seed=7)
    assert a.shape == (5, 14) and np.array_equal(a, b)


def test_reward_structure_nondegenerate():
    # some bump action strictly reduces proxy drag on every seed airfoil
    actions = [(t1, 0.3, h)
               for t1 in (0.3, 0.45, 0.6, 0.75) for h in (-0.008, -0.004, 0.004)]
    for foil in seed_airfoils(10, seed=0):
        cd0 = proxy_evaluate(foil[None])[0][0]
        improved = False
        for action in actions:
            new = modified_airfoil(foil, T_MAX_DEFAULT, action)
            if new is None:
                continue
            cd1, feats = proxy_evaluate(new[None])
            if not feats.no_shock[0] and cd1[0] < cd0:
                improved = True
                break
        assert improved


def test_generate_pool_size_and_determinism():
    a = generate_pool(30, seed=2)
    b = generate_pool(30, seed=2)
    assert len(a) == 30
    for ra, rb in zip(a, b):
        assert np.array_equal(ra[CST_COLS], rb[CST_COLS])
        assert np.array_equal(ra[OUTPUT_COLS], rb[OUTPUT_COLS])


def test_drag_model_penalizes_strong_shocks(base_airfoil):
    cd_weak, _ = proxy_evaluate(base_airfoil[None])
    # a thicker upper surface: the thickness term of 1.15 times the gain
    thick = base_airfoil * np.repeat([1.15, 1.0], 7)
    cd_strong, feats = proxy_evaluate(thick[None])
    assert feats.mw1[0] > 1.0
    assert cd_strong[0] > cd_weak[0]


def test_seed_airfoils_evaluates_each_candidate_once(monkeypatch):
    import airfoilrl.proxy as proxy
    built, evaluated = [0], [0]
    make, distribution = proxy.make_airfoil, proxy.proxy_distribution

    def counting_make(*args, **kwargs):
        lower, failed = make(*args, **kwargs)
        built[0] += len(failed) - np.count_nonzero(failed)
        return lower, failed

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
