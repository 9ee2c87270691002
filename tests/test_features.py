"""Feature extraction tests against synthetic wall Mach distributions."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from airfoilrl.features import (FeatureError, NonphysicalPressureError,
                                WallMachDistribution, cp_to_wall_mach,
                                extract_features, is_single_shock,
                                read_distribution, write_distribution)
from conftest import features_of_one, synthetic_distribution


def test_cp_zero_recovers_freestream():
    for m_inf in (0.6, 0.73, 0.76, 0.8):
        assert abs(cp_to_wall_mach(0.0, m_inf) - m_inf) < 1e-12


def test_cp_to_wall_mach_decreasing_in_cp():
    cp = np.linspace(-1.2, 0.4, 200)
    mw = cp_to_wall_mach(cp, 0.76)
    assert np.all(np.diff(mw) < 0.0)


def test_nonphysical_pressure_raises():
    with pytest.raises(NonphysicalPressureError):
        cp_to_wall_mach(-3.0, 0.9)


def test_stagnation_cp_gives_zero_mach():
    m_inf = 0.76
    p0 = (1.0 + 0.2 * m_inf**2) ** 3.5
    cp_stag = (p0 - 1.0) / (0.7 * m_inf**2)
    assert cp_to_wall_mach(cp_stag, m_inf) == 0.0


def test_prescribed_features_recovered():
    dist = synthetic_distribution(0.55, 1.15, 1.2, 1.0)
    feats = features_of_one(dist)
    dx = 1.0 / 200
    assert abs(feats.x1 - 0.55) <= dx
    assert abs(feats.mw1 - 1.15) < 1e-3
    assert abs(feats.mwl - 1.2) < 1e-3
    assert abs(feats.mwa - 1.0) < 1e-3
    assert not feats.no_shock
    assert is_single_shock(feats)


def test_refinement_invariance():
    coarse = features_of_one(synthetic_distribution(0.4, 1.1, 1.05, 0.95))
    fine = features_of_one(synthetic_distribution(0.4, 1.1, 1.05, 0.95, n=401))
    assert abs(coarse.x1 - fine.x1) <= 1.0 / 200
    assert abs(coarse.mw1 - fine.mw1) < 1e-3
    assert abs(coarse.mwl - fine.mwl) < 1e-3
    assert abs(coarse.mwa - fine.mwa) < 1e-3


def test_no_shock_flag_subsonic():
    x = np.linspace(0.0, 1.0, 201)
    mw = 0.8 - 0.1 * x
    dist = WallMachDistribution(x, mw, x, mw, 0.76)
    feats = features_of_one(dist)
    assert feats.no_shock
    assert not is_single_shock(feats)


def test_no_shock_flag_smooth_supersonic():
    # supersonic plateau with a gentle recompression below the drop floor
    x = np.linspace(0.0, 1.0, 201)
    mw = 1.05 - 0.04 * x
    dist = WallMachDistribution(x, mw, x, np.full(201, 0.7), 0.76)
    assert features_of_one(dist).no_shock


def test_too_few_stations_raises():
    x = np.linspace(0.0, 1.0, 10)
    dist = WallMachDistribution(x, np.ones((1, 10)), x, np.ones((1, 10)), 0.76)
    with pytest.raises(FeatureError):
        extract_features(dist)


def test_nonmonotone_stations_raise():
    x = np.linspace(0.0, 1.0, 30)
    x[5] = x[7]
    dist = WallMachDistribution(x, np.ones((1, 30)), x, np.ones((1, 30)), 0.76)
    with pytest.raises(FeatureError):
        extract_features(dist)


def test_single_distribution_is_not_a_block():
    x = np.linspace(0.0, 1.0, 30)
    dist = WallMachDistribution(x, np.ones(30), x, np.ones(30), 0.76)
    with pytest.raises(FeatureError, match=r"\(N, 30\) block, got \(30,\)"):
        extract_features(dist)


def test_err_zero_for_straight_plateau():
    # plateau exactly on the chord line between peak and pre-shock point
    feats = features_of_one(synthetic_distribution(0.5, 1.1, 1.1, 0.95))
    assert feats.err >= 0.0


def test_state_vector_layout():
    feats = features_of_one(synthetic_distribution(0.5, 1.12, 1.18, 0.98))
    s = feats.state
    assert s.shape == (4,)
    assert s[0] == feats.x1 and s[1] == feats.mw1
    assert s[2] == feats.mwl and s[3] == feats.mwa


def test_distribution_file_round_trip(tmp_path):
    dist = synthetic_distribution(0.5, 1.1, 1.15, 0.95)
    path = tmp_path / "dist.txt"
    write_distribution(path, dist)
    back = read_distribution(path)
    assert np.array_equal(back.x_upper, dist.x_upper)
    assert np.array_equal(back.mw_upper, dist.mw_upper)
    assert back.m_inf == dist.m_inf


def test_read_distribution_cp_kind(tmp_path):
    path = tmp_path / "cp.txt"
    with open(path, "w") as fh:
        fh.write("# kind=cp m_inf=0.76\n")
        for xi in np.linspace(0.0, 1.0, 25):
            fh.write(f"{float(xi)!r} 0.0 0\n")
            fh.write(f"{float(xi)!r} 0.0 1\n")
    dist = read_distribution(path)
    assert np.allclose(dist.mw_upper, 0.76)


@pytest.mark.parametrize("header,surface,match", [
    ("# kind=Cp m_inf=0.76", "0", "'Cp'"),
    ("# kind=mw m_inf=0.76", "2", "surface id"),
    # a row that is not three numbers names the file and the line
    ("# kind=mw m_inf=0.76", "", "typo.txt, line 3: expected 'x value surface_id'"),
    ("# kind=mw m_inf=0.76", "upper", "typo.txt, line 3: .*'0.5 1.0 upper'"),
    ("# kind=mw m_inf=0.76", "0 7", "typo.txt, line 3"),
    # every other error names the file, and the line where one is at fault
    ("# kind=mw m_inf=abc", "0", "typo.txt, line 1: m_inf must be a number, got 'm_inf=abc'"),
    ("# kind=xx m_inf=0.76", "0", "typo.txt, line 1: unknown distribution kind 'xx'"),
    ("# kind=mw m_inf=0.76", "3", "typo.txt, line 3: surface id must be 0 .* got 3"),
    ("# kind=mw", "0", "typo.txt: the header must declare m_inf"),
])
def test_read_distribution_rejects_typos(tmp_path, header, surface, match):
    path = tmp_path / "typo.txt"
    path.write_text(f"{header}\n0.0 1.0 0\n0.5 1.0 {surface}\n1.0 1.0 1\n")
    with pytest.raises(FeatureError, match=match):
        read_distribution(path)


@pytest.mark.parametrize("header,row,match", [
    ("# kind=cp m_inf=nan", "0.5 0.0 0", "line 1: m_inf must be finite, got nan"),
    ("# kind=cp m_inf=inf", "0.5 0.0 0", "line 1: m_inf must be finite, got inf"),
    ("# kind=mw m_inf=0.76", "nan 1.0 0", "line 3: x and value must be finite"),
    ("# kind=mw m_inf=0.76", "0.5 -inf 0", "line 3: x and value must be finite"),
])
def test_read_distribution_rejects_non_finite_numbers(tmp_path, header, row, match):
    path = tmp_path / "odd.txt"
    path.write_text(f"{header}\n0.0 1.0 0\n{row}\n1.0 1.0 1\n")
    with pytest.raises(FeatureError, match=f"odd.txt, {match}"):
        read_distribution(path)


@given(x1=st.floats(0.3, 0.8), mw1=st.floats(1.0, 1.2),
       mwl=st.floats(1.0, 1.3), mwa=st.floats(0.9, 1.1))
@settings(max_examples=40, deadline=None)
def test_feature_round_trip_property(x1, mw1, mwl, mwa):
    feats = features_of_one(synthetic_distribution(x1, mw1, mwl, mwa))
    assert abs(feats.x1 - x1) <= 1.0 / 200
    assert abs(feats.mw1 - mw1) < 1e-3
    assert abs(feats.mwl - mwl) < 1e-3
    assert abs(feats.mwa - mwa) < 1e-3
