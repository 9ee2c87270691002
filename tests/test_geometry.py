"""Geometry unit tests: CST evaluation/fitting, bumps, thickness."""
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from airfoilrl import geometry as g
from airfoilrl.geometry import (GeometryError, bump_y, cosine_stations,
                                cst_evaluate, cst_fit, make_airfoil, max_thickness,
                                measure_bump_width, solve_t2)
from airfoilrl.proxy import BASE_LOWER, BASE_UPPER, T_MAX_DEFAULT
from conftest import built_airfoil, modified_airfoil


def test_cosine_stations_endpoints_and_monotone():
    x = cosine_stations()
    assert x[0] == 0.0
    assert x[-1] == 1.0
    assert np.all(np.diff(x) > 0.0)
    assert x.size == g.N_STATIONS
    # clustered toward the leading edge
    assert x[1] < 1.0 / g.N_STATIONS


def test_cst_evaluate_class_function_zeros():
    coeffs = np.linspace(0.1, 0.3, 7)
    y = cst_evaluate(coeffs, np.array([0.0, 1.0]))
    assert y[0] == 0.0
    assert y[1] == 0.0


def test_cst_evaluate_single_coefficient():
    # with only c_0 active the shape function is binom(6,0)(1-x)^6
    x = np.array([0.3])
    coeffs = np.zeros(7)
    coeffs[0] = 0.2
    expected = 0.2 * np.sqrt(0.3) * (0.7) * (0.7 ** 6)
    assert abs(cst_evaluate(coeffs, x)[0] - expected) < 1e-15


def test_cst_fit_round_trip():
    rng = np.random.default_rng(3)
    x = cosine_stations(101)
    for _ in range(20):
        coeffs = rng.uniform(0.05, 0.4, 7)
        fitted = cst_fit(x, cst_evaluate(coeffs, x))
        assert np.max(np.abs(fitted - coeffs)) < 1e-8


@pytest.mark.parametrize("rows", [1, 30, 64])
@pytest.mark.parametrize("x", [g._STATIONS, cosine_stations(101)], ids=["cached", "101"])
def test_cst_fit_block_equals_its_rows_fitted_alone(rows, x):
    rng = np.random.default_rng(rows)
    curves = np.array([cst_evaluate(c, x) for c in rng.uniform(0.05, 0.4, (rows, 7))]) \
        + rng.normal(0.0, 1e-3, (rows, x.size))
    block = cst_fit(x, curves)
    assert block.shape == (rows, 7) and block.flags.c_contiguous
    assert block.tobytes() == np.array([cst_fit(x, row) for row in curves]).tobytes()


def test_cst_fit_rejects_degenerate_grid():
    x = np.zeros(10)
    with pytest.raises(GeometryError):
        cst_fit(x, np.zeros(10))


def test_bump_peak_identity():
    for t1 in (0.1, 0.3, 0.5, 0.7, 0.9):
        for t2 in (0.5, 1.0, 3.0, 40.0):
            assert abs(bump_y(t1, t2, 0.01, np.array([t1]))[0] - 0.01) < 1e-12


def test_bump_end_zeros():
    x = np.array([0.0, 1.0])
    y = bump_y(0.4, 2.0, 0.05, x)
    assert abs(y[0]) < 1e-12
    assert abs(y[1]) < 1e-12


def test_bump_negative_height():
    y = bump_y(0.5, 1.0, -0.02, np.array([0.5]))
    assert abs(y[0] + 0.02) < 1e-12


@given(t1=st.floats(0.2, 0.8), s_b=st.floats(0.2, 0.4))
@settings(max_examples=40, deadline=None)
def test_solve_t2_width_property(t1, s_b):
    t2, clamped = solve_t2(np.array([t1]), np.array([s_b]))
    if not clamped[0]:
        assert abs(measure_bump_width(t1, t2[0]) - s_b) < 1e-6


def test_solve_t2_truncated_flank_is_clamped():
    # rear 1%-height crossing would sit beyond the trailing edge
    _, clamped = solve_t2(np.array([0.95]), np.array([0.4]))
    assert clamped[0]


def test_width_monotone_in_t2():
    widths = [measure_bump_width(0.5, t2) for t2 in (0.5, 1.0, 2.0, 8.0)]
    assert all(a > b for a, b in zip(widths, widths[1:]))


def test_max_thickness_of_reference_airfoil():
    foil = built_airfoil(BASE_UPPER, BASE_LOWER, T_MAX_DEFAULT)
    assert abs(max_thickness(foil) - T_MAX_DEFAULT) < 1e-6


def test_make_airfoil_unbracketable_raises(tmp_path):
    thick = np.full(7, 0.6)
    lower, failed = make_airfoil(thick[None], -thick[None], np.array([0.01]))
    assert failed[0] and np.array_equal(lower[0], -thick)
    path = tmp_path / "thick.cst"
    g.write_cst_file(path, g.AirfoilGeom(thick, -thick, 0.01))
    with pytest.raises(GeometryError, match=re.escape(f"{path}: cannot bracket thickness")):
        g.read_cst_file(path)


def test_apply_action_conserves_thickness():
    foil = built_airfoil(BASE_UPPER, BASE_LOWER, T_MAX_DEFAULT)
    rng = np.random.default_rng(11)
    for _ in range(50):
        new = modified_airfoil(foil, (rng.uniform(0.05, 0.95), rng.uniform(0.2, 0.4),
                                      rng.uniform(-0.01, 0.01)))
        assert abs(max_thickness(new) - T_MAX_DEFAULT) < 1e-6
        assert new.t_max == foil.t_max


def test_apply_action_moves_surface_toward_bump():
    foil = built_airfoil(BASE_UPPER, BASE_LOWER, T_MAX_DEFAULT)
    new = modified_airfoil(foil, (0.5, 0.3, -0.01))
    x = np.array([0.5])
    assert g.cst_evaluate(new.cst_upper, x)[0] < g.cst_evaluate(foil.cst_upper, x)[0]


def test_cst14_layout():
    foil = built_airfoil(BASE_UPPER, BASE_LOWER, T_MAX_DEFAULT)
    assert np.allclose(foil.cst14[:7], foil.cst_upper)
    assert np.allclose(foil.cst14[7:], foil.cst_lower)


def test_coordinate_file_round_trip(tmp_path):
    foil = built_airfoil(BASE_UPPER, BASE_LOWER, T_MAX_DEFAULT)
    path = tmp_path / "foil.dat"
    g.write_coordinates(path, foil)
    x, y = g.read_coordinates(path)
    assert x.size == y.size
    # Selig order runs TE -> LE -> TE
    assert x[0] == 1.0 and x[-1] == 1.0
    assert np.min(x) == 0.0


def test_cst_file_round_trip(tmp_path):
    foil = built_airfoil(BASE_UPPER, BASE_LOWER, T_MAX_DEFAULT)
    path = tmp_path / "foil.cst"
    g.write_cst_file(path, foil)
    back = g.read_cst_file(path)
    assert np.array_equal(back.cst_upper, foil.cst_upper)
    assert np.array_equal(back.cst_lower, foil.cst_lower)
    assert back.t_max == foil.t_max


@pytest.mark.parametrize("text,match", [
    ("0.1 x" + " 0.1" * 12 + "\n0.095\n", "line 1: expected 14 CST coefficients"),
    ("0.1" + " 0.1" * 12 + "\n0.095\n", "line 1: expected 14 CST coefficients"),
    ("0.1" + " 0.1" * 13 + "\n", "line 2: expected t_max, got ''"),
    ("0.1" + " 0.1" * 13 + "\nthin\n", "line 2: expected t_max, got 'thin'"),
])
def test_cst_file_errors_name_the_file_and_line(tmp_path, text, match):
    path = tmp_path / "bad.cst"
    path.write_text(text)
    with pytest.raises(GeometryError, match=re.escape(f"{path}, {match}")):
        g.read_cst_file(path)


def test_coordinate_file_errors_name_the_file_and_line(tmp_path):
    path = tmp_path / "bad.dat"
    path.write_text("# x y\n1.0 0.0\n0.5\n")
    with pytest.raises(GeometryError, match=re.escape(f"{path}, line 3: expected 'x y'")):
        g.read_coordinates(path)


@given(h=st.floats(-0.05, 0.05), t1=st.floats(0.1, 0.9),
       t2=st.floats(0.3, 50.0))
@settings(max_examples=50, deadline=None)
def test_bump_bounded_by_height(h, t1, t2):
    x = np.linspace(0.0, 1.0, 101)
    y = bump_y(t1, t2, h, x)
    assert np.all(np.abs(y) <= abs(h) + 1e-12)
