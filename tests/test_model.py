import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import slope_map_oracle
from soliton_lab import model as model_module
from soliton_lab.asymptotics import expected_coefficients
from soliton_lab.model import (
    ModelParams,
    coeff_B,
    coeff_C,
    g_eval,
    g_invert,
    is_log_branch,
    _slope_map,
)


def test_validate_params_accepts_grid():
    for n in range(2, 7):
        for alpha in (0.5, 1.0, 2.0, 3.0):
            p = ModelParams(n, alpha)
            assert p == ModelParams(n, alpha)


@pytest.mark.parametrize(
    "n, alpha",
    [
        (1, 1.0),
        (0, 1.0),
        (-3, 1.0),
        (2.5, 1.0),
        ("2", 1.0),
        (True, 1.0),
        (2, 0.0),
        (2, -1.0),
        (2, float("nan")),
        (2, float("inf")),
        (2, "fast"),
    ],
)
def test_validate_params_rejects(n, alpha):
    with pytest.raises(ValueError):
        ModelParams(n, alpha)


def test_params_frozen():
    p = ModelParams(3, 2.0)
    with pytest.raises(Exception):
        p.n = 4


def test_g_identity_on_log_branch():
    p = ModelParams(4, 1.0)
    y = np.linspace(0.0, 50.0, 101)
    assert np.array_equal(g_eval(y, p), y)
    assert g_eval(7.25, p) == 7.25


def test_g_spot_value():
    # y = 1, alpha = 3: g = 1 * 2^1 = 2
    assert g_eval(1.0, ModelParams(2, 3.0)) == pytest.approx(2.0, rel=1e-15)
    assert g_eval(0.0, ModelParams(5, 2.0)) == 0.0


def test_g_odd():
    p = ModelParams(3, 0.5)
    y = np.array([0.1, 1.0, 10.0, 1e4])
    np.testing.assert_allclose(g_eval(-y, p), -g_eval(y, p), rtol=0.0)


@given(
    alpha=st.floats(min_value=0.1, max_value=5.0),
    y=st.floats(min_value=0.0, max_value=1e6),
    dy=st.floats(min_value=1e-9, max_value=10.0),
)
@example(alpha=0.1015625, y=787734.578125, dy=1e-9)
@settings(max_examples=300, deadline=None)
def test_g_monotone(alpha, y, dy):
    """Non-decreasing always; strictly increasing whenever float64 can see it.

    For alpha < 1 and huge y the derivative ~ alpha y^(alpha-1) makes the
    increment over a tiny dy fall below one ulp of g, so equality there is
    correct rounding, not a monotonicity failure.
    """
    p = ModelParams(2, alpha)
    y1 = y + dy
    g0 = g_eval(y, p)
    g1 = g_eval(y1, p)
    assert g1 >= g0
    slope = (1.0 + y * y) ** ((alpha - 3.0) / 2.0) * (1.0 + alpha * y * y)
    if (y1 - y) * slope > 8.0 * abs(g0) * 2.220446049250313e-16:
        assert g1 > g0


@given(
    alpha=st.floats(min_value=0.2, max_value=5.0),
    y=st.floats(min_value=0.0, max_value=1e5),
)
@settings(max_examples=300, deadline=None)
def test_g_round_trip(alpha, y):
    p = ModelParams(3, alpha)
    back = g_invert(g_eval(y, p), p)
    assert back == pytest.approx(y, rel=1e-12, abs=1e-12)


def test_g_invert_input_checks():
    p = ModelParams(2, 2.0)
    assert g_invert(0.0, p) == 0.0
    with pytest.raises(ValueError):
        g_invert(-1.0, p)
    with pytest.raises(ValueError):
        g_invert(float("nan"), p)
    # y ~ v^(1/alpha) overflows for tiny alpha at large v
    with pytest.raises(ValueError):
        g_invert(1e30, ModelParams(2, 0.05))


def _oracle_slopes():
    """Both signs of zero, subnormals, the smallest normal, 1 and 1 +- 1 ulp,
    and 2,000 log-uniform values from 1e-320 to 1e200, of both signs."""
    tiny = 2.2250738585072014e-308
    ys = [0.0, 5e-324, 1e-310, math.nextafter(tiny, 0.0), tiny]
    ys += [math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 1e154, 1.4e154, 1e200]
    rng = np.random.default_rng(30)
    ys += (10.0 ** rng.uniform(-320.0, 200.0, 2000)).tolist()
    return ys + [-y for y in ys]


@pytest.mark.parametrize("alpha", [0.15, 0.5, 0.999, 2.0, 3.0, 10.0])
def test_g_matches_the_scalar_oracle_bit_for_bit(alpha):
    """g_eval is the scalar formula's float, bit for bit, on arrays and on
    scalars, and raises OverflowError exactly where the scalar formula does
    (alpha 10: the pow of 1 + y^2 past about 1e68).  A y^2 past float range
    is inf without a warning (pytest turns one into an error)."""
    p = ModelParams(2, alpha)
    slopes, finite = _oracle_slopes(), []
    for y in slopes:
        try:
            (expected,) = slope_map_oracle(alpha, [y])
        except OverflowError:
            with pytest.raises(OverflowError):
                g_eval(y, p)
            continue
        assert g_eval(y, p).hex() == expected.hex(), y
        finite.append(y)
    assert (len(finite) < len(slopes)) == (alpha == 10.0)
    got = g_eval(np.array(finite), p).tolist()
    assert [g.hex() for g in got] == [g.hex() for g in slope_map_oracle(alpha, finite)]
    if alpha == 10.0:
        with pytest.raises(OverflowError):
            g_eval(np.array(slopes), p)


def test_invert_slope_keeps_converged_iterate(monkeypatch):
    """Newton stops once its step is spent, within 7 evaluations of g.

    A step below half an ulp leaves the iterate on the bracket edge it just
    set; testing the bracket before convergence throws such an iterate
    away and bisects on.  Over these 2,001 seeded cases the inversion takes
    at most 7 evaluations of g, and the bracket-first order up to 36.
    """
    rng = np.random.default_rng(1)
    cases = [(2.0, 1.4324744307757438)]
    for _ in range(2000):
        alpha = float(rng.uniform(0.3, 4.0))
        y = np.array([10.0 ** rng.uniform(-2.0, 5.0)])
        cases.append((alpha, float(_slope_map(alpha, y)[0])))
    calls = []

    def counting(alpha, ys):
        calls.extend(ys)
        return _slope_map(alpha, ys)

    monkeypatch.setattr(model_module, "_slope_map", counting)
    for alpha, v in cases:
        calls.clear()
        g_invert(v, ModelParams(2, alpha))
        assert len(calls) <= 7, (alpha, v, len(calls))


def test_coeff_spot_values():
    # closed-form values: C(2,2) = 1 and C(5,2) = 1.25 exactly,
    # B(2,2) = 1/2, B(2,3) = 4/9, B(5,2) = 5/8
    assert coeff_C(ModelParams(2, 2.0)) == 1.0
    assert coeff_C(ModelParams(5, 2.0)) == pytest.approx(1.25, rel=1e-15)
    assert coeff_B(ModelParams(2, 2.0)) == pytest.approx(0.5, rel=1e-15)
    assert coeff_B(ModelParams(2, 3.0)) == pytest.approx(4.0 / 9.0, rel=1e-15)
    assert coeff_B(ModelParams(5, 2.0)) == pytest.approx(0.625, rel=1e-15)


def test_coeff_B_is_one_on_log_branch():
    for n in range(2, 7):
        assert coeff_B(ModelParams(n, 1.0)) == 1.0


def test_coeff_C_rejects_log_branch():
    with pytest.raises(ValueError):
        coeff_C(ModelParams(3, 1.0))


@given(
    n=st.integers(min_value=2, max_value=8),
    alpha=st.floats(min_value=0.2, max_value=5.0),
)
@example(n=4, alpha=1.0)
@settings(max_examples=200, deadline=None)
def test_coefficient_set_consistency(n, alpha):
    p = ModelParams(n, alpha)
    leading, second = expected_coefficients(p)
    if is_log_branch(alpha):
        assert coeff_B(p) == 1.0
        with pytest.raises(ValueError):
            coeff_C(p)
        assert leading == pytest.approx(0.5 / (n - 1), rel=1e-15)
        assert second == -0.5 * (n - 1.0) * (n - 4.0)
    else:
        # C = alpha B / (alpha - 1) ties the two expansions together
        assert coeff_C(p) == pytest.approx(
            alpha * coeff_B(p) / (alpha - 1.0), rel=1e-12
        )
        assert second == -coeff_C(p)
        assert leading == pytest.approx(
            alpha / (alpha + 1.0) * (n - 1.0) ** (-1.0 / alpha), rel=1e-15
        )
