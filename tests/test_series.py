import numpy as np
import pytest

from helpers import mp_series_coeffs, mp_series_residual_slope, series_eval_loop
from soliton_lab.model import ModelParams
from soliton_lab.series import OriginSeries, series_coefficients, series_eval

GRID = [(n, a) for n in (2, 4, 6) for a in (0.5, 1.0, 3.0)]


@pytest.mark.parametrize("n, alpha", GRID)
def test_leading_coefficient(n, alpha):
    s = series_coefficients(ModelParams(n, alpha))
    assert s.coeffs[0] == 1.0 / (2.0 * n)


def test_order_validation():
    p = ModelParams(2, 1.0)
    for bad in (0, 3, 7, 42, -2, 2.0, True, "8"):
        with pytest.raises(ValueError):
            series_coefficients(p, bad)


@pytest.mark.parametrize("n, alpha, order", [(2, 1.0, 8), (3, 2.0, 8), (2, 0.5, 12), (6, 3.0, 10)])
def test_coefficients_match_high_precision_recursion(n, alpha, order):
    """Float64 recursion against an independent 50-digit recomputation."""
    ours = series_coefficients(ModelParams(n, alpha), order).coeffs
    oracle = mp_series_coeffs(n, alpha, order)
    for a, b in zip(ours, oracle):
        assert a == pytest.approx(float(b), rel=1e-13)


@pytest.mark.parametrize(
    "n, alpha", [(2, 0.15), (6, 0.5), (10, 10.0), (2, 5.0), (3, 2.0), (4, 1.0)]
)
def test_fixed_order_matches_high_precision_recursion(n, alpha):
    """The default, highest-order series against the 50-digit recomputation.

    The solver evaluates every coefficient of this series out to t of a
    few units, so each one must be accurate, not just the leading ones.
    """
    s = series_coefficients(ModelParams(n, alpha))
    assert s.order == 40
    oracle = mp_series_coeffs(n, alpha, s.order)
    for a, b in zip(s.coeffs, oracle):
        assert a == pytest.approx(float(b), rel=1e-12)


def test_eval_at_origin():
    s = series_coefficients(ModelParams(5, 2.0))
    r, dr, ddr = series_eval(s, 0.0)
    assert r == 0.0
    assert dr == 0.0
    assert ddr == 1.0 / 5.0


def test_eval_rejects_negative():
    s = series_coefficients(ModelParams(2, 1.0))
    with pytest.raises(ValueError):
        series_eval(s, -0.25)
    with pytest.raises(ValueError):
        series_eval(s, np.array([0.0, -1e-9]))


def test_eval_shapes():
    s = series_coefficients(ModelParams(3, 3.0))
    t = np.linspace(0.0, 0.01, 7).reshape(7, 1)
    r, dr, ddr = series_eval(s, t)
    assert r.shape == dr.shape == ddr.shape == (7, 1)
    rs, ds, cs = series_eval(s, 0.005)
    assert isinstance(rs, float) and isinstance(ds, float) and isinstance(cs, float)


def test_eval_derivative_consistency():
    """dr and ddr channels against central differences of the r channel."""
    s = series_coefficients(ModelParams(4, 0.5), 10)
    t = np.linspace(2e-3, 9e-3, 15)
    eps = 1e-6
    r_p = series_eval(s, t + eps)[0]
    r_m = series_eval(s, t - eps)[0]
    _, dr, ddr = series_eval(s, t)
    np.testing.assert_allclose((r_p - r_m) / (2 * eps), dr, rtol=1e-8, atol=1e-14)
    r_0 = series_eval(s, t)[0]
    np.testing.assert_allclose((r_p - 2 * r_0 + r_m) / eps**2, ddr, rtol=1e-3)


@pytest.mark.parametrize("n, alpha", [(2, 1.0), (3, 2.0), (2, 0.5)])
def test_higher_order_invisible_below_switch(n, alpha):
    """Orders 8 and 12 agree to the last ulp everywhere below the switch.

    The first dropped term is a10 t^10 <= 1e-25 on [0, 1e-2] while r is
    of size t^2/(2n), so double precision cannot resolve the difference
    there; a corrupted high-order coefficient of size one would show up
    here.
    """
    p = ModelParams(n, alpha)
    s8 = series_coefficients(p, 8)
    s12 = series_coefficients(p, 12)
    t = np.linspace(0.0, 1e-2, 65)
    for lo, hi in zip(series_eval(s8, t), series_eval(s12, t)):
        np.testing.assert_allclose(lo, hi, rtol=4e-16, atol=5e-18)


@pytest.mark.parametrize("n, alpha, order", [(2, 1.0, 8), (3, 2.0, 8), (4, 3.0, 6)])
def test_residual_order_is_order_not_order_minus_one(n, alpha, order):
    """The truncated even series leaves an even residual: slope == order.

    This is the invariant the recursion guarantees (the residual of the
    degree-m truncation starts at t^m, parity forbids t^(m-1)).
    """
    slope = mp_series_residual_slope(n, alpha, order)
    assert slope == pytest.approx(order, abs=0.05)


def test_eval_matches_loop_oracle():
    """``series_eval`` equals the loop form bit for bit, at every order.

    Orders 2 to 40 on four cells, at t = 0, across the series' reach and
    beyond it, on arrays and on scalars.
    """
    t = np.concatenate(([0.0], np.geomspace(1e-4, 8.0, 200)))
    for n, alpha in ((2, 0.5), (3, 2.0), (6, 1.0), (10, 0.2)):
        for order in range(2, 41, 2):
            s = series_coefficients(ModelParams(n, alpha), order)
            for ours, loop in zip(series_eval(s, t), series_eval_loop(s, t)):
                assert ours.tobytes() == loop.tobytes(), (n, alpha, order)
            for x in (0.0, 0.37, 1.9):
                ours = np.array(series_eval(s, x))
                assert ours.tobytes() == np.array(series_eval_loop(s, x)).tobytes()


def test_dataclass_contents():
    s = series_coefficients(ModelParams(2, 2.0), 6)
    assert isinstance(s, OriginSeries)
    assert s.order == 6
    assert len(s.coeffs) == 3
    assert s.params == ModelParams(2, 2.0)
