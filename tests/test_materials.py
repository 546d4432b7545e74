import math
from fractions import Fraction

import numpy as np
import pytest

from thermopt.errors import DomainError
from thermopt.materials import Constant, TruncatedModel, TruncatedPower


def analytic_F(u, sigma0, u_star, p):
    # closed antiderivative of (sigma0 (1-s/u*)^p)^(-1), independent oracle
    return u_star / (sigma0 * (p - 1.0)) * ((1.0 - u / u_star) ** (1.0 - p) - 1.0)


def test_sigma_closed_values():
    m = TruncatedPower(1.0, 1.0, 2.0)
    assert float(m.sigma(0.0)) == pytest.approx(1.0)
    assert float(m.sigma(1.0)) == 0.0
    assert float(m.sigma_prime(1.0)) == 0.0
    assert float(m.sigma(0.5)) == pytest.approx(0.25)
    assert float(m.sigma(2.0)) == 0.0  # beyond critical temperature
    assert float(m.sigma(-1.0)) == pytest.approx(1.0)  # clamped to 0


def test_sigma_prime_nonpositive():
    m = TruncatedPower(2.0, 4.0, 3.0)
    s = np.linspace(0, 6, 200)
    assert np.all(m.sigma_prime(s) <= 0)
    assert np.all(m.sigma(s) >= 0)


def test_F_closed_forms_p2():
    m = TruncatedPower(1.0, 1.0, 2.0)
    assert float(m.F(0.5)) == pytest.approx(1.0, rel=1e-14)
    assert float(m.F(0.0)) == 0.0
    assert float(m.F_inv(1.0)) == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(DomainError):
        m.F(1.0)


def test_F_general_p_matches_analytic():
    for p in (2.0, 3.0, 4.5):
        m = TruncatedPower(1.5, 2.0, p)
        for u in (0.1, 0.5, 1.2, 1.9):
            assert float(m.F(u)) == pytest.approx(
                analytic_F(u, 1.5, 2.0, p), rel=1e-9)
        for v in (0.0, 0.3, 5.0, 200.0):
            u = float(m.F_inv(v))
            assert float(m.F(u)) == pytest.approx(v, abs=1e-8 * (1 + v))


def test_general_p_evaluations_keep_array_shape():
    m = TruncatedPower(1.0, 1.0, 3.0)
    u = np.array([[0.1, 0.2, 0.3], [0.1, 0.5, 0.0]])
    v = m.F(u)
    assert v.shape == u.shape
    assert np.array_equal(v, [[float(m.F(x)) for x in row] for row in u])
    assert np.array_equal(m.F_inv(v), [[float(m.F_inv(x)) for x in row] for row in v])
    moment = m.reciprocal_a_moment(v)
    assert np.array_equal(moment, [[m.reciprocal_a_moment(x) for x in row]
                                   for row in v])
    assert isinstance(m.F_inv(0.3), float) and m.F(np.empty((0, 2))).shape == (0, 2)


def test_round_trip_p2():
    m = TruncatedPower(1.0, 1.0, 2.0)
    v = np.geomspace(1e-6, 1e3, 40)
    v = np.concatenate([[0.0], v])
    back = m.F(m.F_inv(v))
    assert np.all(np.abs(back - v) <= 1e-8 * (1.0 + v))


def test_a_closed_values():
    m = TruncatedPower(1.0, 1.0, 2.0)
    assert float(m.a(0.0)) == pytest.approx(1.0)
    assert float(m.a(1.0)) == pytest.approx(0.25)
    c = Constant(3.0)
    assert float(c.a(7.0)) == pytest.approx(3.0)


def test_a_ratio_bound_at_sample_point():
    # ratio bound with mu = 2 at v=0, y=1
    m = TruncatedPower(1.0, 1.0, 2.0)
    ratio = float(m.a(1.0) / m.a(0.0))
    assert math.exp(-2.0) <= ratio <= math.exp(2.0)


def test_lipschitz_mu():
    assert TruncatedPower(1.0, 1.0, 2.0).lipschitz_mu() == pytest.approx(2.0)
    assert Constant(3.0).lipschitz_mu() == pytest.approx(3.0)
    assert TruncatedPower(2.0, 4.0, 2.0).lipschitz_mu() == pytest.approx(2.0)


def test_monotonicity_grids():
    m = TruncatedPower(1.0, 1.0, 2.0)
    v = np.linspace(0.0, 50.0, 1024)
    av = m.a(v)
    assert np.all(np.diff(av) <= 0)
    s = np.linspace(0.0, 1.0, 1024)
    assert np.all(np.diff(m.sigma(s)) <= 0)


def test_a_ratio_bound_random_pairs():
    m = TruncatedPower(1.0, 1.0, 2.0)
    mu = m.lipschitz_mu()
    rng = np.random.default_rng(20240801)
    v = rng.uniform(0.0, 50.0, 100)
    w = rng.uniform(0.0, 50.0, 100)
    y = w - v
    ratio = m.a(v + y) / m.a(v)
    slack = 1.0 + 1e-12
    assert np.all(ratio <= np.exp(mu * np.abs(y)) * slack)
    assert np.all(ratio >= np.exp(-mu * np.abs(y)) / slack)


def test_decay_product_bounded_by_inverse_v():
    m = TruncatedPower(1.0, 1.0, 2.0)
    p = 2.0
    v = np.geomspace(1.0, 1e4, 256)
    g = m.a(v) / v ** p * m.reciprocal_a_moment(v)
    assert np.all(g <= 1.0 / v + 1e-15)


def test_reciprocal_moment_closed_vs_quadrature():
    from scipy.integrate import quad
    for p in (2.0, 3.0, 4.5):
        m = TruncatedPower(1.0, 1.0, p)
        for v in (0.5, 3.0, 40.0):
            oracle, _ = quad(lambda s: 1.0 / m.a(s), 0.0, v, epsrel=1e-12)
            assert m.reciprocal_a_moment(v) == pytest.approx(oracle, rel=1e-10)


def test_reciprocal_moment_exact_at_small_v():
    # sigma0 = u_star = 1, p = 2: 1/a(s) = (1 + s)^2, so M(v) = v + v^2 + v^3/3
    m = TruncatedPower(1.0, 1.0, 2.0)
    for v in (1e-8, 1e-6):
        x = Fraction(v)
        exact = x + x ** 2 + x ** 3 / 3
        got = Fraction(float(m.reciprocal_a_moment(v)))
        assert abs(float((got - exact) / exact)) <= 1e-15


def test_truncation_matches_below_level():
    m = TruncatedPower(1.0, 1.0, 2.0)
    tn = TruncatedModel(m, 0.9)
    s = np.linspace(0.0, 0.9, 300)
    assert np.allclose(tn.sigma(s), m.sigma(s), rtol=0, atol=0)
    assert np.allclose(tn.sigma_prime(s), m.sigma_prime(s), rtol=0, atol=0)


def test_truncation_floor_and_constant_tail():
    m = TruncatedPower(1.0, 1.0, 2.0)
    tn = TruncatedModel(m, 0.9)
    floor = 0.5 * float(m.sigma(0.9))
    delta = tn.delta
    s = np.linspace(0.9 + delta, 5.0, 100)
    assert np.allclose(tn.sigma(s), floor, atol=1e-15)
    dense = np.linspace(0.0, 5.0, 5000)
    assert np.min(tn.sigma(dense)) >= floor - 1e-12


def test_truncation_c1_norm_close_to_base():
    m = TruncatedPower(1.0, 1.0, 2.0)
    tn = TruncatedModel(m, 0.9)
    # solver-realistic levels keep the blend slope under the base bound
    s = np.linspace(0.0, 0.9 + tn.delta, 4096)
    c1_norm = max(np.max(np.abs(tn.sigma(s))), np.max(np.abs(tn.sigma_prime(s))))
    assert c1_norm <= m.lipschitz_mu() + 1e-9


def test_truncation_rejects_bad_level():
    m = TruncatedPower(1.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        TruncatedModel(m, 1.0)
    with pytest.raises(DomainError):
        TruncatedModel(m, -0.1)
    with pytest.raises(DomainError, match="without a critical temperature"):
        TruncatedModel(Constant(1.0), 0.5)   # no u_star


def test_constant_model_basics():
    c = Constant(3.0)
    assert float(c.F(6.0)) == pytest.approx(2.0)
    assert float(c.F_inv(2.0)) == pytest.approx(6.0)
    assert math.isinf(c.u_star)


# The conductivity contract that callers rely on without restating it.
FAMILIES = {"power_p2": TruncatedPower(1.5, 2.0, 2.0),
            "power_p3": TruncatedPower(1.5, 2.0, 3.0),
            "constant": Constant(3.0)}


def clamping_evaluations():
    """sigma, sigma' and a of each family, and sigma, sigma' of a truncation."""
    for name, model in FAMILIES.items():
        for method in ("sigma", "sigma_prime", "a"):
            yield pytest.param(getattr(model, method), id=f"{name}.{method}")
    truncated = TruncatedModel(FAMILIES["power_p3"], 1.6)
    for method in ("sigma", "sigma_prime"):
        yield pytest.param(getattr(truncated, method), id=f"truncated.{method}")


@pytest.mark.parametrize("evaluate", list(clamping_evaluations()))
def test_negative_arguments_evaluate_as_zero(evaluate):
    negative = -np.geomspace(1e-12, 10.0, 12).reshape(4, 3)
    assert np.array_equal(evaluate(negative), np.full((4, 3), evaluate(0.0)))


@pytest.mark.parametrize("model", FAMILIES.values(), ids=FAMILIES.keys())
def test_moment_vanishes_and_F_raises_at_negative_arguments(model):
    negative = np.array([-1e-12, -0.5, -7.0])
    assert np.array_equal(model.reciprocal_a_moment(np.append(negative, 0.0)), np.zeros(4))
    for evaluate in (model.F, model.F_inv):
        for x in (negative, negative[0]):
            with pytest.raises(DomainError):
                evaluate(x)


@pytest.mark.parametrize("shape", [(12,), (4, 3)], ids=["vector", "cells_by_points"])
@pytest.mark.parametrize("model", FAMILIES.values(), ids=FAMILIES.keys())
def test_evaluations_return_float_arrays_of_the_arguments_shape(model, shape):
    x = np.linspace(0.0, 1.9, 12).reshape(shape)   # inside [0, u_star) of every family
    for method in ("sigma", "sigma_prime", "F", "F_inv", "a", "reciprocal_a_moment"):
        out = getattr(model, method)(x)
        assert type(out) is np.ndarray and out.dtype == np.float64, method
        assert out.shape == shape, method
