from __future__ import annotations

import itertools

import numpy as np
import pytest

from adaptqsd.errors import DomainError, UnsupportedModelError
from adaptqsd.model import (FixationSpec, GrowthSpec, ModelParams,
                            default_params, drift_y, fixation_integral, n_to_y,
                            rescale_jump_measure, reference_set,
                            validate_hypotheses, y_equilibrium, y_to_n)
from adaptqsd.rng import StreamKey, stream


def test_size_transform_round_trip():
    n = np.array([0.0, 0.5, 4.0, 100.0])
    y = n_to_y(n, sigma=1.3)
    np.testing.assert_allclose(y_to_n(y, sigma=1.3), n, rtol=1e-14)
    assert n_to_y(1.0, sigma=2.0) == pytest.approx(1.0)


def test_size_transform_domain():
    with pytest.raises(DomainError):
        n_to_y(-1.0, sigma=1.0)
    with pytest.raises(DomainError):
        n_to_y(1.0, sigma=0.0)
    with pytest.raises(DomainError):
        y_to_n(-0.1, sigma=1.0)


def test_gamma_ties_to_gamma_n():
    params = default_params(gamma_n=0.4, sigma=2.0)
    assert params.gamma == pytest.approx(0.4 * 4.0 / 8.0)


def test_drift_y_formula():
    params = default_params()
    x = np.array([1.0])
    y = 2.0
    r = 2.0 - 0.5 * 1.0
    expected = -0.5 / y + 0.5 * r * y - params.gamma * y**3
    assert drift_y(x, y, params) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(DomainError):
        drift_y(x, 0.0, params)


def test_y_equilibrium_closed_form():
    # 2 gamma u^2 - r u + 1 = 0 for u = y^2, largest root
    assert y_equilibrium(2.0, 0.0125) == pytest.approx(8.916099781646, rel=1e-9)
    # gamma = 0 degenerates to r y / 2 = 1 / (2 y)
    assert y_equilibrium(4.0, 0.0) == pytest.approx(0.5)
    assert y_equilibrium(-1.0, 0.0125) is None
    assert y_equilibrium(0.1, 0.0125) is None  # discriminant < 0


def test_equilibrium_is_a_zero_of_the_drift():
    params = default_params()
    ystar = y_equilibrium(params.growth.r_sup, params.gamma)
    assert drift_y(np.zeros(1), ystar, params) == pytest.approx(0.0, abs=1e-10)


def test_growth_family_contract():
    g = GrowthSpec(r0=3.0, a=0.25)
    x = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    np.testing.assert_allclose(g.rate(x), [3.0, 2.0, 2.5])
    assert g.r_sup == 3.0
    with pytest.raises(DomainError):
        GrowthSpec(a=-0.1)


def test_fixation_positive_and_bounded():
    params = default_params()
    gen = stream(StreamKey(seed=2, lineage=("fix",)))
    x = gen.uniform(-3.0, 3.0, size=(500, 1))
    w = gen.uniform(-2.0, 2.0, size=(500, 1))
    g = params.g(x, w)
    assert np.all(g > 0.0)
    assert np.all(g <= params.fixation.g_max + 1e-15)


def test_fixation_advantageous_only_sign_structure():
    params = default_params(fixation_family="advantageous_only")
    x = np.array([[-2.0]])
    toward = np.array([[0.5]])
    away = np.array([[-0.5]])
    assert params.g(x, toward) > 0.0
    assert params.g(x, away) == 0.0


@pytest.mark.parametrize("family", ["advantageous_only", "rescaled_advantageous"])
def test_a_steep_advantageous_fixation_does_not_overflow_on_outward_jumps(family):
    # outward, s |dr| = 40 * 36 would overflow expm1; a warning fails the test
    params = default_params(fixation_family=family, s=40.0)
    assert params.g(np.array([[0.5]]), np.array([[8.0]])) == 0.0
    assert params.g(np.array([[0.5]]), np.array([[-0.25]])) > 0.0


def test_mutation_mass_and_moments():
    params = default_params(m_nu=2.5)
    assert params.mutation_mass() == pytest.approx(2.5)
    w = params.mutation.sample(stream(StreamKey(seed=3)), 50000, 1)
    assert abs(w.mean()) < 4.0 * params.mutation.tau / np.sqrt(len(w))
    np.testing.assert_allclose(w.std(), params.mutation.tau, rtol=0.02)
    planar = default_params(dim=2)
    w2 = planar.mutation.sample(stream(StreamKey(seed=9, lineage=("mut",))), 40000, 2)
    assert w2.shape == (40000, 2)
    np.testing.assert_allclose(w2.mean(axis=0), [0.0, 0.0], atol=4.0 * planar.mutation.tau / 200.0)
    np.testing.assert_allclose(w2.std(axis=0), [planar.mutation.tau] * 2, rtol=0.02)


def test_fixation_integral_matches_monte_carlo():
    params = default_params()
    x = np.array([-1.5])
    gen = stream(StreamKey(seed=4, lineage=("mcint",)))
    w = params.mutation.sample(gen, 400_000, 1)
    g = params.g(np.broadcast_to(x, w.shape), w)
    mass = params.mutation_mass()
    mc_one = g.mean() * mass
    mc_w1 = (w[:, 0] * g).mean() * mass
    assert fixation_integral(x, params, weight="one") == pytest.approx(mc_one, rel=0.01)
    assert fixation_integral(x, params, weight="w1") == pytest.approx(mc_w1, abs=0.003)
    with pytest.raises(DomainError):
        fixation_integral(x, params, weight="w2")


@pytest.mark.parametrize("family", ["deleterious_ok", "advantageous_only",
                                    "rescaled_advantageous"])
def test_fixation_bound_elementwise_matches_scalar(family):
    params = default_params(fixation_family=family)
    norms = np.array([0.0, 0.3, 1.7, 4.2])
    vec = params.g_bound(norms)
    assert vec.shape == norms.shape
    np.testing.assert_array_equal(vec, [params.g_bound(float(n)) for n in norms])
    assert np.ndim(params.g_bound(1.7)) == 0
    # the bound dominates g on the ball it covers
    x = np.array([[-1.7], [1.2], [0.4]])
    w = np.linspace(-3.0, 3.0, 121)[:, None, None]
    assert np.all(params.g(x, w) <= params.g_bound(1.7) * (1.0 + 1e-12))


def test_rescaled_pair_preserves_jump_integrals():
    # the tilt moves mass between g and nu; their product must not change
    adv = default_params(fixation_family="advantageous_only")
    resc = rescale_jump_measure(adv)
    for xv in (-2.0, -0.8, 0.5):
        x = np.array([xv])
        for weight in ("one", "w1"):
            a = fixation_integral(x, adv, weight=weight)
            b = fixation_integral(x, resc, weight=weight)
            assert b == pytest.approx(a, rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("family", ["deleterious_ok", "advantageous_only"])
def test_fixation_integral_on_the_size_tilted_family(family):
    # the tilt min(|w|, 1) has kinks at w = -1, 0, 1; the quadrature must
    # pass its own order-halving check and match a fine trapezoid sum
    params = default_params(mutation_family="gaussian_size_tilted", fixation_family=family)
    w = np.linspace(-8.0, 8.0, 400_001)
    for xv in (0.0, -1.0, -2.0, 1.0):
        x = np.array([xv])
        vals = params.g(x, w[:, None]) * params.mutation.density(w[:, None])
        assert fixation_integral(x, params) == pytest.approx(np.trapezoid(vals, w), rel=1e-8)
        assert fixation_integral(x, params, weight="w1") == pytest.approx(
            np.trapezoid(vals * w, w), rel=1e-8, abs=1e-12)


def test_rescale_requires_advantageous_family():
    with pytest.raises(UnsupportedModelError):
        rescale_jump_measure(default_params())


def test_hypothesis_routing_default():
    report = validate_hypotheses(default_params())
    ok, missing = report.routing_ok()
    assert ok and missing == []
    assert "H8" in report.required_codes()
    assert "H11" not in report.required_codes()


def test_hypothesis_routing_flags_flat_growth():
    report = validate_hypotheses(default_params(a=0.0))
    ok, missing = report.routing_ok()
    assert not ok and missing == ["H7"]


def test_hypothesis_routing_dim2_advantageous_requires_h11():
    params = default_params(dim=2, fixation_family="advantageous_only")
    report = validate_hypotheses(params)
    assert "H9" in report.required_codes()
    assert "H11" in report.required_codes()


_ADVANTAGEOUS = ("advantageous_only", "rescaled_advantageous")


@pytest.mark.parametrize("fixation_family,mutation_family,dim,a,m_nu", list(itertools.product(
    ("deleterious_ok",) + _ADVANTAGEOUS, ("gaussian", "gaussian_size_tilted"), (1, 2, 3),
    (0.0, 0.5), (0.0, 1.0))))
def test_hypothesis_statuses_follow_the_family_and_parameter_signs(fixation_family,
                                                                    mutation_family, dim, a, m_nu):
    report = validate_hypotheses(default_params(
        fixation_family=fixation_family, mutation_family=mutation_family, dim=dim, a=a,
        m_nu=m_nu))
    adv = fixation_family in _ADVANTAGEOUS

    def status(holds):
        return "satisfied" if holds else "violated"

    expected = {"H1": "satisfied", "H2": "satisfied", "H3": "satisfied",
                "H4": status(m_nu > 0.0), "H5": "satisfied", "H6": status(m_nu > 0.0),
                "H7": status(a > 0.0), "H8": status(not adv), "H9": status(adv),
                "H10": "satisfied",
                "H11": "not_applicable" if dim == 1 else status(m_nu > 0.0)}
    assert {code: chk.status for code, chk in report.checks.items()} == expected
    assert report.routing_ok()[0] == (m_nu > 0.0 and a > 0.0)
    assert all(chk.detail for chk in report.checks.values())


@pytest.mark.parametrize("overrides", [{"s": 8.0}, {"r0": 8.0}, {"r0": 4.0, "s": 4.0},
                                       {"r0": 6.0, "s": 3.0}])
def test_a_steep_logistic_fixation_is_strictly_positive(overrides):
    # expit(s dr) rounds to 0 for a far enough w, but g itself never vanishes
    report = validate_hypotheses(default_params(**overrides))
    assert report.checks["H8"].status == "satisfied"
    assert report.routing_ok() == (True, [])


def test_reference_set_samples_inside():
    params = default_params()
    box = reference_set(params)
    x, y = box.sample(stream(StreamKey(seed=5)), 2000)
    assert np.all(np.linalg.norm(x - box.center, axis=1) <= box.radius + 1e-12)
    assert np.all((y >= box.y_lo) & (y <= box.y_hi))


def test_default_params_are_the_dataclass_defaults():
    assert ModelParams() == default_params()
    assert default_params(s=1.0, dim=2).fixation.s == 1.0


def test_params_domain_checks():
    with pytest.raises(DomainError):
        ModelParams(dim=0)
    with pytest.raises(DomainError):
        default_params(v=-0.1)
    with pytest.raises(DomainError):
        default_params(unknown_key=1.0)
