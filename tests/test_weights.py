import math

import numpy as np
import pytest

from bicrit import weights as w


def test_moment_closed_form_examples():
    assert w.moment(w.exponential(1.0), 2) == pytest.approx(2.0)
    assert w.moment(w.point_mass(1.0), 3) == pytest.approx(1.0)
    assert w.moment(w.power_tail(1.5, 0.3), 3) == math.inf


def test_moment_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        w.moment(w.exponential(1.0), 0)


@pytest.mark.parametrize("spec", [
    w.exponential(0.8),
    w.uniform(0.25, 2.0),
    w.power_tail(1.4, 0.35, 1.1),
])
@pytest.mark.parametrize("r", [1.0, 2.0, 2.3])
def test_quadrature_agrees_with_closed_form(spec, r):
    closed = w.moment(spec, r)
    quad = w.moment(spec, r, method="quadrature")
    assert abs(quad - closed) / closed <= 1e-8


def test_point_mass_sampler_and_determinism():
    assert w.sample_weights(w.point_mass(1.0), 5, seed=0).tolist() == [1.0] * 5
    a = w.sample_weights(w.exponential(1.0), 100, seed=42)
    b = w.sample_weights(w.exponential(1.0), 100, seed=42)
    assert np.array_equal(a, b)


def test_exponential_sample_mean():
    x = w.sample_weights(w.exponential(1.0), 100_000, seed=1)
    assert abs(x.mean() - 1.0) <= 0.02


@pytest.mark.parametrize("spec", [
    w.exponential(1.3),
    w.uniform(0.2, 1.7),
    w.discrete_table([0.5, 2.0], [0.7, 0.3]),
    w.power_tail(1.6, 0.25, 1.0),
])
def test_empirical_moments_within_four_se(spec):
    x = w.sample_weights(spec, 100_000, seed=3)
    for r in (1.0, 2.0):
        emp = (x ** r).mean()
        se = (x ** r).std(ddof=1) / math.sqrt(len(x))
        assert abs(emp - w.moment(spec, r)) <= 4 * se


def test_power_tail_survival_at_ten_cutoffs():
    spec = w.power_tail(1.5, 0.3, 1.0)
    x = w.sample_weights(spec, 1_000_000, seed=7)
    point = 10.0
    empirical = (x > point).mean()
    target = 0.3 * point ** (-2.5)
    assert abs(empirical - target) / target <= 0.20


def test_survival_function_matches_tail_constant_exactly():
    spec = w.power_tail(1.5, 0.3, 1.0)
    assert w.survival(spec, 4.0) == pytest.approx(0.3 * 4.0 ** -2.5)
    # continuity at the cutoff
    assert w.survival(spec, 1.0) == pytest.approx(spec.tail_mass())


def test_rescale_keeps_exact_tail():
    spec = w.power_tail(1.5, 0.3, 1.0)
    scaled = w.rescale(spec, 2.0)
    # survival of 2X at x equals survival of X at x/2
    assert w.survival(scaled, 5.0) == pytest.approx(w.survival(spec, 2.5))
    assert scaled.params["tail_index"] == 1.5


def test_make_critical_pair_and_rho():
    pair = w.make_critical_pair(w.point_mass(1.0), w.point_mass(1.0), 1.0, 100)
    rep = w.validate_critical_pair(pair)
    assert rep.regime == w.REGIME_THIRD
    assert rep.rho == pytest.approx(1.0)

    pair2 = w.make_critical_pair(w.exponential(1.0), w.point_mass(1.0), 2.0, 100)
    rep2 = w.validate_critical_pair(pair2)
    # sigma2 of Exp(1) is 2; the white point mass rescales so the product is 1
    assert rep2.product == pytest.approx(1.0, abs=1e-12)
    assert rep2.rho == pytest.approx(2.0 / math.sqrt(2.0))


def test_noncritical_pair_rejected_with_product():
    pair = w.CriticalPair(w.point_mass(2.0), w.point_mass(1.0), 1.0, 10)
    with pytest.raises(w.CriticalityError) as err:
        w.validate_critical_pair(pair)
    assert err.value.product == pytest.approx(4.0)


def test_regime_classification():
    heavy = w.power_tail(1.5, 0.3, 1.0)
    light = w.point_mass(1.0)
    pair = w.make_critical_pair(heavy, light, 1.0, 50)
    assert w.validate_critical_pair(pair).regime == w.REGIME_DOMINANT

    matched = w.make_critical_pair(heavy, w.power_tail(1.5, 0.2, 1.0), 1.0, 50)
    assert w.validate_critical_pair(matched).regime == w.REGIME_MATCHED

    mixed = w.make_critical_pair(heavy, w.power_tail(1.8, 0.2, 1.0), 1.0, 50)
    assert w.validate_critical_pair(mixed).regime == w.REGIME_DOMINANT

    backwards = w.make_critical_pair(light, heavy, 1.0, 50)
    with pytest.raises(w.InvalidSpecError):
        w.validate_critical_pair(backwards)


def test_spec_dict_round_trip():
    for spec in (w.exponential(1.2), w.discrete_table([1.0, 3.0], [0.5, 0.5]),
                 w.power_tail(1.7, 0.4, 0.9)):
        again = w.spec_from_dict(w.spec_to_dict(spec))
        assert again == spec


@pytest.mark.parametrize("d, message", [
    ({"value": 1.0}, "weight spec needs a 'kind' key"),
    (["point-mass", 1.0], "weight spec needs a 'kind' key"),
    ({"kind": "point-mass", "valu": 1.0},
     "point-mass spec: unknown key 'valu', missing key 'value' (expects value)"),
    ({"kind": "discrete-table", "values": [1.0]},
     "discrete-table spec: missing key 'probs'"),
    ({"kind": "power-tail", "tail_index": 1.5, "tail_constant": 0.5},
     "power-tail spec: missing key 'cutoff'"),
    ({"kind": "exponential", "rate": 1.0, "scale": 2.0},
     "exponential spec: unknown key 'scale'"),
])
def test_spec_from_dict_names_bad_keys(d, message):
    with pytest.raises(w.InvalidSpecError) as info:
        w.spec_from_dict(d)
    assert message in str(info.value)


def test_size_biased_sampler_mean():
    # size-biased mean is sigma_2 / sigma_1
    for spec in (w.exponential(1.0), w.uniform(0.5, 1.5),
                 w.power_tail(1.5, 0.3, 1.0)):
        x = w.sample_size_biased(spec, 200_000, seed=11)
        target = w.moment(spec, 2) / w.moment(spec, 1)
        se = x.std(ddof=1) / math.sqrt(len(x))
        assert abs(x.mean() - target) <= 5 * se
