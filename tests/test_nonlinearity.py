import numpy as np
import pytest

from hylosolve import DoublePower, Saturating, SinglePower, WSpec, check_w_conditions, w_eval
from hylosolve.nonlinearity import critical_exponent, w_prime_over_s, w_value

ALL_SPECS = [
    WSpec(1.0, SinglePower(1.0, 4.0)),
    WSpec(0.5, SinglePower(2.0, 3.5)),
    WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0)),
    WSpec(2.0, DoublePower(0.5, 3.0, 0.0, 5.0)),
    WSpec(1.0, Saturating(0.0, 0.5)),
    WSpec(1.5, Saturating(1.0, 2.0)),
]


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_normalization_at_zero(spec):
    w, w1, w2 = w_eval(spec, 0.0)
    assert w == 0.0
    assert w1 == 0.0
    assert w2 == pytest.approx(spec.m_sq, abs=0)


def test_single_power_example():
    spec = WSpec(1.0, SinglePower(1.0, 4.0))
    w, w1, _ = w_eval(spec, 1.0)
    assert w == pytest.approx(0.25, abs=0)  # 1/2 - 1/4 by direct arithmetic
    assert w1 == pytest.approx(0.0, abs=0)  # 1 - 1


def test_saturating_limit():
    spec = WSpec(1.0, Saturating(0.0, 0.5))  # ceiling m^2/2
    assert w_eval(spec, 10.0)[0] == pytest.approx(0.5, abs=1e-8)
    s = np.geomspace(1e-3, 1e3, 200)
    assert np.all(w_eval(spec, s)[0] <= 0.5 + 1e-15)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_analytic_derivatives_match_finite_differences(spec):
    s = np.geomspace(1e-4, 50.0, 60)
    h = 1e-5
    w, w1, w2 = w_eval(spec, s)
    fd1 = (w_eval(spec, s + h)[0] - w_eval(spec, s - h)[0]) / (2 * h)
    fd2 = (w_eval(spec, s + h)[1] - w_eval(spec, s - h)[1]) / (2 * h)
    assert np.all(np.abs(w1 - fd1) <= 1e-6 * (1.0 + np.abs(w1)))
    assert np.all(np.abs(w2 - fd2) <= 1e-6 * (1.0 + np.abs(w2)))


def test_double_power_degenerates_to_single():
    single = WSpec(1.0, SinglePower(1.3, 4.0))
    double = WSpec(1.0, DoublePower(1.3, 4.0, 0.0, 6.0))
    s = np.geomspace(1e-6, 1e3, 100)
    for a, b in zip(w_eval(single, s), w_eval(double, s)):
        assert np.array_equal(a, b)
    assert np.array_equal(w_prime_over_s(single, s), w_prime_over_s(double, s))


def test_w_prime_over_s_consistent_with_w_prime():
    spec = WSpec(1.0, Saturating(0.5, 0.8))
    s = np.geomspace(1e-3, 10.0, 50)
    assert np.allclose(w_prime_over_s(spec, s) * s, w_eval(spec, s)[1], rtol=1e-13)
    assert w_prime_over_s(spec, 0.0) == pytest.approx(spec.m_sq)


def test_family_validation():
    with pytest.raises(ValueError):
        SinglePower(-1.0, 4.0)
    with pytest.raises(ValueError):
        SinglePower(1.0, 2.0)
    with pytest.raises(ValueError):
        DoublePower(1.0, 4.0, 1.0, 3.0)  # tail must grow faster
    with pytest.raises(ValueError):
        Saturating(2.0, 1.0)
    with pytest.raises(ValueError):
        WSpec(-0.1, SinglePower(1.0, 4.0))
    with pytest.raises(ValueError):
        w_eval(WSpec(1.0, SinglePower(1.0, 4.0)), -1.0)


def test_nwe_hylomorphy_witness():
    spec = WSpec(1.0, SinglePower(1.0, 4.0))
    report = check_w_conditions(spec, "NWE")
    hylo = report.conditions["W-iii-hylomorphy"]
    assert hylo.passed
    s0 = hylo.witness["s0"]
    # direct evaluation: N(s0) = W(s0) - m^2 s0^2/2 < 0; s0 = 2 is such a
    # point (N(2) = -4), so the sampled witness must also be negative
    assert w_eval(spec, 2.0)[0] - 0.5 * 4.0 == pytest.approx(-4.0, abs=0)
    assert w_eval(spec, s0)[0] - 0.5 * s0**2 < 0


def test_nse_supercritical_fails_analytically():
    # p at or above 2 + 4/N cannot satisfy the lower growth bound
    dim = 1
    p = critical_exponent(dim) + 2.0  # p = 8
    report = check_w_conditions(WSpec(1.0, SinglePower(1.0, p)), "NSE", dim=dim)
    verdict = report.conditions["F0-lower-bound"]
    assert not verdict.passed
    assert verdict.kind == "analytic"
    sub = check_w_conditions(WSpec(1.0, SinglePower(1.0, 4.0)), "NSE", dim=dim)
    assert sub.conditions["F0-lower-bound"].passed
    assert sub.conditions["F0-lower-bound"].witness["gamma"] == 4.0


def test_nbe_saturating_passes_all():
    report = check_w_conditions(WSpec(1.0, Saturating(0.0, 0.5)), "NBE")
    assert report.all_passed()
    growth = report.conditions["W-iii-alpha-growth"]
    assert growth.witness["alpha"] == 0.0
    assert growth.witness["M"] == pytest.approx(0.5)
    floor = report.conditions["W-i-positivity-floor"]
    # monotone family: floor value is W(1)
    assert floor.witness["w_floor"] == pytest.approx(w_eval(WSpec(1.0, Saturating(0.0, 0.5)), 1.0)[0])


def test_nbe_power_family_fails():
    report = check_w_conditions(WSpec(1.0, SinglePower(1.0, 4.0)), "NBE")
    assert not report.conditions["W-iii-alpha-growth"].passed
    assert not report.conditions["W-i-positivity-floor"].passed


def test_condition_reports_carry_evidence():
    report = check_w_conditions(WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0)), "NWE")
    for verdict in report.conditions.values():
        assert verdict.kind in ("analytic", "sampled")
        assert verdict.witness or verdict.detail


def _plain_w(spec, s):
    """The potential formula with every power taken by plain s**e."""
    fam = spec.family
    w = 0.5 * spec.m_sq * s**2 - (fam.b / fam.p) * s**fam.p
    if isinstance(fam, DoublePower):
        w = w + (fam.c / fam.q_tilde) * s**fam.q_tilde
    return w


@pytest.mark.parametrize("m_sq", [0.0, 1.0])
@pytest.mark.parametrize("family", [SinglePower(1.0, 2.5), SinglePower(1.0, 3.0),
                                    SinglePower(1.0, 4.0), SinglePower(1.0, 7.5),
                                    DoublePower(1.0, 4.0, 0.3, 6.0)],
                         ids=["p2.5", "p3", "p4", "p7.5", "double"])
def test_w_value_is_bitwise_the_plain_formula(family, m_sq):
    # powers that round to +0 skip pow: the values must not move, down to the
    # subnormals, the cut of each exponent and the sign of zero
    spec = WSpec(m_sq, family)
    exponents = [family.p] + ([family.q_tilde] if isinstance(family, DoublePower) else [])
    near_cut = []
    for e in exponents:
        cut = 2.0 ** (-1076.0 / e)
        for direction in (0.0, np.inf):
            x = cut
            for _ in range(4):
                x = np.nextafter(x, direction)
                near_cut.append(x)
        near_cut.append(cut)
    s = np.concatenate([[0.0], np.geomspace(5e-324, 1e3, 20001), near_cut])
    got, want = w_value(spec, s), _plain_w(spec, s)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _plain_w_prime_over_s(spec, s):
    fam = spec.family
    if isinstance(fam, SinglePower):
        return spec.m_sq - fam.b * s ** (fam.p - 2)
    if isinstance(fam, DoublePower):
        return spec.m_sq - fam.b * s ** (fam.p - 2) + fam.c * s ** (fam.q_tilde - 2)
    beta = spec.m_sq / (2.0 * fam.m_bar) if spec.m_sq > 0 else 0.0
    return spec.m_sq * np.exp(-beta * s**2)


@pytest.mark.parametrize("m_sq", [0.0, 1.0])
@pytest.mark.parametrize("family", [SinglePower(1.0, 2.5), SinglePower(1.0, 4),
                                    DoublePower(1.0, 4.0, 0.3, 6.0), DoublePower(2, 3, 1, 5),
                                    Saturating(0.5, 1.5)],
                         ids=["p2.5", "p4-int", "double", "double-int", "saturating"])
def test_w_prime_over_s_is_bitwise_the_plain_formula(family, m_sq):
    # built in place, with or without out, and bitwise the same at 0-d
    spec = WSpec(m_sq, family)
    s = np.concatenate([[0.0], np.geomspace(5e-324, 1e3, 20001)])
    want = _plain_w_prime_over_s(spec, s)
    got = w_prime_over_s(spec, s)
    out, scratch = np.empty_like(s), s.copy()
    assert w_prime_over_s(spec, scratch, out=out) is out
    for values in (got, out):
        assert np.array_equal(values, want)
        assert np.array_equal(np.signbit(values), np.signbit(want))
    assert np.array_equal(s, np.concatenate([[0.0], np.geomspace(5e-324, 1e3, 20001)]))
    scalar = w_prime_over_s(spec, 0.5)
    assert np.ndim(scalar) == 0 and scalar == _plain_w_prime_over_s(spec, np.float64(0.5))
