"""Converged NWE minimizers: a two-link delta continuation of the
double-power wave model (the `continuation-nwe1d` benchmark model)."""

import pytest

from dataclasses import replace

from hylosolve import (DoublePower, Grid, MinimizeOptions, ModelSpec, NumericalFailure, WSpec,
                       charge, choose_coercivity_params, delta_continuation, j_delta)
from hylosolve.functionals import gaussian_state, penalized_value
from hylosolve.grid import x_norm
from hylosolve.minimize import _restore_charge

SPEC = ModelSpec("NWE", Grid((256,), (40.0,)), WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0)))
OPTS = MinimizeOptions(max_iters=40000, grad_tol=1e-8)


@pytest.fixture(scope="module")
def family():
    return delta_continuation(SPEC, [0.03, 0.0167], opts=OPTS)


def test_links_converge_to_the_kkt_contract(family):
    assert len(family.results) == len(family.free_iters) == 2
    for result in family.results:
        assert result.converged
        assert result.kkt_residual <= 10 * OPTS.grad_tol * (1 + x_norm(result.state))


def test_stored_e_and_c_give_j_delta_of_each_link(family):
    # the next link's gate value and the refined j_value come from the
    # stored E and C; both equal j_delta of the refined state
    params = choose_coercivity_params(SPEC, delta=family.deltas[0])
    for d, result in zip(family.deltas, family.results):
        pd = replace(params, delta=d)
        value = j_delta(SPEC, result.state, pd)
        assert penalized_value(result.e_delta, result.c_delta, pd) == value
        assert result.j_value == value


def test_charge_grows_as_delta_falls(family):
    first, second = family.results
    assert second.c_delta > first.c_delta


def test_minimizers_undercut_the_vanishing_floor(family):
    for result in family.results:
        assert result.e_delta / result.c_delta < family.lambda0


def test_charge_restoration_makes_no_transform(transform_sizes):
    # the collapse guard takes the state's scale from a quadrature
    state = gaussian_state(SPEC, 1.0, 2.0, pair_param=0.5)
    target = 1.1 * charge(SPEC, state)
    restored = _restore_charge(SPEC, state.components, target)
    assert transform_sizes == []
    assert charge(SPEC, state.replace_components(restored)) == pytest.approx(target, rel=1e-14)


def test_collapsed_charge_still_raises():
    still = gaussian_state(SPEC, 1.0, 2.0, pair_param=0.0)  # phi = 0: no charge
    assert charge(SPEC, still) == 0.0
    with pytest.raises(NumericalFailure, match="charge collapsed"):
        _restore_charge(SPEC, still.components, 1.0)
