"""Converged NWE minimizers: a two-link delta continuation of the
double-power wave model (the `continuation-nwe1d` benchmark model)."""

import pytest

from hylosolve import (DoublePower, Grid, MinimizeOptions, ModelSpec, WSpec,
                       delta_continuation)
from hylosolve.grid import x_norm

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


def test_charge_grows_as_delta_falls(family):
    first, second = family.results
    assert second.c_delta > first.c_delta


def test_minimizers_undercut_the_vanishing_floor(family):
    for result in family.results:
        assert result.e_delta / result.c_delta < family.lambda0
