"""Minimizers on 2-d grids: the NLS with p = 3 and the double-power NWE (the
`continuation-nwe1d` W) on 64^2 points, L = 20, one link per delta."""

import pytest

from hylosolve import (DoublePower, Grid, Inadmissible, MinimizeOptions, ModelSpec, SinglePower,
                       WSpec, audit, delta_continuation, gate_passed)
from hylosolve.grid import x_norm

GRID = Grid((64, 64), (20.0, 20.0))
NLS = ModelSpec("NLS", GRID, WSpec(1.0, SinglePower(1.0, 3.0)))
NWE = ModelSpec("NWE", GRID, WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0)))
OPTS = MinimizeOptions(max_iters=4000, grad_tol=1e-6)


@pytest.mark.parametrize("spec", [NLS, NWE], ids=["NLS", "NWE"])
def test_the_2d_gate_passes(spec):
    assert gate_passed(audit(spec, budget=2000))


@pytest.mark.parametrize("spec, delta", [(NLS, 0.005), (NLS, 0.002), (NWE, 0.002)],
                         ids=["NLS-0.005", "NLS-0.002", "NWE-0.002"])
def test_a_2d_link_converges_to_the_kkt_contract(spec, delta):
    family = delta_continuation(spec, [delta], opts=OPTS)
    (result,) = family.results
    assert result.converged
    assert result.kkt_residual <= 10 * OPTS.grad_tol * (1 + x_norm(result.state))
    assert result.e_delta / result.c_delta < family.lambda0


def test_a_2d_wave_rejects_a_delta_its_seed_does_not_admit():
    # the best Gaussian's penalized value 1.0388 stays above lambda0 = 1
    with pytest.raises(Inadmissible, match="1.0388 does not undercut the vanishing floor 1"):
        delta_continuation(NWE, [0.005], opts=OPTS)
