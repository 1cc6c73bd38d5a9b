"""The line search of `_descend`: interpolated Armijo backtracking, one
correction toward the line minimizer, and the accepted step seeding the next
search.  On an exact quadratic it lands on the line minimizer, so conjugate
gradients terminate; on the `continuation-nwe1d` benchmark chain it bounds
the evaluations, and the chain stays within a stated tolerance of the one
the halving-and-doubling search gave."""

import numpy as np
import pytest

from hylosolve import (DoublePower, Grid, MinimizeOptions, ModelSpec, SinglePower, WSpec,
                       delta_continuation, functionals, minimize)
from hylosolve import grid as gridmod
from hylosolve.grid import symbols, x_norm
from hylosolve.minimize import _descend
from hylosolve.models import evaluate, l2_inner_of

GRID = Grid((256,), (40.0,))
NLS = ModelSpec("NLS", GRID, WSpec(1.0, SinglePower(1.0, 4.0)))
WEIGHT = symbols("NLS", GRID).weights[0]  # the metric weight _precondition divides by


def _spectral(u, multiplier):
    return (gridmod.ifft(gridmod.fft(u[0], (-1,)) * multiplier, (-1,)),)


def _quadratic(levels):
    """A = P^-1 M with M a Fourier multiplier taking the given values on
    consecutive bands of |k|^2 of about equal size: the preconditioned
    operator PA = M has exactly len(levels) distinct eigenvalues.  Returns
    A and the objective J(u) = <u, A u> / 2 in `_descend`'s form."""
    k2 = WEIGHT - 1.0
    edges = np.quantile(k2, np.linspace(0.0, 1.0, len(levels) + 1)[1:-1])
    m = np.asarray(levels, dtype=float)[np.searchsorted(edges, k2, side="right")]

    def apply(u):
        return _spectral(u, WEIGHT * m)

    def objective(u):
        return 0.5 * l2_inner_of(GRID, u, apply(u)), evaluate(NLS, u)

    return apply, objective


def _u0():
    x = GRID.axis_coordinates(0)
    return (np.exp(-x**2 / 4.0) * (1.0 + 0.3j) + 0.2 * np.exp(-(x - 3.0) ** 2),)


# initial steps, as multiples of the line minimizer t*: far below it (the
# accepted step is corrected up), above it by more than the correction
# threshold (corrected down), and far above it (the failed trial is
# interpolated down)
@pytest.mark.parametrize("ratio", [1.0 / 3.0, 1.6, 4.0])
def test_first_step_lands_on_the_line_minimizer(ratio):
    apply, objective = _quadratic([1.0, 3.0, 9.0])
    u0 = _u0()
    g = apply(u0)
    pg = _spectral(g, 1.0 / WEIGHT)
    t_star = l2_inner_of(GRID, g, pg) / l2_inner_of(GRID, pg, apply(pg))
    opts = MinimizeOptions(max_iters=1, initial_step=ratio * t_star)
    result = _descend(NLS, objective, lambda u, ev: apply(u), u0, opts)
    assert result.iters == 1
    assert result.log[1][2] == pytest.approx(t_star, rel=1e-12, abs=0.0)


# levels 3x apart, so the line minimizers of consecutive conjugate directions
# differ by more than the correction threshold and every search is exact
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_conjugate_gradients_terminate_on_a_quadratic(k):
    apply, objective = _quadratic([3.0**i for i in range(k)])
    opts = MinimizeOptions(max_iters=100, grad_tol=1e-10)
    result = _descend(NLS, objective, lambda u, ev: apply(u), _u0(), opts)
    assert result.converged and result.grad_norm <= opts.grad_tol
    assert result.iters <= k + 1


# -- the continuation-nwe1d benchmark chain -----------------------------------

NWE = ModelSpec("NWE", GRID, WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0)))
OPTS = MinimizeOptions(max_iters=40000, grad_tol=1e-8)
DELTAS = [0.03 * (5e-4 / 0.03) ** (i / 7) for i in range(8)]
# the halving-and-doubling search needed 1 620 evaluations and 730 free
# iterations for this chain
MAX_EVALUATIONS = 1100
MAX_FREE_ITERS = 450
# (e_delta, c_delta, j_value, lambda_mult) of each link under the
# halving-and-doubling search
HALVING_CHAIN = [
    (5.45363733210701, 7.293747415149701, 0.9113231579869792, -0.6134775469178781),
    (7.00214037063833, 9.820831377023945, 0.8300275165011274, -0.6124528742795146),
    (9.049123950569381, 13.163418494623542, 0.7717170747235512, -0.6123749642677343),
    (11.7877625983032, 17.635592696446203, 0.7295703738747827, -0.612372457165643),
    (15.456428753898864, 23.626499424697336, 0.6988820206680937, -0.6123724500966965),
    (20.371467741571582, 31.65272595432485, 0.6764050527469774, -0.6123719465140759),
    (27.028077074118173, 42.52333383722507, 0.6598610932359509, -0.6122416594798068),
    (35.864751464102234, 58.52931882073352, 0.6306979466752319, -0.5953430381903501),
]
# both searches stop at the same tolerance, elsewhere along the flat
# direction of the family: E and C move by about 1e-5, J_delta, which the
# KKT contract pins, by about 1e-11
HALVING_TOL = (2e-5, 2e-5, 2e-11, 1e-6)


def _counted_chain(monkeypatch):
    """The chain, and the number of `models.evaluate` calls it made."""
    calls = [0]

    def counting(spec, components):
        calls[0] += 1
        return evaluate(spec, components)

    for module in (minimize, functionals):
        monkeypatch.setattr(module, "evaluate", counting)
    return delta_continuation(NWE, DELTAS, opts=OPTS), calls[0]


@pytest.fixture(scope="module")
def chain():
    with pytest.MonkeyPatch.context() as mp:
        return _counted_chain(mp)


def test_the_chain_stays_within_its_evaluation_budget(chain):
    family, calls = chain
    assert calls <= MAX_EVALUATIONS
    assert sum(family.free_iters) <= MAX_FREE_ITERS


def test_the_chain_agrees_with_the_halving_search(chain):
    family, _ = chain
    for result, reference in zip(family.results, HALVING_CHAIN, strict=True):
        values = (result.e_delta, result.c_delta, result.j_value, result.lambda_mult)
        for value, ref, tol in zip(values, reference, HALVING_TOL):
            assert abs(value - ref) <= tol * abs(ref)
        assert result.converged
        assert result.kkt_residual <= 10 * OPTS.grad_tol * (1 + x_norm(result.state))
    cs = [r.c_delta for r in family.results]
    assert all(b > a for a, b in zip(cs, cs[1:]))


def test_a_predicted_start_is_evaluated_once(chain, monkeypatch):
    # the link gate's penalized_terms of a predicted start seeds its descent;
    # evaluated again by the descent, the chain makes one more call per
    # predicted link and is otherwise bitwise the same
    family, calls = chain
    jdelta = minimize.minimize_jdelta

    def reevaluating(spec, params, init=None, opts=MinimizeOptions(), _start=None):
        return jdelta(spec, params, init=init, opts=opts)

    monkeypatch.setattr(minimize, "minimize_jdelta", reevaluating)
    again, again_calls = _counted_chain(monkeypatch)
    assert again_calls - calls == family.seeds.count("predicted") == 5
    for a, b in zip(family.results, again.results, strict=True):
        assert all(x.tobytes() == y.tobytes()
                   for x, y in zip(a.state.components, b.state.components))
        assert (a.log, a.lambda_mult, a.kkt_residual) == (b.log, b.lambda_mult,
                                                          b.kkt_residual)
