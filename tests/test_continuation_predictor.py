"""The secant predictor of the delta continuation on the `continuation-nwe1d`
benchmark chain: which start each link takes, the digits it shares with the
plain warm-started chain, and its two fallbacks."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hylosolve import (DoublePower, Grid, MinimizeOptions, ModelSpec, WSpec,
                       choose_coercivity_params, delta_continuation)
from hylosolve import minimize
from hylosolve.functionals import penalized_terms
from hylosolve.grid import LatticeShift, translate, x_norm

SPEC = ModelSpec("NWE", Grid((256,), (40.0,)), WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0)))
OPTS = MinimizeOptions(max_iters=40000, grad_tol=1e-8)
# eight penalty weights, geometric from 0.03 down to 5e-4, as in the benchmark
DELTAS = [0.03 * (5e-4 / 0.03) ** (i / 7) for i in range(8)]
# the predictor moves the descent path, and the family is flat along the
# charge: E and C agree with the warm-started chain to about 1e-5, J_delta,
# which the KKT contract pins, to about 1e-11
TOL = {"e_delta": 2e-5, "c_delta": 2e-5, "j_value": 2e-11, "lambda_mult": 1e-6}


@pytest.fixture(scope="module")
def params():
    return choose_coercivity_params(SPEC, delta=DELTAS[0], seed=6)


@pytest.fixture(scope="module")
def predicted(params):
    return delta_continuation(SPEC, DELTAS, opts=OPTS, params=params)


@pytest.fixture(scope="module")
def warm(params):
    # a negative tolerance aligns no pair, so every link takes the warm start
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minimize, "_ALIGN_RTOL", -1.0)
        return delta_continuation(SPEC, DELTAS, opts=OPTS, params=params)


def test_links_report_their_start(predicted, warm):
    assert predicted.seeds == ["probe", "warm"] + ["predicted"] * 5 + ["warm"]
    assert warm.seeds == ["probe"] + ["warm"] * 7


def test_predicted_chain_meets_the_benchmark_checks(predicted):
    for result in predicted.results:
        assert result.converged
        assert result.kkt_residual <= 10 * OPTS.grad_tol * (1 + x_norm(result.state))
    cs = [r.c_delta for r in predicted.results]
    assert all(b > a for a, b in zip(cs, cs[1:]))


def test_predictor_agrees_with_the_warm_chain(predicted, warm):
    for key, tol in TOL.items():
        worst = max(abs(getattr(p, key) - getattr(w, key)) / abs(getattr(w, key))
                    for p, w in zip(predicted.results, warm.results))
        assert worst <= tol, key
    # the first two links start alike, so they are the same descent
    for p, w in zip(predicted.results[:2], warm.results[:2]):
        assert (p.e_delta, p.c_delta, p.iters) == (w.e_delta, w.c_delta, w.iters)
    assert sum(predicted.free_iters) < sum(warm.free_iters)


def test_adjacent_orbit_distances_are_the_pairwise_ones(predicted):
    dists = predicted.orbit_distances
    results = predicted.results
    for i in range(len(results) - 1):
        assert dists[i, i + 1] == dists[i + 1, i] == minimize.orbit_distance(
            results[i].state, results[i + 1].state)
    assert np.all(np.diag(dists) == 0.0)


def test_prediction_above_lambda0_falls_back_to_the_warm_start(predicted, params):
    # the last link's prediction does not undercut the vanishing floor
    d = DELTAS
    r = math.log(d[7] / d[6]) / math.log(d[6] / d[5])
    guess = minimize._secant(predicted.results[5].state, predicted.results[6].state, r)
    value = penalized_terms(SPEC, guess, replace(params, delta=d[7]))[0]
    assert value >= predicted.lambda0
    assert predicted.seeds[7] == "warm"


def test_misaligned_pair_falls_back_to_the_warm_start(params, monkeypatch):
    # link 1's refined state, shifted by whole cells, is as good a minimizer,
    # but its difference to link 0's is a translation, not a tangent
    original = minimize.refine_constrained
    links = []

    def refine_then_shift(*args, **kwargs):
        result = original(*args, **kwargs)
        links.append(result)
        if len(links) == 2:
            result.state = translate(result.state, LatticeShift((37,)))
        return result

    monkeypatch.setattr(minimize, "refine_constrained", refine_then_shift)
    family = delta_continuation(SPEC, DELTAS[:4], opts=OPTS, params=params)
    # the shifted pair is not aligned; links 1 and 2 are, both shifted
    assert family.seeds == ["probe", "warm", "warm", "predicted"]
    assert all(result.converged for result in family.results)
