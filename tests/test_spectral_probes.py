"""The random probes drawn in the spectrum (functionals._probe_stack).

Each probe draws the real and imaginary parts of the modes of index at most
min(n) // 4 along every axis, keeps those up to its band, is made Hermitian
on the real beam model, is scaled to its rms amplitude by Parseval and takes
one inverse transform per component.  The references below rebuild a probe
from its raw stream words with numpy alone.
"""

import numpy as np
import pytest

from hylosolve import (DoublePower, Grid, Inadmissible, ModelSpec, PenaltyParams, Saturating,
                       SinglePower, WSpec, choose_coercivity_params)
from hylosolve import audit, checkers, models
from hylosolve.checkers import _coercivity_floor_check, _drawn_probe, _shift_invariance_check
from hylosolve.functionals import (DESCENT_COLUMNS, RANDOM_SCAN_POINTS, _probe_draws,
                                   probe_chunks, probe_states)
from hylosolve.grid import band_limited_spectrum
from hylosolve.models import charge_of, energy_of
from hylosolve.rng import SplitMix64, symmetric_from_bits

DOUBLE_POWER = WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0))
SPECS = {
    "NLS-64": ModelSpec("NLS", Grid((64,), (20.0,)), WSpec(1.0, SinglePower(1.0, 4.0))),
    "NLS-512": ModelSpec("NLS", Grid((512,), (40.0,)), WSpec(1.0, SinglePower(1.0, 4.0))),
    "NWE-256": ModelSpec("NWE", Grid((256,), (40.0,)), DOUBLE_POWER),
    "NWE-2d": ModelSpec("NWE", Grid((32, 16), (5.0, 3.0)), DOUBLE_POWER),
    "NLS-3d": ModelSpec("NLS", Grid((16, 16, 32), (8.0, 8.0, 12.0)),
                        WSpec(1.0, SinglePower(1.0, 3.0))),
    "NBE-64": ModelSpec("NBE", Grid((64,), (20.0,)), WSpec(1.0, Saturating(0.0, 2.0))),
    "NBE-256": ModelSpec("NBE", Grid((256,), (40.0,)), WSpec(1.0, Saturating(0.0, 0.5))),
}
AMP_RANGE = (1e-2, 3.0)


def _components(spec):
    return 1 if spec.model_tag == "NLS" else 2


def _independent_probe(spec, words):
    """One probe from its raw stream words: the drawn modes placed on the
    full spectrum by their signed wave indices, those above the band
    dropped, the Hermitian part taken for the beam, then np.fft.ifftn and a
    real-space rescale to the amplitude.  Returns (components, amplitude,
    band)."""
    g = spec.grid
    lo, hi = np.log(AMP_RANGE[0]), np.log(AMP_RANGE[1])
    amp = float(np.exp(lo + (hi - lo) * float(words[0] >> np.uint64(11)) * 2.0**-53))
    width = min(g.n) // 4
    band = 2 + int(words[1] % np.uint64(width - 1))
    side = 2 * width + 1
    modes = side**g.dim
    signed = np.r_[0:width + 1, -width:0]
    uniforms = (words[2:] >> np.uint64(11)).astype(np.float64) * 2.0**-52 - 1.0
    comps = []
    for i in range(_components(spec)):
        parts = uniforms[2 * i * modes:2 * (i + 1) * modes]
        box = (parts[:modes] + 1j * parts[modes:]).reshape((side,) * g.dim)
        full = np.zeros(g.n, np.complex128)
        for pos in np.ndindex(box.shape):
            k = signed[list(pos)]
            if np.abs(k).max() <= band:
                full[tuple(int(v) % n for v, n in zip(k, g.n))] = box[pos]
        if spec.model_tag == "NBE":
            negated = np.ix_(*((-np.arange(n)) % n for n in g.n))
            full = 0.5 * (full + np.conj(full[negated]))
        field = np.fft.ifftn(full)
        if spec.model_tag == "NBE":
            field = field.real
        comps.append(field * (amp / np.sqrt(np.mean(np.abs(field) ** 2))))
    return comps, amp, band


def test_draws_per_probe():
    # 2 + components x 2 x (2 (min(n) // 4) + 1)^d
    assert _probe_draws(SPECS["NLS-512"]) == 2 + 2 * 257 == 516
    nwe = ModelSpec("NWE", Grid((64, 64, 64), (16.0, 16.0, 16.0)), DOUBLE_POWER)
    assert _probe_draws(nwe) == 2 + 2 * 2 * 33**3 == 143750
    assert _probe_draws(SPECS["NBE-64"]) == 2 + 2 * 2 * 33


@pytest.mark.parametrize("name", SPECS)
def test_probes_match_an_independent_full_grid_reference(name):
    # the reference places, masks and scales on the full grid and inverts
    # with np.fft.ifftn: agreement to 1e-13 of the amplitude
    spec = SPECS[name]
    count = 40
    per_probe = _probe_draws(spec)
    words = SplitMix64(5).split("reference").next_block_u64(count * per_probe)
    rng = SplitMix64(5).split("reference")
    got = [row for comps in probe_chunks(spec, rng, count) for row in zip(*comps)]
    for j, row in enumerate(got):
        want, amp, _ = _independent_probe(spec, words[j * per_probe:(j + 1) * per_probe])
        for x, y in zip(row, want):
            assert x.dtype == y.dtype
            assert np.abs(x - y).max() <= 1e-13 * amp


@pytest.mark.parametrize("name", SPECS)
def test_each_probe_keeps_its_band_and_amplitude(name):
    spec = SPECS[name]
    g = spec.grid
    top = np.zeros(g.n, dtype=np.int64)
    for axis, n in enumerate(g.n):
        mode = np.minimum(np.arange(n), n - np.arange(n))
        top = np.maximum(top, mode.reshape([n if a == axis else 1 for a in range(g.dim)]))
    bands = set()
    for stack in probe_chunks(spec, SplitMix64(8).split("bands"), 100, scan=True):
        assert np.all(stack.amplitude >= AMP_RANGE[0]) and np.all(stack.amplitude < AMP_RANGE[1])
        assert np.all(stack.band >= 2) and np.all(stack.band <= min(g.n) // 4)
        bands.update(stack.band.tolist())
        for row, amp, band in zip(zip(*stack.components), stack.amplitude, stack.band):
            for comp in row:
                if spec.model_tag == "NBE":
                    assert comp.dtype == np.float64
                rms = np.sqrt(np.mean(np.abs(comp) ** 2))
                assert rms == pytest.approx(amp, rel=1e-13)
                spectrum = np.abs(np.fft.fftn(comp))
                assert spectrum[top > band].max() <= 1e-13 * spectrum.max()
                assert spectrum[top == band].max() > 1e-3 * spectrum.max()
    assert len(bands) > 1


@pytest.mark.parametrize("name", SPECS)
def test_the_carried_spectrum_gives_the_energy_of_a_fresh_transform(name):
    spec = SPECS[name]
    for stack in probe_chunks(spec, SplitMix64(9).split("carried"), 100, scan=True):
        comps = stack.components
        for carried, fresh in ((energy_of(spec, comps, stack.spectrum), energy_of(spec, comps)),
                               (charge_of(spec, comps, stack.spectrum), charge_of(spec, comps))):
            assert np.all(np.abs(carried - fresh) <= 1e-13 * np.abs(fresh))
        if spec.model_tag == "NBE":
            negated = np.roll(np.flip(stack.spectrum, -1), 1, -1)
            assert np.array_equal(stack.spectrum, np.conj(negated))


@pytest.mark.parametrize("name", ["NLS-512", "NWE-2d", "NBE-64"])
def test_a_later_stack_never_overwrites_what_the_caller_owns(name):
    spec = SPECS[name]
    count = 2 * max(1, 2**15 // spec.grid.size) + 3  # two full stacks and a partial one
    chunks = probe_chunks(spec, SplitMix64(4).split("owned"), count)
    first = next(chunks)
    kept = tuple(comp.copy() for comp in first)
    rest = list(chunks)
    assert rest
    for comp, copy in zip(first, kept):
        assert np.array_equal(comp, copy)
        assert not any(np.shares_memory(comp, later) for stack in rest for later in stack)
    states = probe_states(spec, SplitMix64(4).split("owned"), count)
    for comp, copy in zip(states[0].components, kept):
        assert np.array_equal(comp, copy[0])
    # a scan writes every stack into the same buffers
    scan = probe_chunks(spec, SplitMix64(4).split("owned"), count, scan=True)
    one, two = next(scan), next(scan)
    assert np.shares_memory(one.spectrum, two.spectrum)
    assert all(np.shares_memory(a, b) for a, b in zip(one.components, two.components))


@pytest.mark.parametrize("name", ["NLS-512", "NWE-256", "NWE-2d", "NBE-256"])
def test_ec3i_transform_budget(transform_sizes, name):
    # one inverse transform per component per stack, plus the beam's u_x for
    # its charge; the width sweep's transforms are the same with no probe
    spec = SPECS[name]
    params = PenaltyParams(delta=0.02, a=0.05, s_exp=2.0)
    _coercivity_floor_check(spec, params, SplitMix64(6).split("ec3i"), 0)
    sweep = list(transform_sizes)
    del transform_sizes[:]
    count = 150
    _coercivity_floor_check(spec, params, SplitMix64(6).split("ec3i"), count)
    rows = max(1, 2**15 // spec.grid.size)
    per_stack = _components(spec) + (spec.model_tag == "NBE")
    expected = [min(rows, count - start) * spec.grid.size
                for start in range(0, count, rows) for _ in range(per_stack)]
    assert transform_sizes == expected + sweep


def _nan_in_row(function, row):
    """function with its value of stack row `row` replaced by NaN."""
    def patched(spec, comps, *spectrum):
        value = function(spec, comps, *spectrum)
        if np.ndim(value) and len(value) > row:
            value = value.copy()
            value[row] = np.nan
        return value
    return patched


def test_a_non_finite_probe_fails_ec3i(monkeypatch):
    spec = SPECS["NLS-512"]
    params = choose_coercivity_params(spec, seed=6)
    monkeypatch.setattr("hylosolve.checkers.energy_of", _nan_in_row(energy_of, 3))
    result = _coercivity_floor_check(spec, params, SplitMix64(6).split("ec3i"), 100)
    assert result.verdict == "fail"
    stack = next(probe_chunks(spec, SplitMix64(6).split("ec3i"), 100, scan=True))
    assert result.counterexample == {"source": "non-finite", "probe": 3,
                                     "amplitude": float(stack.amplitude[3]),
                                     "band": int(stack.band[3])}
    assert np.isfinite(result.parameters["min_bulk"])


def test_a_non_finite_probe_fails_ec2(monkeypatch):
    spec = SPECS["NLS-512"]
    monkeypatch.setattr(models, "energy_of", _nan_in_row(energy_of, 3))
    result = _shift_invariance_check(spec, SplitMix64(6).split("ec2"), 50)
    assert result.verdict == "fail"
    assert result.counterexample["source"] == "non-finite"
    assert result.counterexample["probe"] == 3
    assert result.counterexample["functional"] == "E"
    assert np.isfinite(result.parameters["worst_rel"])


def test_ec3i_names_the_random_probe_that_fails():
    # a thousandth of the Young split: random probes go below the floor,
    # while the width sweep's charge (about 4.4) keeps its energy positive
    spec = ModelSpec("NLS", Grid((64,), (5.0,)), WSpec(1.0, SinglePower(1.0, 4.0)))
    young = choose_coercivity_params(spec, seed=6)
    params = PenaltyParams(delta=0.02, a=1e-3 * young.a, s_exp=young.s_exp)
    result = _coercivity_floor_check(spec, params, SplitMix64(6).split("ec3i"), 2000)
    assert result.verdict == "fail"
    case = result.counterexample
    assert case["source"] == "random-probe" and case["value"] < -1e-9
    # redraw it: skip the probes before it, then take one probe alone
    rng = SplitMix64(6).split("ec3i")
    for _ in probe_chunks(spec, rng, case["probe"]):
        pass
    stack = next(probe_chunks(spec, rng, 1, scan=True))
    assert (float(stack.amplitude[0]), int(stack.band[0])) == (case["amplitude"], case["band"])
    bulk = (energy_of(spec, stack.components, stack.spectrum)
            + params.a * np.abs(charge_of(spec, stack.components)) ** params.s_exp)
    assert float(bulk[0]) == case["value"]


@pytest.mark.parametrize("name", ["NLS-512", "NWE-2d", "NLS-3d"])
def test_the_drawn_modes_land_where_a_fancy_index_puts_them(name):
    # band_limited_spectrum's slice copies against one np.ix_ assignment of
    # the coefficients it scaled in place
    g = SPECS[name].grid
    width = min(g.n) // 4
    box = (max(1, 2**15 // g.size),) + (2 * width + 1,) * g.dim
    parts = symmetric_from_bits(SplitMix64(3).split("placement").next_block_u64(
        2 * int(np.prod(box)))).reshape((2,) + box)
    coefficients = parts[0] + 1j * parts[1]
    bands = 2 + np.arange(box[0]) % (width - 1)
    amps = np.geomspace(1e-2, 3.0, box[0])
    got = band_limited_spectrum(g, coefficients, bands, amps, False,
                                np.zeros(box[:1] + g.n, np.complex128))
    want = np.zeros_like(got)
    want[(...,) + np.ix_(*(np.r_[0:width + 1, n - width:n] for n in g.n))] = coefficients
    assert got.tobytes() == want.tobytes()


SCAN_SPECS = {
    "NLS-512": SPECS["NLS-512"],
    "NWE-256": SPECS["NWE-256"],
    "NWE-32^3": ModelSpec("NWE", Grid((32, 32, 32), (16.0, 16.0, 16.0)), DOUBLE_POWER),
}
GATE_PARAMS = PenaltyParams(delta=0.02, a=0.05, s_exp=2.0)


@pytest.mark.parametrize("name", ["NLS-512", "NWE-256"])
def test_the_budgeted_scan_draws_the_first_probes_of_the_full_scan(monkeypatch, name):
    spec = SCAN_SPECS[name]
    seen = []
    chunks = checkers.probe_chunks

    def recording(*args, **kwargs):
        for stack in chunks(*args, **kwargs):
            if kwargs.get("scan"):  # EC-3i's scan, not EC-3ii's one probe
                seen.append(tuple(comp.copy() for comp in stack.components))
            yield stack

    monkeypatch.setattr(checkers, "probe_chunks", recording)
    cert = audit(spec, GATE_PARAMS, budget=2000, seed=6)
    count = cert.results["EC-3i"].parameters["probes"]
    assert count == 2**17 // (_components(spec) * spec.grid.size) == 256
    full = list(probe_chunks(spec, SplitMix64(6).split("ec3i"), 2000))
    for got, want in zip(zip(*seen), zip(*full)):
        assert np.concatenate(got).tobytes() == np.concatenate(want)[:count].tobytes()


def test_a_random_probe_counterexample_under_the_budget_is_redrawn():
    # a thousandth of the Young split on a grid where the budget binds: the
    # descent goes below the floor too, but the random probe comes first
    spec = ModelSpec("NLS", Grid((256,), (5.0,)), WSpec(1.0, SinglePower(1.0, 4.0)))
    young = choose_coercivity_params(spec, seed=6)
    params = PenaltyParams(delta=0.02, a=1e-3 * young.a, s_exp=young.s_exp)
    result = audit(spec, params, budget=2000, seed=6).results["EC-3i"]
    assert result.parameters["probes"] == 512
    assert result.parameters["family_descent"]["bulk"] < -1e-9
    case = result.counterexample
    assert case["source"] == "random-probe" and case["value"] < -1e-9
    rng = SplitMix64(6).split("ec3i")
    for _ in probe_chunks(spec, rng, case["probe"]):
        pass
    stack = next(probe_chunks(spec, rng, 1, scan=True))
    assert case == {"source": "random-probe", **_drawn_probe(stack, case["probe"], 0),
                    "value": case["value"]}
    bulk = (energy_of(spec, stack.components, stack.spectrum)
            + params.a * np.abs(charge_of(spec, stack.components)) ** params.s_exp)
    assert float(bulk[0]) == case["value"]


@pytest.mark.parametrize("name", SCAN_SPECS)
def test_ec3i_transforms_inside_the_audit_stay_within_the_budget(transform_sizes, monkeypatch,
                                                                  name):
    # the random scan within RANDOM_SCAN_POINTS and the descent within its
    # column cap, one transform per column and axis, of that axis's length
    spec = SCAN_SPECS[name]
    calls = {}

    def marked(label, function):
        def wrapper(*args, **kwargs):
            start = len(transform_sizes)
            result = function(*args, **kwargs)
            calls.setdefault(label, []).append((start, len(transform_sizes), result))
            return result
        return wrapper

    for label in ("_coercivity_floor_check", "_gaussian_bulk", "bulk_descent"):
        monkeypatch.setattr(checkers, label, marked(label, getattr(checkers, label)))
    if spec.grid.dim == 3:  # too coarse for the hylomorphy search, which follows EC-3i
        with pytest.raises(Inadmissible):
            audit(spec, GATE_PARAMS, budget=2000, seed=6)
    else:
        audit(spec, GATE_PARAMS, budget=2000, seed=6)
    [(start, end, result)] = calls["_coercivity_floor_check"]
    sweep_start = min(s for s, _, _ in calls["_gaussian_bulk"] if start <= s < end)
    [(d_start, d_end, descent)] = calls["bulk_descent"]
    random = transform_sizes[start:sweep_start]
    probes = result.parameters["probes"]
    assert sum(random) == probes * _components(spec) * spec.grid.size <= RANDOM_SCAN_POINTS
    assert transform_sizes[d_start:d_end] == list(spec.grid.n) * descent["columns"]
    assert descent["columns"] <= DESCENT_COLUMNS
    assert start < sweep_start < d_start < d_end == end
