"""A falsification corpus for the hypothesis audit.

Every entry is a model, a grid and penalty parameters (the audit's own
choice where none are given), and its pin is the outcome of
audit(spec, params, budget=2000): one letter per GATE_IDS check (p pass,
f fail, s skipped), then EC-3i's counterexample source ("-" when it passes);
or "Inadmissible" where the audit raises it (a grid too coarse for the
Gaussian probe widths of the hylomorphy search).
gate_passed must agree with the letters.  The entries span the three
models on 1-d, 2-d and 3-d grids, W that are nonnegative, dipping,
focusing and supercritical, and coefficients a on both sides of the
coercivity threshold.
"""

import pytest

from hylosolve import (DoublePower, Grid, Inadmissible, ModelSpec, PenaltyParams, Saturating,
                       SinglePower, WSpec, audit, choose_coercivity_params, gate_passed)
from hylosolve.checkers import GATE_IDS

W = {
    "focusing": WSpec(1.0, SinglePower(1.0, 4.0)),
    "tailed": WSpec(1.0, DoublePower(1.0, 4.0, 0.3, 6.0)),
    "dipping": WSpec(1.0, DoublePower(1.0, 4.0, 0.1, 6.0)),
    "deep-dip": WSpec(1.0, DoublePower(2.0, 4.0, 0.1, 6.0)),
    "saturating-0.5": WSpec(1.0, Saturating(0.0, 0.5)),
    "saturating-2": WSpec(1.0, Saturating(0.0, 2.0)),
    "p8": WSpec(1.0, SinglePower(1.0, 8.0)),
    "free": WSpec(1.0, SinglePower(0.0, 4.0)),
    "p3": WSpec(1.0, SinglePower(1.0, 3.0)),
}
GRIDS_1D = {"256/40": Grid((256,), (40.0,)), "64/20": Grid((64,), (20.0,)),
            "512/40": Grid((512,), (40.0,)), "64/5": Grid((64,), (5.0,))}
GRIDS_ND = {"32x16/5,3": Grid((32, 16), (5.0, 3.0)), "64^2/20": Grid((64, 64), (20.0, 20.0)),
            "16x16x32/8,8,12": Grid((16, 16, 32), (8.0, 8.0, 12.0)),
            "32^3/16": Grid((32, 32, 32), (16.0, 16.0, 16.0))}
GRID_64_CUBED = Grid((64, 64, 64), (16.0, 16.0, 16.0))
SECH_FRACTIONS = (0.5, 0.9, 0.95, 0.96, 0.99, 1.0, 1.1)
YOUNG_FRACTIONS = (1e-3, 1e-2, 0.1, 0.45, 0.495, 1.0)
YOUNG_GRIDS = ("64/5", "256/5", "64/20")


def _young_fraction(spec, fraction):
    """fraction times the audit's own Young-split coefficient, at its s."""
    young = choose_coercivity_params(spec)
    return PenaltyParams(delta=0.02, a=fraction * young.a, s_exp=young.s_exp)


def _entries():
    """entry id -> (spec, params or None, or a callable of the spec giving
    them)."""
    entries = {}
    for tag in ("NLS", "NWE", "NBE"):
        for w_name, w in W.items():
            for g_name, g in GRIDS_1D.items():
                entries[f"{tag} {w_name} {g_name}"] = (ModelSpec(tag, g, w), None)
    for tag in ("NLS", "NWE"):
        for w_name in ("tailed", "focusing", "p3"):
            for g_name, g in GRIDS_ND.items():
                entries[f"{tag} {w_name} {g_name}"] = (ModelSpec(tag, g, W[w_name]), None)
    nls_512 = ModelSpec("NLS", GRIDS_1D["512/40"], W["focusing"])
    for f in SECH_FRACTIONS:
        entries[f"NLS 512/40 a={f}/96"] = (
            nls_512, PenaltyParams(delta=0.02, a=f / 96.0, s_exp=3.0))
    for g_name in YOUNG_GRIDS:
        n, box = g_name.split("/")
        spec = ModelSpec("NLS", Grid((int(n),), (float(box),)), W["focusing"])
        for f in YOUNG_FRACTIONS:
            entries[f"NLS {g_name} a={f}*young"] = (spec, lambda s, f=f: _young_fraction(s, f))
    entries["NWE tailed 256/40 a=0.05 s=2"] = (
        ModelSpec("NWE", GRIDS_1D["256/40"], W["tailed"]),
        PenaltyParams(delta=0.02, a=0.05, s_exp=2.0))
    entries["NWE tailed 64^3/16"] = (ModelSpec("NWE", GRID_64_CUBED, W["tailed"]), None)
    entries["NWE dipping 64^3/16"] = (ModelSpec("NWE", GRID_64_CUBED, W["dipping"]), None)
    return entries


ENTRIES = _entries()


def outcome(spec, params) -> str:
    """The pin of one entry (module docstring)."""
    if callable(params):
        params = params(spec)
    try:
        cert = audit(spec, params, budget=2000)
    except Inadmissible:
        return "Inadmissible"
    letters = "".join(cert.results[cid].verdict[0] for cid in GATE_IDS)
    assert gate_passed(cert) is (letters == "p" * len(GATE_IDS))
    case = cert.results["EC-3i"].counterexample
    return f"{letters} {case['source'] if case else '-'}"


PINS = {
    "NLS focusing 256/40": "ppppppp -",
    "NLS focusing 64/20": "ppppppp -",
    "NLS focusing 512/40": "ppppppp -",
    "NLS focusing 64/5": "ppppppp -",
    "NLS tailed 256/40": "ppppppp -",
    "NLS tailed 64/20": "ppppppp -",
    "NLS tailed 512/40": "ppppppp -",
    "NLS tailed 64/5": "ppppppf -",
    "NLS dipping 256/40": "ppppppp -",
    "NLS dipping 64/20": "ppppppp -",
    "NLS dipping 512/40": "ppppppp -",
    "NLS dipping 64/5": "ppppppf -",
    "NLS deep-dip 256/40": "ppppppp -",
    "NLS deep-dip 64/20": "ppppppp -",
    "NLS deep-dip 512/40": "ppppppp -",
    "NLS deep-dip 64/5": "ppppppp -",
    "NLS saturating-0.5 256/40": "ppppppp -",
    "NLS saturating-0.5 64/20": "ppppppp -",
    "NLS saturating-0.5 512/40": "ppppppp -",
    "NLS saturating-0.5 64/5": "ppppppf -",
    "NLS saturating-2 256/40": "ppppppp -",
    "NLS saturating-2 64/20": "ppppppp -",
    "NLS saturating-2 512/40": "ppppppp -",
    "NLS saturating-2 64/5": "ppppppf -",
    "NLS p8 256/40": "ppffppp width-sweep",
    "NLS p8 64/20": "ppffppp width-sweep",
    "NLS p8 512/40": "ppffppp width-sweep",
    "NLS p8 64/5": "ppffppp width-sweep",
    "NLS free 256/40": "ppppppf -",
    "NLS free 64/20": "ppppppf -",
    "NLS free 512/40": "ppppppf -",
    "NLS free 64/5": "ppppppf -",
    "NLS p3 256/40": "ppppppp -",
    "NLS p3 64/20": "ppppppp -",
    "NLS p3 512/40": "ppppppp -",
    "NLS p3 64/5": "ppppppf -",
    "NWE focusing 256/40": "ppffppp plateau",
    "NWE focusing 64/20": "ppffppp plateau",
    "NWE focusing 512/40": "ppffppp plateau",
    "NWE focusing 64/5": "ppffppp plateau",
    "NWE tailed 256/40": "ppppppp -",
    "NWE tailed 64/20": "ppppppp -",
    "NWE tailed 512/40": "ppppppp -",
    "NWE tailed 64/5": "ppppppf -",
    "NWE dipping 256/40": "ppfpppp plateau",
    "NWE dipping 64/20": "ppfpppp plateau",
    "NWE dipping 512/40": "ppfpppp plateau",
    "NWE dipping 64/5": "ppfpppf plateau",
    "NWE deep-dip 256/40": "ppfpppp plateau",
    "NWE deep-dip 64/20": "ppfpppp plateau",
    "NWE deep-dip 512/40": "ppfpppp plateau",
    "NWE deep-dip 64/5": "ppfpppp plateau",
    "NWE saturating-0.5 256/40": "ppppppp -",
    "NWE saturating-0.5 64/20": "ppppppp -",
    "NWE saturating-0.5 512/40": "ppppppp -",
    "NWE saturating-0.5 64/5": "ppppppf -",
    "NWE saturating-2 256/40": "ppppppp -",
    "NWE saturating-2 64/20": "ppppppp -",
    "NWE saturating-2 512/40": "ppppppp -",
    "NWE saturating-2 64/5": "ppppppf -",
    "NWE p8 256/40": "ppffppp plateau",
    "NWE p8 64/20": "ppffppp plateau",
    "NWE p8 512/40": "ppffppp plateau",
    "NWE p8 64/5": "ppffppp plateau",
    "NWE free 256/40": "ppppppf -",
    "NWE free 64/20": "ppppppf -",
    "NWE free 512/40": "ppppppf -",
    "NWE free 64/5": "ppppppf -",
    "NWE p3 256/40": "ppffppp plateau",
    "NWE p3 64/20": "ppffppp plateau",
    "NWE p3 512/40": "ppffppp plateau",
    "NWE p3 64/5": "ppffppf plateau",
    "NBE focusing 256/40": "ppffppp plateau",
    "NBE focusing 64/20": "ppffppp plateau",
    "NBE focusing 512/40": "ppffppp plateau",
    "NBE focusing 64/5": "ppffppf plateau",
    "NBE tailed 256/40": "ppppppf -",
    "NBE tailed 64/20": "ppppppf -",
    "NBE tailed 512/40": "ppppppf -",
    "NBE tailed 64/5": "ppppppf -",
    "NBE dipping 256/40": "ppfpppp plateau",
    "NBE dipping 64/20": "ppfpppp plateau",
    "NBE dipping 512/40": "ppfpppp plateau",
    "NBE dipping 64/5": "ppfpppf plateau",
    "NBE deep-dip 256/40": "ppfpppp plateau",
    "NBE deep-dip 64/20": "ppfpppp plateau",
    "NBE deep-dip 512/40": "ppfpppp plateau",
    "NBE deep-dip 64/5": "ppfpppf plateau",
    "NBE saturating-0.5 256/40": "ppppppf -",
    "NBE saturating-0.5 64/20": "ppppppf -",
    "NBE saturating-0.5 512/40": "ppppppf -",
    "NBE saturating-0.5 64/5": "ppppppf -",
    "NBE saturating-2 256/40": "ppppppf -",
    "NBE saturating-2 64/20": "ppppppf -",
    "NBE saturating-2 512/40": "ppppppf -",
    "NBE saturating-2 64/5": "ppppppf -",
    "NBE p8 256/40": "ppffppp plateau",
    "NBE p8 64/20": "ppffppp plateau",
    "NBE p8 512/40": "ppffppp plateau",
    "NBE p8 64/5": "ppffppp plateau",
    "NBE free 256/40": "ppppppf -",
    "NBE free 64/20": "ppppppf -",
    "NBE free 512/40": "ppppppf -",
    "NBE free 64/5": "ppppppf -",
    "NBE p3 256/40": "ppffppp plateau",
    "NBE p3 64/20": "ppffppp plateau",
    "NBE p3 512/40": "ppffppp plateau",
    "NBE p3 64/5": "ppfpppf plateau",
    "NLS tailed 32x16/5,3": "Inadmissible",
    "NLS tailed 64^2/20": "ppppppp -",
    "NLS tailed 16x16x32/8,8,12": "Inadmissible",
    "NLS tailed 32^3/16": "Inadmissible",
    "NLS focusing 32x16/5,3": "Inadmissible",
    "NLS focusing 64^2/20": "ppppppp -",
    "NLS focusing 16x16x32/8,8,12": "Inadmissible",
    "NLS focusing 32^3/16": "Inadmissible",
    "NLS p3 32x16/5,3": "Inadmissible",
    "NLS p3 64^2/20": "ppppppp -",
    "NLS p3 16x16x32/8,8,12": "Inadmissible",
    "NLS p3 32^3/16": "Inadmissible",
    "NWE tailed 32x16/5,3": "Inadmissible",
    "NWE tailed 64^2/20": "ppppppp -",
    "NWE tailed 16x16x32/8,8,12": "Inadmissible",
    "NWE tailed 32^3/16": "Inadmissible",
    "NWE focusing 32x16/5,3": "Inadmissible",
    "NWE focusing 64^2/20": "ppffppp plateau",
    "NWE focusing 16x16x32/8,8,12": "Inadmissible",
    "NWE focusing 32^3/16": "Inadmissible",
    "NWE p3 32x16/5,3": "Inadmissible",
    "NWE p3 64^2/20": "ppffppp plateau",
    "NWE p3 16x16x32/8,8,12": "Inadmissible",
    "NWE p3 32^3/16": "Inadmissible",
    "NLS 512/40 a=0.5/96": "ppfpppp width-sweep",
    "NLS 512/40 a=0.9/96": "ppfpppp family-descent",
    "NLS 512/40 a=0.95/96": "ppfpppp family-descent",
    "NLS 512/40 a=0.96/96": "ppppppp -",
    "NLS 512/40 a=0.99/96": "ppppppp -",
    "NLS 512/40 a=1.0/96": "ppppppp -",
    "NLS 512/40 a=1.1/96": "ppppppp -",
    "NLS 64/5 a=0.001*young": "ppffppp family-descent",
    "NLS 64/5 a=0.01*young": "ppffppp family-descent",
    "NLS 64/5 a=0.1*young": "ppffppp family-descent",
    "NLS 64/5 a=0.45*young": "ppfpppp family-descent",
    "NLS 64/5 a=0.495*young": "ppfpppp family-descent",
    "NLS 64/5 a=1.0*young": "ppppppp -",
    "NLS 256/5 a=0.001*young": "ppffppp family-descent",
    "NLS 256/5 a=0.01*young": "ppffppp family-descent",
    "NLS 256/5 a=0.1*young": "ppffppp family-descent",
    "NLS 256/5 a=0.45*young": "ppfpppp family-descent",
    "NLS 256/5 a=0.495*young": "ppfpppp family-descent",
    "NLS 256/5 a=1.0*young": "ppppppp -",
    "NLS 64/20 a=0.001*young": "ppffppp width-sweep",
    "NLS 64/20 a=0.01*young": "ppffppp width-sweep",
    "NLS 64/20 a=0.1*young": "ppfpppp width-sweep",
    "NLS 64/20 a=0.45*young": "ppppppp -",
    "NLS 64/20 a=0.495*young": "ppppppp -",
    "NLS 64/20 a=1.0*young": "ppppppp -",
    "NWE tailed 256/40 a=0.05 s=2": "ppppppp -",
    "NWE tailed 64^3/16": "ppppppp -",
    "NWE dipping 64^3/16": "ppfpppp plateau",
}


@pytest.mark.parametrize("entry", ENTRIES)
def test_the_audit_outcome_is_pinned(entry):
    assert outcome(*ENTRIES[entry]) == PINS[entry]
