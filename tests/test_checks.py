"""Checker behavior: passes on the full protection, counterexamples on the
weakened variants, attack search on the corpus program."""

import random

import pytest

from specibt.checks import (
    _lockstep,
    _lockstep_driver,
    attack_search,
    check_bcc_linearize,
    check_bcc_specibt,
    check_relative_security,
    check_safety_preservation,
)
from specibt.explore import ExploreBudget
from specibt.gen import gen_seq_equiv_pair, spec_of
from specibt.hardening import (
    MASK_ONLY,
    NO_CALL_MASK,
    NO_EDGE_SPLIT,
    NO_ENTRY_CHECK,
    HardenError,
    harden,
)
from specibt.interp import (
    DBranch,
    DCallMc,
    DCallMir,
    Lockstep,
    Next,
    OCall,
    OLoad,
    OutOfDirectives,
    State,
    run_spec,
)
from specibt.ir import Asgn, Const, PC
from specibt.machine import McProgram, concretize_state, linearize
from specibt.textio import parse_program

BUDGET = ExploreBudget(depth=3, max_sequences=500, fuel=300)
DEEP = ExploreBudget(depth=4, max_sequences=3000, fuel=400)


def test_bcc_passes_on_listing1(listing1, listing1_pair):
    s1, _ = listing1_pair
    v = check_bcc_specibt(listing1, s1, BUDGET)
    assert v.ok and v.runs > 0


def test_bcc_rejects_ill_formed_source(listing1_pair):
    s1, _ = listing1_pair
    p = parse_program("entry a:\n  ctarget\n  ret\n")
    with pytest.raises(HardenError):
        check_bcc_specibt(p, s1, BUDGET)


def test_safety_passes_on_listing1(listing1, listing1_pair):
    s1, _ = listing1_pair
    v = check_safety_preservation(listing1, s1, BUDGET)
    assert v.ok


def test_safety_precondition_gate(listing1):
    # An unsafe sequential input makes the check inconclusive, not a failure.
    bad = State(PC(0, 0), {"arg1": 1, "len": 4, "base": 100}, (0,) * 8)
    v = check_safety_preservation(listing1, bad, BUDGET)
    assert v.status == "inconclusive"


def test_safety_illtyped_fixture(illtyped):
    # Misspeculation routes an undefined value through a comparison; the
    # hardened program still never gets stuck.
    s = State(PC(0, 0), {"x": 1, "i": 0, "j": 1}, (0,) * 4)
    v = check_safety_preservation(illtyped, s, DEEP)
    assert v.ok


def test_illtyped_fixture_reaches_the_uv_comparison(illtyped):
    # The interesting path really executes: the masked store writes a code
    # pointer that the masked load then feeds into the comparison.
    hp = harden(illtyped)
    from specibt.ir import FP, UV

    regs = {"x": 1, "i": 0, "j": 1, "msf": 0, "callee": FP(0)}
    s = State(PC(0, 0), regs, (0,) * 4, ct=True)
    r = run_spec(hp, s, [DBranch(True), DBranch(False)], 200)
    assert r.status == "term"
    assert r.state is not None and r.state.regs["b"] is UV


def test_rs_passes_on_hardened_listing1(listing1, listing1_pair):
    s1, s2 = listing1_pair
    for pipeline in ("hardened-only", "end-to-end"):
        v = check_relative_security(listing1, s1, s2, DEEP, pipeline)
        assert v.ok, pipeline


def test_rs_trivial_on_identical_states(listing1, listing1_pair):
    s1, _ = listing1_pair
    v = check_relative_security(listing1, s1, s1, BUDGET)
    assert v.ok


def test_rs_inconclusive_on_distinguishable_inputs(listing1, listing1_pair):
    s1, _ = listing1_pair
    s2 = State(s1.pc, {**s1.regs, "arg1": 1}, s1.mem)
    v = check_relative_security(listing1, s1, s2, BUDGET)
    assert v.status == "inconclusive"


@pytest.mark.parametrize(
    "cfg", [NO_EDGE_SPLIT, NO_ENTRY_CHECK], ids=["no-edge-split", "no-entry-check"]
)
def test_mutants_caught_by_relative_security(cfg, listing1, listing1_pair):
    s1, s2 = listing1_pair
    v = check_relative_security(listing1, s1, s2, DEEP, cfg=cfg)
    assert v.status == "counterexample"
    assert v.directives and v.trace1 != v.trace2


@pytest.mark.parametrize(
    "cfg",
    [NO_EDGE_SPLIT, NO_ENTRY_CHECK, NO_CALL_MASK],
    ids=["no-edge-split", "no-entry-check", "no-call-mask"],
)
def test_mutants_caught_by_bcc(cfg, listing1, listing1_pair):
    s1, _ = listing1_pair
    v = check_bcc_specibt(listing1, s1, DEEP, cfg=cfg)
    assert v.status == "counterexample"


def test_pht_attack_search(listing1, listing1_pair):
    s1, s2 = listing1_pair
    found = attack_search(listing1, spec_of(s1), spec_of(s2), BUDGET, cet=False)
    assert found is not None
    dirs, r1, r2 = found
    assert any(isinstance(d, DBranch) and d.taken for d in dirs)
    assert r1.trace != r2.trace


def test_btb_attack_on_masking_only(listing1, listing1_pair):
    s1, s2 = listing1_pair
    hp = harden(listing1, cfg=MASK_ONLY)
    sp1, sp2 = (State(s.pc, {**s.regs, "msf": 0}, s.mem, s.stk) for s in (s1, s2))
    found = attack_search(hp, sp1, sp2, BUDGET, cet=False)
    assert found is not None


def test_example3_exact_injection(listing1, listing1_pair):
    # Correct branch prediction, then the call is misdirected one past the
    # edge-split block head: the taken path runs without its flag update.
    s1, s2 = listing1_pair
    hp = harden(listing1, cfg=MASK_ONLY)
    d = [DBranch(False), DCallMir(PC(5, 1)), DCallMir(PC(4, 0))]
    traces = []
    for s in (s1, s2):
        sp = State(s.pc, {**s.regs, "msf": 0}, s.mem, s.stk)
        traces.append(run_spec(hp, sp, d, 300, cet=False).trace)
    assert traces[0] != traces[1]
    assert traces[0][-1] == OLoad(5) and traces[1][-1] == OLoad(7)


def test_no_attack_on_fully_hardened(listing1, listing1_pair):
    s1, s2 = listing1_pair
    v = check_relative_security(listing1, s1, s2, DEEP)
    assert v.ok


def test_bcc_linearize_on_hardened_listing1(listing1, listing1_pair):
    s1, _ = listing1_pair
    hp = harden(listing1)
    from specibt.ir import FP

    sp = State(s1.pc, {**s1.regs, "msf": 0, "callee": FP(0)}, s1.mem, s1.stk, ct=True)
    v = check_bcc_linearize(hp, sp, BUDGET)
    assert v.ok and v.runs > 0


def test_lockstep_unmappable_directive_is_inconclusive():
    # the only prediction point is a call; address 0 is in the data section
    p = parse_program("entry b0:\n  call &b1\n  ret\nentry b1:\n  ret\n")
    sp = spec_of(State(PC(0, 0), {}, (0,) * 4))
    mc = linearize(p, 4)
    lay = mc.lay
    drv = _lockstep_driver(p, mc)
    s = Lockstep(sp, concretize_state(sp, lay))
    assert isinstance(drv.step(s, None), OutOfDirectives)
    out = drv.step(s, DCallMc(0))
    assert out.status == "inconclusive"
    assert "no source counterpart" in out.reason
    # the mappable call into b1 agrees at both levels
    out = drv.step(s, DCallMc(lay.addr(1)))
    assert isinstance(out, Next)
    assert out.obs == (OCall(lay.addr(1)), OCall(lay.addr(1)))


def test_lockstep_checks_the_state_relation_at_every_step():
    # the machine's `x <- 1` is `x <- 7`: the registers part for one step,
    # and `x <- 2` heals them before any observation could differ
    p = parse_program("entry a:\n  skip\n  x <- 1\n  x <- 2\n  ret\n")
    s0 = spec_of(State(PC(0, 0), {}, (0,)))
    mc = linearize(p, 1)
    code = tuple(Asgn("x", Const(7)) if i == Asgn("x", Const(1)) else i for i in mc.code)
    v = _lockstep(p, s0, McProgram(code, mc.lay), concretize_state(s0, mc.lay), BUDGET)
    assert (v.status, v.reason, v.runs) == ("counterexample", "state relation broken", 1)


def test_bcc_linearize_fuzzed():
    rng = random.Random(77)
    b = ExploreBudget(depth=2, max_sequences=60, fuel=300)
    for _ in range(20):
        pair = gen_seq_equiv_pair(rng, fuel=2000)
        v = check_bcc_linearize(pair.program, spec_of(pair.s1), b)
        assert v.status in ("pass", "inconclusive")
