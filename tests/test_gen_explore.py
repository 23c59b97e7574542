"""Generator and directive-exploration tests."""

import random

from specibt.explore import ExploreBudget, IdealDriver, McDriver, SpecDriver, explore
from specibt.gen import (
    gen_program,
    gen_seq_equiv_pair,
    gen_state,
    ideal_of,
    spec_of,
)
from specibt.hardening import harden
from specibt.interp import DCallMir, run_seq, run_spec
from specibt.ir import FP, PC, Call, wf_program
from specibt.machine import concretize_state, layout, linearize
from specibt.textio import parse_program


def test_generated_programs_are_well_formed():
    rng = random.Random(21)
    for _ in range(300):
        p = gen_program(rng)
        assert wf_program(p, mode="source") == []


def test_generated_programs_avoid_reserved_registers():
    rng = random.Random(22)
    from specibt.ir import used_registers

    for _ in range(100):
        assert not {"msf", "callee"} & used_registers(gen_program(rng))


def test_gen_seq_equiv_pair():
    rng = random.Random(23)
    pair = gen_seq_equiv_pair(rng, fuel=2000)
    r1 = run_seq(pair.program, pair.s1, 2000)
    r2 = run_seq(pair.program, pair.s2, 2000)
    assert r1.status == r2.status == "term"
    assert r1.trace == r2.trace
    assert pair.s1.mem != pair.s2.mem
    diff = [i for i, (a, b) in enumerate(zip(pair.s1.mem, pair.s2.mem)) if a != b]
    assert diff == [pair.secret_cell]


ONE_BRANCH = parse_program(
    "entry a:\n  branch x tgt\n  ret\nblock tgt:\n  ret\n"
)


def test_single_branch_forks_twice():
    s = spec_of(gen_state(random.Random(0)))
    s.regs["x"] = 1
    runs = list(explore(SpecDriver(ONE_BRANCH, cet=False), s, ExploreBudget(depth=1)))
    assert len(runs) == 2
    dirs = {d for ds, _ in runs for d in ds}
    assert {d.taken for d in dirs} == {True, False}
    assert all(r.status == "term" for _, r in runs)


def test_depth_zero_is_a_single_correct_run():
    s0 = gen_state(random.Random(0))
    s0.regs["x"] = 0
    s = spec_of(s0)
    runs = list(explore(SpecDriver(ONE_BRANCH, cet=False), s, ExploreBudget(depth=0)))
    assert len(runs) == 1
    dirs, res = runs[0]
    assert res.status == "term"
    # the correct prediction matches the sequential branch outcome
    seq = run_seq(ONE_BRANCH, s0, 100)
    assert [d.taken for d in dirs] == [o.taken for o in seq.trace]


def test_injected_midblock_call_faults(listing1, listing1_pair):
    # With the ctarget check armed, landing past a block head faults.
    s1, _ = listing1_pair
    hp = harden(listing1).hardened
    sp = spec_of(s1, ct=True)
    sp.regs["msf"], sp.regs["callee"] = 0, FP(0)
    faulted = False
    for dirs, res in explore(SpecDriver(hp, cet=True), sp, ExploreBudget(depth=3)):
        if any(isinstance(d, DCallMir) and d.target.offset == 1 for d in dirs):
            assert res.status == "fault"
            faulted = True
    assert faulted


def test_call_candidates_cover_heads_and_midblocks(listing1):
    hp = harden(listing1).hardened
    drv = SpecDriver(hp)
    s = spec_of(gen_state(random.Random(1)))
    # candidates are inspected at a call site; fabricate one
    call_pc = PC(2, 1)  # the call in the hardened call block
    from specibt.ir import fetch

    assert isinstance(fetch(hp, call_pc), Call)
    from dataclasses import replace

    cands = drv.candidates(replace(s, pc=call_pc))
    labels = {d.target for d in cands}
    n = len(hp.blocks)
    assert {PC(l, 0) for l in range(n)} <= labels
    assert PC(1, 1) in labels  # one mid-block offset per multi-inst block


def test_explore_respects_max_sequences():
    rng = random.Random(3)
    p = harden(gen_program(rng)).hardened
    s = spec_of(gen_state(rng), ct=True)
    s.regs["msf"], s.regs["callee"] = 0, FP(0)
    runs = list(explore(SpecDriver(p), s, ExploreBudget(depth=4, max_sequences=17)))
    assert len(runs) <= 17


def test_explore_is_deterministic():
    rng = random.Random(9)
    p = gen_program(rng)
    s = spec_of(gen_state(rng))
    b = ExploreBudget(depth=2, max_sequences=50)
    one = [(d, r.trace, r.status) for d, r in explore(SpecDriver(p, cet=False), s, b)]
    two = [(d, r.trace, r.status) for d, r in explore(SpecDriver(p, cet=False), s, b)]
    assert one == two


def test_explored_spec_runs_replay():
    # Re-running an explored directive sequence reproduces its result.
    rng = random.Random(31)
    p = harden(gen_program(rng)).hardened
    s = spec_of(gen_state(rng), ct=True)
    s.regs["msf"], s.regs["callee"] = 0, FP(0)
    b = ExploreBudget(depth=2, max_sequences=40, fuel=300)
    for dirs, res in explore(SpecDriver(p), s, b):
        again = run_spec(p, s, dirs, 300)
        assert again.trace == res.trace and again.status == res.status


def test_ideal_and_mc_drivers_run(listing1, listing1_pair):
    s1, _ = listing1_pair
    runs = list(explore(IdealDriver(listing1), ideal_of(s1), ExploreBudget(depth=2)))
    assert runs
    assert {r.status for _, r in runs} <= {"term", "fault", "fuel"}
    lay = layout(listing1, 8)
    mc = linearize(listing1, 8)
    m = concretize_state(spec_of(s1), lay)
    runs = list(explore(McDriver(mc, lay), m, ExploreBudget(depth=2)))
    assert runs
    # the unhardened program has no ctarget landing pads, so every call
    # faults at the machine level
    assert {r.status for _, r in runs} == {"fault"}
