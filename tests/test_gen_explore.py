"""Generator and directive-exploration tests."""

import hashlib
import json
import pathlib
import random

from specibt.explore import (
    Driver,
    ExploreBudget,
    IdealDriver,
    McDriver,
    SpecDriver,
    explore,
)
from specibt.gen import (
    gen_program,
    gen_safe_input,
    gen_seq_equiv_pair,
    gen_state,
    spec_of,
)
from specibt.hardening import harden
from specibt.interp import (
    DBranch,
    DCallMir,
    Next,
    OBranch,
    OutOfDirectives,
    State,
    run_seq,
    run_spec,
)
from specibt.ir import FP, PC, wf_program
from specibt.machine import concretize_state, linearize
from specibt.textio import encode_directives, encode_trace, parse_program


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
    s0 = gen_state(random.Random(0))
    s = State(s0.pc, {**s0.regs, "x": 1}, s0.mem)
    runs = list(explore(SpecDriver(ONE_BRANCH, cet=False), s, ExploreBudget(depth=1)))
    assert len(runs) == 2
    dirs = {d for ds, _ in runs for d in ds}
    assert {d.taken for d in dirs} == {True, False}
    assert all(r.status == "term" for _, r in runs)


def test_depth_zero_is_a_single_correct_run():
    g = gen_state(random.Random(0))
    s0 = State(g.pc, {**g.regs, "x": 0}, g.mem)
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
    hp = harden(listing1)
    sp = State(s1.pc, {**s1.regs, "msf": 0, "callee": FP(0)}, s1.mem, s1.stk, ct=True)
    faulted = False
    for dirs, res in explore(SpecDriver(hp, cet=True), sp, ExploreBudget(depth=3)):
        if any(isinstance(d, DCallMir) and d.target.offset == 1 for d in dirs):
            assert res.status == "fault"
            faulted = True
    assert faulted


def test_call_candidates_cover_heads_and_midblocks(listing1):
    hp = harden(listing1)
    labels = {d.target for d in SpecDriver(hp).calls}
    n = len(hp.blocks)
    assert {PC(l, 0) for l in range(n)} <= labels
    assert PC(1, 1) in labels  # one mid-block offset per multi-inst block


def test_explore_respects_max_sequences():
    rng = random.Random(3)
    p = harden(gen_program(rng))
    g = gen_state(rng)
    s = State(g.pc, {**g.regs, "msf": 0, "callee": FP(0)}, g.mem, g.stk, ct=True)
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
    p = harden(gen_program(rng))
    g = gen_state(rng)
    s = State(g.pc, {**g.regs, "msf": 0, "callee": FP(0)}, g.mem, g.stk, ct=True)
    b = ExploreBudget(depth=2, max_sequences=40, fuel=300)
    for dirs, res in explore(SpecDriver(p), s, b):
        again = run_spec(p, s, dirs, 300)
        assert again.trace == res.trace and again.status == res.status


def test_ideal_and_mc_drivers_run(listing1, listing1_pair):
    s1, _ = listing1_pair
    runs = list(explore(IdealDriver(listing1), spec_of(s1), ExploreBudget(depth=2)))
    assert runs
    assert {r.status for _, r in runs} <= {"term", "fault", "fuel"}
    mc = linearize(listing1, 8)
    m = concretize_state(spec_of(s1), mc.lay)
    runs = list(explore(McDriver(mc), m, ExploreBudget(depth=2)))
    assert runs
    # the unhardened program has no ctarget landing pads, so every call
    # faults at the machine level
    assert {r.status for _, r in runs} == {"fault"}


EXPLORE_PINNED = pathlib.Path(__file__).parent / "data" / "explore_outputs.json"


def _safe_programs(seed: int, programs: int):
    """`programs` generated programs, each with a safe input."""
    rng = random.Random(seed)
    out = []
    while len(out) < programs:
        p = gen_program(rng)
        s = gen_safe_input(rng, p, fuel=200)
        if s is not None:
            out.append((p, s))
    return out


def _explorations(seed: int, programs: int):
    """(driver name, driver, initial state) for `programs` generated
    programs with a safe input each: the hardened program speculatively
    (CET on) from the hardened initial state and at machine level, and the
    source program speculatively (CET off) and under the ideal semantics,
    with the misspeculation flag clear and set."""
    out = []
    for p, s in _safe_programs(seed, programs):
        hp = harden(p)
        hs = State(s.pc, {**s.regs, "msf": 0, "callee": FP(0)}, s.mem, s.stk, ct=True)
        mc = linearize(hp, len(s.mem))
        out += [
            ("spec-hardened", SpecDriver(hp, cet=True), hs),
            ("spec-source", SpecDriver(p, cet=False), spec_of(s)),
            ("ideal", IdealDriver(p), spec_of(s)),
            ("ideal-ms", IdealDriver(p), spec_of(s, ms=True)),
            ("mc", McDriver(mc), concretize_state(hs, mc.lay)),
        ]
    return out


def _explore_digests(seed: int, programs: int, depths) -> dict[str, str]:
    """SHA-256 of every explored sequence's directives, trace, status and
    reason, one digest per driver and depth."""
    digests = {}
    for depth in depths:
        budget = ExploreBudget(depth=depth, max_sequences=40, fuel=200)
        for name, drv, s0 in _explorations(seed, programs):
            h = digests.setdefault(f"{name}/{depth}", hashlib.sha256())
            for dirs, r in explore(drv, s0, budget):
                doc = [encode_directives(dirs), encode_trace(r.trace), r.status, r.reason]
                h.update(json.dumps(doc).encode())
    return {k: h.hexdigest() for k, h in sorted(digests.items())}


def test_explored_outputs_are_pinned():
    pinned = json.loads(EXPLORE_PINNED.read_text())
    got = _explore_digests(pinned["seed"], pinned["programs"], pinned["depths"])
    assert got == pinned["sha256"]


def test_correct_directive_follows_the_program():
    """At every prediction point that exploration reaches, stepping with
    the reported correct directive goes on without changing `ms`. Under
    the ideal semantics with `ms` set, it is the masked one: branch not
    taken, call to &0."""
    budget = ExploreBudget(depth=3, max_sequences=40, fuel=200)
    masked = {"branch": 0, "call": 0}
    reached = set()
    for name, drv, s0 in _explorations(11, 20):
        points = []

        def step(s, d, drv=drv, points=points):
            out = drv.step(s, d)
            if isinstance(out, OutOfDirectives):
                points.append((s, out.correct))
            return out

        for _ in explore(Driver(step, drv.calls), s0, budget):
            pass
        reached |= {name} if points else set()
        for s, correct in points:
            out = drv.step(s, correct)
            assert isinstance(out, Next) and out.state.ms == s.ms, (name, s, correct)
            if name.startswith("ideal") and s.ms:
                kind = "branch" if isinstance(out.obs, OBranch) else "call"
                want = DBranch(False) if kind == "branch" else DCallMir(PC(0, 0))
                assert correct == want
                masked[kind] += 1
    assert reached == {"spec-hardened", "spec-source", "ideal", "ideal-ms", "mc"}
    assert masked["branch"] and masked["call"]
