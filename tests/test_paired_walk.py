"""The paired walk of the relational checks, against an oracle, and the steps
a run reports.

`checks._diverge` takes `explore.walk` with a second side: the walk steps
side 1 with the driver, runs side 2 in legs resumed at prediction points,
and counts a subtree that came out clean, instead of walking it, when its
key comes up again. Its result must equal the oracle's in every field:
each sequence `explore` reaches, run from scratch on both sides and stepped
throughout (`test_periods.plain_run`, so no period is taken at once), and
`_traces_match`, stopping at the first sequence whose traces differ. The
same holds under a sequence cap that falls inside a counted subtree, when
the fuel runs out within a leg, against the weakened passes, and on a walk
more forks deep than Python's recursion limit.
"""

import json
import pathlib
import random
from functools import partial

import pytest

import specibt.explore
import specibt.interp
from specibt.checks import (
    _diverge,
    _hardened_init,
    _traces_match,
    check_relative_security,
)
from specibt.explore import ExploreBudget, IdealDriver, McDriver, SpecDriver, explore
from specibt.gen import gen_state, spec_of
from specibt.hardening import NO_CALL_MASK, NO_EDGE_SPLIT, NO_ENTRY_CHECK, harden
from specibt.interp import (
    DBranch,
    State,
    run_ideal,
    run_seq,
    run_spec,
    step_ideal,
    step_spec,
)
from specibt.ir import PC
from specibt.machine import concretize_state, linearize, run_mc, step_mc
from specibt.textio import decode_pair, parse_program
from test_periods import plain_run

ROOT = pathlib.Path(__file__).parent.parent
LISTING1 = parse_program((ROOT / "corpus" / "listing1.mir").read_text())
PAIR = decode_pair(json.loads((ROOT / "corpus" / "listing1_pair.json").read_text()))
# bench/gen_corpus programs that fork at depth 6, from 12 to 120 sequences
GEN = ("p00", "p08", "p24", "p31", "p32")
FUELS = (3, 7, 25, 1000)
LOOP_FORKS = parse_program("entry a:\n  jump b\nblock b:\n  branch x b\n  ret\n")


# the step function of each `run_*` engine
STEPS = {run_spec: step_spec, run_ideal: step_ideal, run_mc: step_mc}


def _oracle(driver, s0, run, r0, budget):
    """`_diverge` by definition: each sequence `explore` reaches, run from
    scratch on both sides and stepped throughout (`plain_run`); side 2 takes
    the steps of `run`, a `partial` of a `run_*` engine."""
    step2 = partial(STEPS[run.func], *run.args, **run.keywords)
    runs = 0
    for dirs, _ in explore(driver, s0, budget):
        runs += 1
        r1 = plain_run(driver.step, s0, dirs, budget.fuel)
        r2 = plain_run(step2, r0, dirs, budget.fuel)
        if not _traces_match(r1, r2):
            return runs, (list(dirs), r1, r2)
    return runs, None


def _capped(oracle, cap):
    """The oracle's answer under a sequence cap of `cap`, from its answer
    without one."""
    return (cap, None) if cap < oracle[0] else oracle


def _inputs():
    """(name, program, state pair, depth, sequence cap, fuels) of each
    input."""
    yield "listing1", LISTING1, PAIR, 6, 10**9, FUELS
    for name in GEN:
        p = parse_program((ROOT / "bench" / "gen_corpus" / f"{name}.mir").read_text())
        rng = random.Random(name)
        yield name, p, (gen_state(rng), gen_state(rng)), 6, 10**9, FUELS
    # A branch that is a fork at every iteration: with x = 1, each of the
    # first sequences forks about 1,200 times, beyond Python's recursion
    # limit. The oracle replays every sequence from scratch, so the cap keeps
    # it to seconds.
    s = State(PC(0, 0), {"x": 1}, (0,))
    yield "loop", LOOP_FORKS, (s, s), 1200, 20, (4000,)
    # 256 sequences end at the fuel in the masked-call recursion: 16 items
    # of the hardened walks, the rest in counted subtrees
    yield "listing1-deep", LISTING1, PAIR, 16, 10**9, (150,)


def _semantics(p, s1, s2):
    """(name, driver, explored state, second state, run) for each engine
    the checkers use, on `p` hardened (the ideal one on `p`)."""
    hp = harden(p)
    h1, h2 = _hardened_init(s1), _hardened_init(s2)
    yield "spec", SpecDriver(hp, cet=True), h1, h2, partial(run_spec, hp, cet=True)
    yield "ideal", IdealDriver(p), spec_of(s1), spec_of(s2), partial(run_ideal, p)
    mc = linearize(hp, len(s1.mem))
    yield ("mc", McDriver(mc), concretize_state(h1, mc.lay),
           concretize_state(h2, mc.lay), partial(run_mc, mc))


CASES = [(name, sem, fuel) for name, *_, fuels in _inputs()
         for sem in ("spec", "ideal", "mc") for fuel in fuels]


@pytest.mark.parametrize("name,sem,fuel", CASES)
def test_paired_walk_equals_the_oracle(name, sem, fuel):
    p, (s1, s2), depth, most = next(x[1:5] for x in _inputs() if x[0] == name)
    _, driver, r1, r2, run = next(x for x in _semantics(p, s1, s2) if x[0] == sem)
    # against the other state, and against itself: a walk with no
    # divergence, in which every repeated key is counted (the deep walk has
    # none against the other state already)
    for other in (r2,) if name == "listing1-deep" else (r2, r1):
        oracle = _oracle(driver, r1, run, other, ExploreBudget(depth, most, fuel))
        for cap in (*range(1, min(oracle[0] + 2, most), max(1, oracle[0] // 6)), most):
            budget = ExploreBudget(depth, cap, fuel)
            assert _diverge(driver, r1, run, other, budget) == _capped(oracle, cap)


@pytest.mark.parametrize("pipeline", ["hardened-only", "end-to-end"])
@pytest.mark.parametrize("cfg,runs", [(NO_EDGE_SPLIT, 594), (NO_ENTRY_CHECK, 1388)])
def test_weakened_passes_give_the_first_counterexample(cfg, runs, pipeline):
    s1, s2 = PAIR
    hp = harden(LISTING1, cfg=cfg)
    h1, h2 = _hardened_init(s1), _hardened_init(s2)
    if pipeline == "hardened-only":
        args = (SpecDriver(hp, cet=True), h1, partial(run_spec, hp, cet=True), h2)
    else:
        mc = linearize(hp, len(s1.mem))
        args = (McDriver(mc), concretize_state(h1, mc.lay), partial(run_mc, mc),
                concretize_state(h2, mc.lay))
    budget = ExploreBudget(12, 10**9, 1000)
    found = _diverge(*args, budget)
    assert found == _oracle(*args, budget)
    if pipeline == "hardened-only":
        assert found[0] == runs


def test_unmasked_call_gives_the_first_bcc_counterexample():
    s1 = PAIR[0]
    hp = harden(LISTING1, cfg=NO_CALL_MASK)
    args = (SpecDriver(hp, cet=True), _hardened_init(s1),
            partial(run_ideal, LISTING1), spec_of(s1))
    budget = ExploreBudget(12, 10**9, 1000)
    found = _diverge(*args, budget)
    assert found == _oracle(*args, budget)
    assert found[0] == 1


def test_caps_inside_counted_subtrees():
    """Depth 10 on hardened Listing 1: 714 sequences, most of them in
    subtrees counted from an earlier key."""
    s1, s2 = PAIR
    hp = harden(LISTING1)
    args = (SpecDriver(hp, cet=True), _hardened_init(s1), partial(run_spec, hp, cet=True),
            _hardened_init(s2))
    oracle = _oracle(*args, ExploreBudget(10, 10**9, 1000))
    assert oracle == (714, None)
    for cap in range(1, 720, 23):
        assert _diverge(*args, ExploreBudget(10, cap, 1000)) == _capped(oracle, cap)


def _fork_join(p_body: str, q_body: str, after: str):
    """Fork 0 mispredicts into block m (its correct way ends the run); fork 1
    takes path P (taken, first in depth-first order) or path Q; both join
    at block j, where fork 2 branches on `z` and runs `after` either way.
    Instructions are separated by ';'."""
    lines = {k: "\n".join("  " + i.strip() for i in v.split(";"))
             for k, v in (("p", p_body), ("q", q_body), ("after", after))}
    return parse_program(
        "entry a:\n  branch zero m\n  ret\n"
        f"block m:\n  branch one p\n{lines['q']}\n  jump j\n"
        f"block p:\n{lines['p']}\n  jump j\n"
        f"block j:\n  branch z k\n{lines['after']}\n  ret\n"
        f"block k:\n{lines['after']}\n  ret\n"
    )


S0 = State(PC(0, 0), {"one": 1, "zero": 0, "z": 0, "r": 5}, (5, 5, 0, 0))
Z1 = S0._replace(regs={**S0.regs, "z": 1})
# After P and after Q, fork 2 has the same key but for the named part. P's
# subtree comes out clean and Q's does not, so a key without that part
# would count Q as clean. Each case: side 1's and side 2's (P, Q, after)
# (None: a program that ends at once), and their start states.
KEYED = {
    "side-1 state": (("z <- 0", "skip", "skip"), ("z <- 0", "skip", "skip"), Z1, S0),
    "side-2 state": (("z <- 0", "skip", "skip"), ("z <- 0", "skip", "skip"), S0, Z1),
    "side-1 fuel": (("skip; skip", "skip", "skip"), None, S0, S0),
    "side-2 fuel": (("skip", "skip", "load r, 0"), ("skip; skip", "skip", "skip"), S0, S0),
    "owner": (("load r, 0", "skip", "skip"),
              ("skip; skip; skip; skip", "load r, 0; skip; skip; skip", "skip"), S0, S0),
    "matched": (("load r, 0", "load r, 0", "skip"), ("load r, 0", "load r, 1", "skip"),
                S0, S0),
}


@pytest.mark.parametrize("case", sorted(KEYED))
def test_each_part_of_the_key_tells_subtrees_apart(case):
    side1, side2, s1, s2 = KEYED[case]
    p1 = _fork_join(*side1)
    p2 = _fork_join(*side2) if side2 else parse_program("entry a:\n  ret\n")
    args = (SpecDriver(p1, cet=False), s1, partial(run_spec, p2, cet=False), s2)
    verdicts = set()
    for fuel in range(1, 12):
        budget = ExploreBudget(3, 10**9, fuel)
        oracle = _oracle(*args, budget)
        assert _diverge(*args, budget) == oracle
        verdicts.add(oracle[1] is None)
    assert False in verdicts


@pytest.mark.parametrize("pipeline", ["hardened-only", "end-to-end"])
def test_capped_deep_check_reads_pass_at_the_cap(pipeline):
    v = check_relative_security(LISTING1, *PAIR, ExploreBudget(16, 3000, 1000), pipeline)
    assert (v.status, v.runs) == ("pass", 3000)


def _deep_check_steps(monkeypatch):
    """The `step_spec` calls of the hardened-only depth-16 check of Listing
    1, which passes over all 5,866 sequences."""
    calls = 0
    step_spec = specibt.interp.step_spec

    def counted(*args, **kw):
        nonlocal calls
        calls += 1
        return step_spec(*args, **kw)

    monkeypatch.setattr(specibt.interp, "step_spec", counted)
    monkeypatch.setattr(specibt.explore, "step_spec", counted)
    v = check_relative_security(LISTING1, *PAIR, ExploreBudget(16, 10**9, 1000))
    assert (v.status, v.runs) == ("pass", 5866)
    return calls


def test_deep_checks_walk_few_steps(monkeypatch):
    """Walking all 5,866 sequences of the depth-16 check, with side 2
    resumed at each prediction point, took 656,142 `step_spec` calls."""
    assert _deep_check_steps(monkeypatch) < 656_142 // 10


def test_deep_checks_take_repeated_periods_at_once(monkeypatch):
    """The memoised walk made 46,042 `step_spec` calls while it stepped its
    16 fuel-cut sequences, each a recursion through the masked call, all the
    way to the fuel."""
    assert _deep_check_steps(monkeypatch) < 46_042 // 4


def test_depth_20_end_to_end_covers_every_sequence():
    v = check_relative_security(
        LISTING1, *PAIR, ExploreBudget(20, 10**9, 1000), "end-to-end"
    )
    assert (v.status, v.runs) == ("pass", 23530)


# --------------------------------------------------------------------------
# RunResult.steps

LOOP = parse_program("entry a:\n  x <- (x + 1)\n  jump a\n")
ONE_BRANCH = parse_program("entry a:\n  branch x tgt\n  ret\nblock tgt:\n  ret\n")


def test_steps_of_a_terminating_run():
    r = run_seq(ONE_BRANCH, State(PC(0, 0), {"x": 1}, (0,)), 100)
    assert (r.status, r.steps) == ("term", 1)


@pytest.mark.parametrize("fuel", [1, 5, 8])
def test_steps_of_a_fuel_cut_run(fuel):
    r = run_seq(LOOP, State(PC(0, 0), {"x": 0}, (0,)), fuel)
    assert (r.status, r.steps) == ("fuel", fuel)
    assert r.state.regs["x"] == (fuel + 1) // 2


def test_steps_of_a_run_out_of_directives():
    s = State(PC(0, 0), {"x": 1}, (0,))
    r = run_spec(ONE_BRANCH, s, (), 100, cet=False)
    assert (r.status, r.steps, r.state) == ("out-of-directives", 0, s)
    r = run_spec(ONE_BRANCH, s, (DBranch(False),), 100, cet=False)
    assert (r.status, r.steps, r.state.pc) == ("term", 1, PC(0, 1))


def test_explore_reports_the_steps_of_its_replay():
    h1 = _hardened_init(PAIR[0])
    hp = harden(LISTING1)
    runs = list(explore(SpecDriver(hp), h1, ExploreBudget(4, 1000, 60)))
    assert {r.status for _, r in runs} == {"fuel", "fault", "term"}
    for dirs, r in runs:
        assert r.steps == run_spec(hp, h1, dirs, 60).steps
