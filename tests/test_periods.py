"""Runs that repeat take their periods at once, with the results of runs
stepped throughout.

`interp.run` and the walk past the depth (`interp.advance`) take as many
whole periods as the fuel and the directives allow once a run of states
repeats above an untouched stack. `plain_run` is the same loop with every
step taken one at a time. Every result must equal its result field by
field: under the four semantics on Listing 1 (source and hardened) and on
`bench/gen_corpus`, and on hand-made cases: the masked-call recursion of
hardened Listing 1, fuels that cut a period, directives that end inside a
period or change after a few periods, a loop that pushes nothing, and a
state that repeats after the stack dropped below the checkpoint's, which
is no repeat. Checkpoints are taken after any step, so loops with no
prediction point take their periods too: a `jump` loop, loops with loads
and stores, a branch loop under seq, the all-UV runs of `bench/gen_corpus`
and a loop after the last directive; a counter loop never repeats.

The lockstep of `check linearize` steps `Lockstep` product states, whose
levels every step checks for the state relation: every walk item and run
of the lockstep driver must equal the plain loop's too, on a branch that
spins forever, hardened Listing 1, the `fuzz-linearize` inputs of
`bench/gen_corpus`, a recursion, a loop of three steps at each level,
calls whose states repeat only below the checkpoint's stack, and machine
code that would push return addresses unrelated to the source's, which
the run catches before the push.
"""

import json
import pathlib
import random
from functools import partial

import pytest
from hypothesis import given, strategies as st

import specibt.checks as checks
from specibt.checks import _hardened_init, _lockstep_driver, check_bcc_linearize
from specibt.cli import _fuzz_inputs
from specibt.explore import ExploreBudget, IdealDriver, McDriver, SpecDriver, explore
from specibt.gen import GenConfig, gen_state, spec_of
from specibt.hardening import harden
from specibt.interp import (
    DBranch,
    Lockstep,
    Next,
    OutOfDirectives,
    State,
    result,
    run,
    run_ideal,
    run_seq,
    run_spec,
    step_seq,
)
from specibt.ir import PC, RET, UV, Call, Const, Jump, Skip
from specibt.machine import McProgram, concretize_state, linearize, run_mc
from specibt.textio import decode_pair, parse_program

ROOT = pathlib.Path(__file__).parent.parent
LISTING1 = parse_program((ROOT / "corpus" / "listing1.mir").read_text())
PAIR = decode_pair(json.loads((ROOT / "corpus" / "listing1_pair.json").read_text()))
GEN = sorted((ROOT / "bench" / "gen_corpus").glob("*.mir"))


def plain_run(step, s, directives, fuel):
    """`interp.run(step, s, directives, fuel)`, stepped throughout."""
    trace = []
    used = 0
    for steps in range(fuel):
        out = step(s, None)
        if isinstance(out, OutOfDirectives):
            if used >= len(directives):
                return result(trace, out, s, steps)
            out = step(s, directives[used])
            used += 1
        if isinstance(out, Next):
            if out.obs is not None:
                trace.append(out.obs)
            s = out.state
            continue
        return result(trace, out, s, steps)
    return result(trace, None, s, max(fuel, 0))


def _engines(p, s):
    """(driver, start state, run(state, directives, fuel)) of each
    speculative semantics on `p` from `s`."""
    mc = linearize(p, len(s.mem))
    yield SpecDriver(p), s, partial(run_spec, p, cet=True)
    yield SpecDriver(p, cet=False), s, partial(run_spec, p, cet=False)
    yield IdealDriver(p), s, partial(run_ideal, p)
    yield McDriver(mc), concretize_state(s, mc.lay), partial(run_mc, mc)


def _check(p, s, budget, fuels):
    """Under each semantics on `p` from `s`: every sequence `explore`
    reaches within `budget`, against the plain run of its directives; then
    its directives, cut short and changed after a few periods, at each of
    `fuels`, against `run`."""
    for fuel in fuels:
        seq = partial(step_seq, p)
        assert run_seq(p, s, fuel) == plain_run(lambda s, d: seq(s), s, (), fuel)
    for driver, s0, run in _engines(p, s):
        for dirs, r in explore(driver, s0, budget):
            assert r == plain_run(driver.step, s0, dirs, budget.fuel)
            for ds in (dirs[: len(dirs) // 2], dirs[: len(dirs) // 2] + dirs[:3]):
                for fuel in fuels:
                    assert run(s0, ds, fuel) == plain_run(driver.step, s0, ds, fuel)


@pytest.mark.parametrize("hardened", [False, True], ids=["source", "hardened"])
@pytest.mark.parametrize("which", [0, 1], ids=["s1", "s2"])
def test_listing1_under_every_semantics(which, hardened):
    s = spec_of(PAIR[which])
    p = harden(LISTING1) if hardened else LISTING1
    _check(p, _hardened_init(s) if hardened else s, ExploreBudget(3, 10**9, 1001),
           (9, 41, 1001))


@pytest.mark.parametrize("path", GEN, ids=[p.stem for p in GEN])
def test_gen_corpus_under_every_semantics(path):
    p = parse_program(path.read_text())
    s = gen_state(random.Random(path.stem))
    _check(p, s, ExploreBudget(3, 12, 200), (7, 200))
    _check(harden(p), _hardened_init(s), ExploreBudget(3, 12, 200), (7, 200))


# --------------------------------------------------------------------------
# Hand-made cases


def _masked_recursion():
    """Hardened Listing 1 from s1 after a mispredicted entry branch: the
    masked call targets `&b0` every time, so the run recurses, pushing one
    return address per period of 8 steps and 2 directives. The program, its
    driver, the start state and the first 400 directives the run follows."""
    hp = harden(LISTING1)
    driver, s0 = SpecDriver(hp), _hardened_init(PAIR[0])
    dirs = next(d for d, r in explore(driver, s0, ExploreBudget(1, 10**9, 1600))
                if r.status == "fuel")
    return hp, driver, s0, tuple(dirs[:400])


HP, MASKED, M0, MASKED_DIRS = _masked_recursion()


def test_masked_recursion_takes_its_periods_at_once():
    calls = []

    def step(s, d):
        calls.append(d)
        return MASKED.step(s, d)

    r = run(step, M0, MASKED_DIRS, 1000)
    assert r == plain_run(MASKED.step, M0, MASKED_DIRS, 1000)
    assert (r.status, r.steps, len(r.trace), len(r.state.stk)) == ("fuel", 1000, 249, 124)
    assert len(calls) < 60  # stepped throughout: 1,000 steps, 250 prediction points


@pytest.mark.parametrize("fuel", range(20, 60))
def test_fuels_that_cut_a_period(fuel):
    assert run_spec(HP, M0, MASKED_DIRS, fuel) == plain_run(MASKED.step, M0, MASKED_DIRS, fuel)
    walked = list(explore(MASKED, M0, ExploreBudget(0, 10, fuel)))
    assert walked == [(d, plain_run(MASKED.step, M0, d, fuel)) for d, _ in walked]


@pytest.mark.parametrize("n", range(1, 30))
def test_directives_that_end_inside_a_period(n):
    want = plain_run(MASKED.step, M0, MASKED_DIRS[:n], 1000)
    assert want.status == "out-of-directives"
    assert run_spec(HP, M0, MASKED_DIRS[:n], 1000) == want


_CHOICES = (*MASKED.calls, DBranch(True), DBranch(False))


@given(st.integers(1, 900), st.integers(0, 400), st.integers(0, 400),
       st.sampled_from(_CHOICES))
def test_directives_that_change_after_a_few_periods(fuel, n, at, other):
    dirs = list(MASKED_DIRS[:n])
    dirs[at:at + 1] = [other] if at < n else []
    assert run_spec(HP, M0, dirs, fuel) == plain_run(MASKED.step, M0, dirs, fuel)


# A branch back to itself while `x` is set: the state repeats at every
# step, and the stack never grows.
SELF_LOOP = parse_program("entry a:\n  branch x a\n  ret\n")


@pytest.mark.parametrize("fuel", [1, 2, 3, 10, 333])
@pytest.mark.parametrize("n", [0, 1, 5, 400])
def test_a_loop_that_pushes_nothing(fuel, n):
    s = State(PC(0, 0), {"x": 1}, (0,))
    mc = linearize(SELF_LOOP, 1)
    m = concretize_state(s, mc.lay)
    for driver, s0, run in ((SpecDriver(SELF_LOOP), s, partial(run_spec, SELF_LOOP)),
                            (McDriver(mc), m, partial(run_mc, mc))):
        for dirs in ((DBranch(True),) * n, (DBranch(True),) * n + (DBranch(False),)):
            want = plain_run(driver.step, s0, dirs, fuel)
            assert run(s0, dirs, fuel) == want
            assert want.state.stk == s0.stk
        walked = list(explore(driver, s0, ExploreBudget(0, 10, fuel)))
        assert walked == [(d, plain_run(driver.step, s0, d, fuel)) for d, _ in walked]


# `f` returns at once, and every call of `main` reaches `f`'s branch in the
# same state but for the return address: the stack drops below it in
# between, so that is no repeat, and the run ends.
CALLS = parse_program("entry main:\n" + "  call &f\n" * 8 + "  ret\n"
                      "entry f:\n  branch x g\n  ret\nblock g:\n  ret\n")


@pytest.mark.parametrize("fuel", [10, 40, 1000])
def test_a_state_repeated_below_the_checkpoint_is_no_repeat(fuel):
    s = State(PC(0, 0), {"x": 0}, (0,))
    mc = linearize(CALLS, 1)
    for driver, s0, run in (
        (SpecDriver(CALLS, cet=False), s, partial(run_spec, CALLS, cet=False)),
        (IdealDriver(CALLS), s, partial(run_ideal, CALLS)),
    ):
        walked = list(explore(driver, s0, ExploreBudget(0, 10, fuel)))
        (dirs, r), = walked
        assert r == plain_run(driver.step, s0, dirs, fuel)
        assert run(s0, dirs, fuel) == r
        assert r.status == ("fuel" if fuel == 10 else "term")
    # the machine code arms the ctarget check at every call: `f` faults
    m = concretize_state(s, mc.lay)
    dirs = [d for d, _ in explore(McDriver(mc), m, ExploreBudget(0, 10, fuel))][0]
    assert run_mc(mc, m, dirs, fuel) == plain_run(McDriver(mc).step, m, dirs, fuel)


# --------------------------------------------------------------------------
# Loops with no prediction point: checkpoints are taken after any step


JUMP = parse_program("entry a:\n  jump a\n")
LOAD_JUMP = parse_program("entry a:\n  load x, 0\n  jump a\n")
# six steps a period, with loads and stores in it
LONG_LOOP = parse_program("entry a:\n  load x, 0\n  skip\n  store 0, (x + 1)\n"
                          "  load x, 0\n  store 0, (x - 1)\n  jump a\n")
# under seq, `x` decides the branch: a loop while it is set
BRANCH_LOOP = parse_program("entry a:\n  jump b\nblock b:\n  store 0, x\n"
                            "  branch x b\n  ret\n")
# `x` grows at every pass: no state repeats
COUNTER = parse_program("entry a:\n  jump b\nblock b:\n  x <- (x + 1)\n  jump b\n")


@pytest.mark.parametrize("p", [JUMP, LOAD_JUMP, LONG_LOOP, BRANCH_LOOP, COUNTER],
                         ids=["jump", "load-jump", "long", "branch", "counter"])
def test_loops_with_no_prediction_point(p):
    """Under seq every step, and under spec, ideal and mc every sequence the
    walk reaches, at fuels that end inside a period and at its end."""
    _check(p, State(PC(0, 0), {"x": 1}, (0,)), ExploreBudget(3, 12, 97),
           (*range(1, 20), 97, 1000))


def _counted(step):
    """`step`, and the list of the states it is called on."""
    calls = []

    def counted(s, d):
        calls.append(s)
        return step(s, d)
    return counted, calls


def test_a_jump_loop_takes_its_periods_at_once():
    s = State(PC(0, 0), {}, (0,))
    mc = linearize(JUMP, 1)
    for step, s0 in ((lambda s, d: step_seq(JUMP, s), s),
                     (SpecDriver(JUMP).step, s), (IdealDriver(JUMP).step, s),
                     (McDriver(mc).step, concretize_state(s, mc.lay))):
        step, calls = _counted(step)
        r = run(step, s0, (), 10**9)
        assert (r.trace, r.status, r.steps, r.state) == ([], "fuel", 10**9, s0)
        assert len(calls) < 10


def test_a_counter_loop_steps_to_the_fuel():
    s = State(PC(0, 0), {"x": 0}, (0,))
    step, calls = _counted(lambda s, d: step_seq(COUNTER, s))
    r = run(step, s, (), 300)
    assert r == plain_run(lambda s, d: step_seq(COUNTER, s), s, (), 300)
    assert (r.status, r.steps, len(calls)) == ("fuel", 300, 300)
    assert r.state.regs == {"x": 150}


@pytest.mark.parametrize("path", GEN, ids=[p.stem for p in GEN])
def test_all_uv_runs_of_the_gen_corpus(path):
    """The run of each generated program from the all-UV state."""
    p = parse_program(path.read_text())
    s = State(PC(0, 0), {}, (UV,) * GenConfig().mem_len)
    seq = partial(step_seq, p)
    for fuel in (1, 7, 200, 1000):
        assert run_seq(p, s, fuel) == plain_run(lambda s, d: seq(s), s, (), fuel)


# The branch is the only prediction point; the loop after it holds none.
BRANCH_THEN_LOOP = parse_program("entry a:\n  branch x b\n  ret\nblock b:\n"
                                 "  load y, 0\n  jump b\n")


@pytest.mark.parametrize("fuel", [1, 2, 3, 4, 5, 50, 1001])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_directives_given_to_a_period_that_holds_none(fuel, n):
    s = State(PC(0, 0), {"x": 0}, (0,))
    dirs = (DBranch(True),) * n
    for driver, s0, run in _engines(BRANCH_THEN_LOOP, s):
        want = plain_run(driver.step, s0, dirs, fuel)
        assert run(s0, dirs, fuel) == want
        assert want.status == "fuel"


# --------------------------------------------------------------------------
# The lockstep of `check linearize`: product states take their periods


def _lockstep_check(p, s, budget, fuels=(), mc=None):
    """The lockstep walk of `p` and its machine code (`mc`, if given) from
    `s` within `budget`: each item against the plain run of its directives,
    then those directives, cut short and changed, at each of `fuels`,
    against `run`. The walk's items."""
    mc = mc or linearize(p, len(s.mem))
    driver = _lockstep_driver(p, mc)
    s0 = Lockstep(s, concretize_state(s, mc.lay))
    walked = list(explore(driver, s0, budget))
    for dirs, r in walked:
        assert r == plain_run(driver.step, s0, dirs, budget.fuel)
        for ds in (dirs[: len(dirs) // 2], dirs[: len(dirs) // 2] + dirs[:3]):
            for fuel in fuels:
                assert run(driver.step, s0, ds, fuel) == plain_run(driver.step, s0, ds, fuel)
    return walked


# A mispredicted entry branch lands in a branch that spins forever.
SPIN = parse_program("entry a:\n  branch x b\n  ret\nblock b:\n  branch y b\n  ret\n")
SPIN_S = State(PC(0, 0), {"x": 0, "y": 1}, (0,))


@pytest.mark.parametrize("fuel", [*range(1, 20), 1000])
def test_a_spinning_branch_in_lockstep(fuel):
    walked = _lockstep_check(SPIN, SPIN_S, ExploreBudget(1, 10, fuel), (1, 7, fuel))
    assert [r.status for _, r in walked] == ["fuel", "fuel" if fuel == 1 else "term"]


def test_a_spinning_branch_takes_its_periods_in_lockstep(monkeypatch):
    calls = []
    real = checks.step_mc

    def counted(mc, s, d=None, cet=True):
        calls.append(s)
        return real(mc, s, d, cet)

    monkeypatch.setattr(checks, "step_mc", counted)
    v = check_bcc_linearize(SPIN, SPIN_S, ExploreBudget(1, 10**9, 10**6))
    assert (v.status, v.runs) == ("pass", 2)
    assert len(calls) < 100  # stepped throughout: a million steps


def test_hardened_listing1_in_lockstep():
    """`check linearize`'s depth-12 walk of hardened Listing 1 from its
    hardened initial state, as CI runs it: 64 of its 1,450 sequences run
    into the fuel, recursing through masked calls."""
    walked = _lockstep_check(HP, M0, ExploreBudget(12, 10**9, 1000))
    cut = [r for _, r in walked if r.status == "fuel"]
    assert (len(walked), len(cut)) == (1450, 64)
    assert all(r.state.source.stk for r in cut)


FUZZ_LINEARIZE = list(_fuzz_inputs(str(ROOT / "bench" / "gen_corpus"), 1001, 40, 1000))


@pytest.mark.parametrize("case", range(len(FUZZ_LINEARIZE)))
def test_fuzz_linearize_inputs_of_the_gen_corpus(case):
    """The inputs `fuzz-linearize --corpus bench/gen_corpus --seed 1001`
    checks, at its default budget."""
    p, s = FUZZ_LINEARIZE[case]
    _lockstep_check(p, s, ExploreBudget(3, 100, 1000), (7, 200))


# Each call pushes a return address and lands on the entry's ctarget: two
# steps a period at each level and for the product.
RECURSION = parse_program("entry a:\n  ctarget\n  call &a\n  ret\n")
# three steps a period at each level and for the product
LOOP3 = parse_program("entry a:\n  jump b\nblock b:\n  load x, 0\n"
                      "  store 0, (x + 1)\n  jump b\n")


@pytest.mark.parametrize("p", [RECURSION, LOOP3], ids=["recursion", "loop3"])
def test_periods_that_push_or_are_not_a_multiple_of_5_in_lockstep(p):
    s = State(PC(0, 0), {"x": 1}, (0,))
    for fuel in (*range(1, 20), 97, 1000):
        walked = _lockstep_check(p, s, ExploreBudget(3, 12, fuel), (fuel, 7))
        assert walked[0][1].status in ("fuel", "term")
    cut = [r for _, r in _lockstep_check(p, s, ExploreBudget(3, 12, 1000))
           if r.status == "fuel"]
    assert cut
    if p is RECURSION:
        assert all(len(r.state.source.stk) > 100 for r in cut)


# `f` returns at once: the product states at `f` repeat at every call,
# but the stack dropped below them in between; the run ends when `main`
# returns.
CALLS_CT = parse_program("entry main:\n" + "  call &f\n" * 40 + "  ret\n"
                         "entry f:\n  ctarget\n  ret\n")


@pytest.mark.parametrize("fuel", [10, 40, 1000])
def test_a_product_state_repeated_below_the_checkpoint_is_no_repeat(fuel):
    walked = _lockstep_check(CALLS_CT, State(PC(0, 0), {}, (0,)),
                             ExploreBudget(0, 10, fuel), (fuel,))
    assert [r.status for _, r in walked] == ["fuel" if fuel < 121 else "term"]


def test_unrelated_return_addresses_are_caught_before_the_push():
    """Machine code in which `b`'s last skip jumps to a copy of its call
    past the laid-out code, so each call would push a return address that
    relates to no source pc. The pcs part at that jump, the 18th step, and
    the check of the relation after it ends the run there, 17 steps taken,
    as stepped: before the copied call pushes anything, and before any
    product state repeats."""
    p = parse_program("entry a:\n" + "  skip\n" * 13 + "  call &b\n  ret\n"
                      "entry b:\n  ctarget\n  skip\n  skip\n  skip\n  call &b\n  ret\n")
    mc = linearize(p, 1)
    b, end = mc.lay.starts[1], mc.lay.addr(1) + len(p.blocks[1].insts)
    code = (mc.code[: b + 3] + (Jump(end),) + mc.code[b + 4 :]
            + (Call(Const(mc.lay.addr(1))), RET))
    walked = _lockstep_check(p, State(PC(0, 0), {}, (0,)), ExploreBudget(0, 10, 1000),
                             (20, 21, 1000), McProgram(code, mc.lay))
    (_, r), = walked
    assert (r.status, r.reason, r.steps) == ("counterexample", "state relation broken", 17)
