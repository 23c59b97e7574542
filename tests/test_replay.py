"""Replays that resume at a shared prediction point, and the steps a run
reports.

`checks._replay` runs each directive sequence as a chain of legs split at
prediction points, reusing the legs it shares with the previous sequence.
Its results must equal a run from scratch in every field, in depth-first
order and in any other order, also when the fuel runs out within a leg or
sequences still differ inside the last leg.
"""

import json
import pathlib
import random

import pytest

from specibt.checks import _hardened_init, _replay
from specibt.explore import ExploreBudget, IdealDriver, McDriver, SpecDriver, explore
from specibt.gen import gen_state, spec_of
from specibt.hardening import harden
from specibt.interp import (
    DBranch,
    State,
    run_ideal,
    run_seq,
    run_spec,
)
from specibt.ir import PC
from specibt.machine import concretize_state, layout, linearize, run_mc
from specibt.textio import decode_pair, parse_program

ROOT = pathlib.Path(__file__).parent.parent
LISTING1 = parse_program((ROOT / "corpus" / "listing1.mir").read_text())
PAIR = decode_pair(json.loads((ROOT / "corpus" / "listing1_pair.json").read_text()))
# bench/gen_corpus programs that fork at depth 6, from 12 to 120 sequences
GEN = ("p00", "p08", "p24", "p31", "p32")


def _inputs():
    yield "listing1", LISTING1, PAIR
    for name in GEN:
        p = parse_program((ROOT / "bench" / "gen_corpus" / f"{name}.mir").read_text())
        rng = random.Random(name)
        yield name, p, (gen_state(rng), gen_state(rng))


def _semantics(p, s1, s2):
    """(name, driver, explored state, second state, run) for each replay
    engine the checkers use, on `p` hardened (the ideal one on `p`)."""
    hp = harden(p)
    h1, h2 = _hardened_init(s1), _hardened_init(s2)
    yield ("spec", SpecDriver(hp, cet=True), h1, h2,
           lambda s, dirs, fuel: run_spec(hp, s, dirs, fuel, cet=True))
    yield ("ideal", IdealDriver(p), spec_of(s1), spec_of(s2),
           lambda s, dirs, fuel: run_ideal(p, s, dirs, fuel))
    lay = layout(hp, len(s1.mem))
    mc = linearize(hp, len(s1.mem))
    yield ("mc", McDriver(mc, lay), concretize_state(h1, lay),
           concretize_state(h2, lay), lambda s, dirs, fuel: run_mc(mc, lay, s, dirs, fuel))


CASES = [(name, sem) for name, _, _ in _inputs() for sem in ("spec", "ideal", "mc")]


@pytest.mark.parametrize("fuel", [3, 7, 25, 1000])
@pytest.mark.parametrize("name,sem", CASES)
def test_resumed_replay_equals_a_run_from_scratch(name, sem, fuel):
    p, (s1, s2) = next((p, pair) for n, p, pair in _inputs() if n == name)
    _, driver, r1, r2, run = next(x for x in _semantics(p, s1, s2) if x[0] == sem)
    explored = [(dirs, r, run(r1, dirs, fuel), run(r2, dirs, fuel))
                for dirs, r in explore(driver, r1, ExploreBudget(6, 400, fuel))]
    shuffled = list(explored)
    random.Random(fuel).shuffle(shuffled)
    for order, forks in ((explored, 6), (shuffled, 6), (explored, 3)):
        same, other = _replay(run, r1, fuel, forks), _replay(run, r2, fuel, forks)
        for dirs, r, scratch1, scratch2 in order:
            assert same(dirs) == scratch1 == r
            assert other(dirs) == scratch2


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
