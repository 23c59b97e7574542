"""`gen._terminates`: the sequential run's `term` verdict, stopped early at
the first repeated or pumped state.

It must agree with `run_seq(p, s, fuel).status == "term"` at every fuel,
reject plain loops and unbounded recursion within a few steps, and never
reject a run that terminates: not one that revisits a pc and registers
after its stack unwound, and not a long counter loop.
"""

import random

import pytest

import specibt.gen as gen
from specibt.gen import GenConfig, _terminates, gen_program, gen_state
from specibt.interp import SeqState, run_seq
from specibt.ir import PC
from specibt.textio import parse_program

JUMP_LOOP = """
entry b0:
  skip
  jump b1
block b1:
  jump b1
"""

BRANCH_LOOP = """
entry b0:
  r0 <- 3
  jump b1
block b1:
  store 2, r0
  load r1, 2
  branch 1 b1
  ret
"""

SELF_RECURSION = """
entry b0:
  r0 <- (r0 + 0)
  call &b0
  ret
"""

# After the first call, every second state is `f` at offset 0 with the same
# registers and memory, one entry deep; the stack unwinds in between.
CALL_THEN_RETURN = """
entry main:
  call &f
  call &f
  call &f
  call &f
  call &f
  call &f
  call &f
  call &f
  ret
entry f:
  ret
"""

# Terminates only when r0 has counted past 200; no state repeats.
COUNTER_LOOP = """
entry b0:
  jump b1
block b1:
  r0 <- (r0 + 1)
  branch (r0 <= 200) b1
  ret
"""
COUNTER_STEPS = 2 * 200 + 4  # the jump, 201 iterations of two steps, the ret

# Rare-safe: terminates only when r2 = 0; otherwise r0 grows without bound.
RARE_SAFE = """
entry b0:
  jump b1
block b1:
  r1 <- ((r0 - 16) = (r3 ? r0 : 6))
  r0 <- (9 ? (r0 + r2) : 7)
  load r1, ((r2 <= 7) ? r2 : 0)
  branch r2 b1
  ret
entry b2:
  r1 <- (r1 && 14)
  ret
"""


def _state(**regs) -> SeqState:
    return SeqState(PC(0, 0), dict(regs), (0,) * 8)


@pytest.fixture()
def steps(monkeypatch):
    """Counts the `step_seq` calls `_terminates` makes."""
    calls = []
    real = gen.step_seq

    def counted(p, s):
        calls.append(s)
        return real(p, s)

    monkeypatch.setattr(gen, "step_seq", counted)
    return calls


def test_agrees_with_run_seq_on_generated_programs():
    cfg = GenConfig()
    rng = random.Random(2024)
    k = 0
    for _ in range(300):
        p = gen_program(rng, cfg)
        for _ in range(5):
            s = gen_state(rng, cfg)
            k += 1
            for fuel in (k % 64 + 1, 1000):
                assert _terminates(p, s, fuel) == (run_seq(p, s, fuel).status == "term")


@pytest.mark.parametrize("text", [JUMP_LOOP, BRANCH_LOOP, SELF_RECURSION])
def test_loops_and_recursion_are_rejected_early(text, steps):
    p = parse_program(text)
    assert run_seq(p, _state(r0=0, r1=0), 1000).status == "fuel"
    assert not _terminates(p, _state(r0=0, r1=0), 1000)
    assert len(steps) < 50


def test_unwound_stack_is_not_a_cycle(steps):
    p = parse_program(CALL_THEN_RETURN)
    assert run_seq(p, _state(), 1000).status == "term"
    assert _terminates(p, _state(), 1000)
    assert len(steps) == 17


def test_counter_loop_terminates_at_its_fuel_boundary():
    p = parse_program(COUNTER_LOOP)
    for fuel in range(COUNTER_STEPS - 2, COUNTER_STEPS + 3):
        term = fuel >= COUNTER_STEPS
        assert (run_seq(p, _state(r0=0), fuel).status == "term") == term
        assert _terminates(p, _state(r0=0), fuel) == term


def test_rare_safe_counter_loop(steps):
    p = parse_program(RARE_SAFE)
    assert _terminates(p, _state(r0=5, r1=1, r2=0, r3=2), 1000)
    # a growing counter never repeats a state: this input runs to fuel
    steps.clear()
    assert not _terminates(p, _state(r0=5, r1=1, r2=3, r3=2), 1000)
    assert len(steps) == 1000
