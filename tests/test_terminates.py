"""`gen._terminates`: the sequential run's `term` verdict, stopped early at
the first repeated or pumped state, or at a loop that the range run
`_never_terminates` proves endless from its changing values, widened to
ranges; and the proof, from every drawn input, that a `fuzz-*` corpus
program is hopeless.

It must agree with `run_seq(p, s, fuel).status == "term"` at every fuel,
reject plain loops, unbounded recursion and loops that only grow a counter
within a few steps, concrete and abstract steps counted together, and never
reject a run that terminates: not one that revisits a pc and registers
after its stack unwound, not a countdown, and not a loop whose exit waits
for a growing counter.
"""

import random

import pytest

import specibt.gen as gen
from conftest import invoke
from specibt.gen import GenConfig, _drawn, _terminates, gen_program, gen_state
from specibt.interp import Next, State, run_seq, step_seq
from specibt.ir import PC, used_registers
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


# Terminates when r0 reaches 0: widened, r0 may be 0 at the branch, whose
# way out ends at a ret.
COUNTDOWN = """
entry b0:
  jump b1
block b1:
  r0 <- (r0 - 1)
  branch r0 b1
  ret
"""

# Terminates once r0 passes 50, but r2 holds 1 until then: the range run
# comes back to its pc once before r2, widened to 0 or 1, lets the branch
# fall through to the ret. The skips put Brent's checkpoints at the branch,
# where that return happens.
LATE_EXIT = """
entry b0:
  skip
  skip
  jump b1
block b1:
  branch r2 b2
  ret
block b2:
  r0 <- (r0 + 1)
  r2 <- (r0 <= 50)
  jump b1
"""

# Terminates six passes after r0 passes 5: the exit test reads r6, which a
# range run widens to 0 or 1 only after six passes. Unbounded, those tries
# would take more steps than the plain run.
SHIFT_CHAIN = """
entry b0:
  jump b1
block b1:
  branch r6 b2
  ret
block b2:
  r6 <- r5
  r5 <- r4
  r4 <- r3
  r3 <- r2
  r2 <- r1
  r1 <- (r0 <= 5)
  r0 <- (r0 + 1)
  jump b1
"""

# The counter lives in memory cell 3; r1 is always 0, a range of r0 times 0.
MEMORY_COUNTER = """
entry b0:
  jump b1
block b1:
  load r0, 3
  r1 <- (r0 * 0)
  store 3, (r0 + 1)
  jump b1
"""

# Grows r0 forever, storing it at cell r0 while r0 is below 8, then at 0.
# Made UV, r0 would make the address UV and the store stuck: only a range of
# r0 proves the loop endless.
GUARDED_ADDRESS = """
entry b0:
  jump b1
block b1:
  r0 <- (r0 + 1)
  store ((r0 <= 7) ? r0 : 0), r0
  jump b1
"""

GROWING_RECURSION = """
entry b0:
  r0 <- (r0 + 1)
  call &b0
  ret
"""


def _state(**regs) -> State:
    return State(PC(0, 0), dict(regs), (0,) * 8)


def _plain_steps(p, s: State) -> int:
    """The steps of the sequential run from `s`, its last one included."""
    n = 1
    while isinstance(out := step_seq(p, s), Next):
        n, s = n + 1, out.state
    return n


@pytest.fixture()
def steps(monkeypatch):
    """Counts the steps `_terminates` takes: a state for each `step_seq`
    call, and a None for each abstract step a `_never_terminates` run
    reports."""
    calls = []
    real_step, real_run = gen.step_seq, gen._never_terminates

    def counted(p, s):
        calls.append(s)
        return real_step(p, s)

    def counted_run(p, root, budget):
        proved, used = real_run(p, root, budget)
        calls.extend([None] * used)
        return proved, used

    monkeypatch.setattr(gen, "step_seq", counted)
    monkeypatch.setattr(gen, "_never_terminates", counted_run)
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
    # a growing counter never repeats a state, but widened to a range it loops
    steps.clear()
    assert not _terminates(p, _state(r0=5, r1=1, r2=3, r3=2), 1000)
    assert len(steps) <= 64


@pytest.mark.parametrize("text", [MEMORY_COUNTER, GROWING_RECURSION, GUARDED_ADDRESS])
def test_growing_counters_are_rejected_early(text, steps):
    p = parse_program(text)
    assert run_seq(p, _state(r0=0, r1=0), 1000).status == "fuel"
    assert not _terminates(p, _state(r0=0, r1=0), 1000)
    assert len(steps) <= 64


def test_the_draws_of_a_growing_recursion_stop_at_their_proof(steps):
    """Program 670 that `gen_program` draws from `random.Random(0)` grows r1
    by `(8 <= r1) ? (r1 * 12) : 13`, stores through `(r1 <= 7) ? r1 : 0` and
    calls itself: no draw terminates, and each is proved so within ten
    steps, six of them concrete, instead of running to the fuel."""
    rng, cfg = random.Random(0), GenConfig()
    for _ in range(671):
        p = gen_program(rng, cfg)
    draws = random.Random("0-670")
    for _ in range(100):
        assert not _terminates(p, gen_state(draws, cfg), 10_000)
    assert (len(steps), steps.count(None)) == (1000, 400)


@pytest.mark.parametrize("text,regs", [
    (COUNTDOWN, dict(r0=300)),
    (COUNTER_LOOP, dict(r0=0)),
    (LATE_EXIT, dict(r0=0, r2=1)),
    (SHIFT_CHAIN, dict(r0=0, r1=1, r2=1, r3=1, r4=1, r5=1, r6=1)),
])
def test_widening_never_rejects_a_terminating_loop(text, regs, steps):
    p = parse_program(text)
    assert run_seq(p, _state(**regs), 1000).status == "term"
    assert _terminates(p, _state(**regs), 1000)
    # the range runs together take no more steps than the plain run
    assert len(steps) <= 2 * _plain_steps(p, _state(**regs))


CORPUS = {
    "loop.mir": JUMP_LOOP,
    "rare.mir": RARE_SAFE,
    "count.mir": COUNTER_LOOP,
    "once.mir": "entry b0:\n  load r1, 2\n  ret\n",
}


def test_corpus_hopeless_proof_runs_once_per_program(tmp_path, monkeypatch):
    for name, text in CORPUS.items():
        (tmp_path / name).write_text(text)
    proofs = []
    real = gen._never_terminates

    def counted(p, root, budget):
        pool = tuple(sorted(used_registers(p))) or GenConfig().reg_pool
        if root == _drawn(GenConfig(reg_pool=pool)):
            proofs.append(id(p))
        return real(p, root, budget)

    monkeypatch.setattr(gen, "_never_terminates", counted)
    res = invoke(["fuzz-bcc", "--corpus", str(tmp_path), "--seed", "1", "--runs", "8"])
    assert res.exit_code == 0, res.output
    assert len(proofs) == len(set(proofs)) == len(CORPUS)
