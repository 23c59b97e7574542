"""Early rejection in `gen_safe_input`: sound, and invisible in the stream.

A program is rejected without running any drawn input if an abstract run
over intervals, which settles a branch it cannot decide point by point over
the registers the condition reads, proves that no input `gen_state` may
draw ever terminates. That must never reject a program some input
terminates on, and it must leave the results and the rng exactly where the
full rejection sampling leaves them. The digests in
`data/gen_safe_input_stream.json` were recorded with the plain 50-attempt
loop. A run from the all-UV state takes a repeated run's periods at once,
so the runs of `bench/gen_corpus` cost a tenth of their steps, and a draw's
run stops at its first repeat, with nothing built for the fuel left.
`gen_state` draws each value by the rule of `randrange`, checked against it
value for value and by the rng's state after them.
"""

import hashlib
import json
import pathlib
import random
import tracemalloc

import pytest

import specibt.interp as interp
from specibt.gen import (
    GenConfig,
    _ABSTRACT_STEPS,
    _INF,
    _TOP,
    _box,
    _drawn,
    _never_terminates,
    _terminates,
    gen_program,
    gen_safe_input,
    gen_state,
    no_input_terminates,
)
from specibt.interp import State, run_seq
from specibt.ir import FP, PC, UV, used_registers
from specibt.textio import encode_state, parse_program

PINNED = pathlib.Path(__file__).parent / "data" / "gen_safe_input_stream.json"
ALL_UV = State(PC(0, 0), {}, (UV,) * GenConfig().mem_len)  # every value undefined


def _sha256(doc) -> str:
    return hashlib.sha256(doc.encode()).hexdigest()


def test_all_uv_fuel_out_implies_every_input_fuels_out():
    cfg = GenConfig()
    rng = random.Random(77)
    hopeless = 0
    for _ in range(200):
        p = gen_program(rng, cfg)
        if run_seq(p, ALL_UV, 500).status != "fuel":
            continue
        hopeless += 1
        for _ in range(3):
            assert run_seq(p, gen_state(rng, cfg), 500).status == "fuel"
    assert hopeless > 0  # the property was exercised


def test_rejection_sampling_stream_is_pinned():
    pinned = json.loads(PINNED.read_text())
    rng = random.Random(pinned["seed"])
    results = []
    for _ in range(pinned["programs"]):
        p = gen_program(rng)
        s = gen_safe_input(rng, p, fuel=pinned["fuel"])
        results.append(None if s is None else encode_state(s))
    assert sum(r is not None for r in results) == pinned["accepted"]
    assert _sha256(json.dumps(results, sort_keys=True)) == pinned["results_sha256"]
    assert _sha256(repr(rng.getstate())) == pinned["rng_state_sha256"]


CORPUS = pathlib.Path(__file__).parent.parent / "bench" / "gen_corpus"


def _corpus():
    """`bench/gen_corpus` by name, each program with the config `fuzz-*`
    samples it with: a pool of the registers it uses."""
    cfg = GenConfig()
    for f in sorted(CORPUS.glob("*.mir")):
        p = parse_program(f.read_text())
        yield f.stem, p, cfg._replace(reg_pool=tuple(sorted(used_registers(p))) or cfg.reg_pool)


def test_all_uv_checks_of_the_gen_corpus_take_their_periods(monkeypatch):
    """The runs of `bench/gen_corpus` from the all-UV state at `fuzz-*`'s
    default fuel find its 6 input-independent hopeless programs and take
    their repeated periods at once: stepped throughout, they take 6,065
    steps."""
    programs = [p for _, p, _ in _corpus()]
    steps = []
    real = interp._step

    def counted(p, s, d, sem):
        steps.append(s)
        return real(p, s, d, sem)

    monkeypatch.setattr(interp, "_step", counted)
    fuel_outs = [run_seq(p, ALL_UV, 1000).status == "fuel" for p in programs]
    assert (len(programs), sum(fuel_outs)) == (40, 6)
    assert len(steps) < 6_065 // 10


def test_the_hopeless_programs_of_the_gen_corpus_are_pinned():
    """The abstract run proves 13 corpus programs hopeless, among them
    p00: its loop `branch (r3 <= (r3 ? r3 : 11)) b4` is taken by every value
    of r3, which intervals cannot see without relating the two sides, and
    which the branch, settled at each of r3's 17 values, does."""
    hopeless = {name for name, p, cfg in _corpus() if no_input_terminates(p, cfg)}
    assert hopeless == {"p00", "p05", "p06", "p08", "p14", "p19", "p24", "p25", "p26",
                        "p31", "p32", "p33", "p34"}
    name, p00, cfg = next(_corpus())
    assert name == "p00"
    assert gen_safe_input(random.Random(0), p00, cfg, 1000, attempts=200,
                          hopeless=False) is None


@pytest.mark.parametrize("seed", [0, 1])
def test_no_input_of_a_proved_program_terminates(seed):
    """Over 1,000 generated programs per seed, every program the abstract
    run proves hopeless has no terminating input among 100 draws at fuel
    10,000."""
    cfg, rng, proved = GenConfig(), random.Random(seed), 0
    for i in range(1000):
        p = gen_program(rng, cfg)
        if not no_input_terminates(p, cfg):
            continue
        proved += 1
        draws = random.Random(f"{seed}-{i}")
        assert gen_safe_input(draws, p, cfg, 10_000, attempts=100, hopeless=False) is None
    assert proved > 50  # the property was exercised


# Programs some input terminates on, yet whose all-UV run is stuck: the
# abstract run must not prove them hopeless. Each comes with a register
# that makes it terminate, at value 0 in every other register and cell.
NOT_HOPELESS = {
    # terminates only when r2 = 0, as bench/gen_corpus/p39 does
    "falls-through-to-ret": ("""
entry b0:
  jump b1
block b1:
  r0 <- (r0 + r2)
  branch r2 b1
  ret
""", {}),
    # the only ret is behind a branch taken by some values
    "branches-to-ret": ("""
entry b0:
  branch (r1 <= 3) b1
  jump b2
block b1:
  ret
block b2:
  jump b2
""", {}),
    # the branch not taken says nothing of r0 but that it exceeds 3
    "computed-condition": ("""
entry b0:
  branch (r0 <= 3) b1
  branch r0 b2
  jump b1
block b1:
  jump b1
block b2:
  ret
""", {"r0": 4}),
    # the branch taken says nothing of r0 but that it is not 0
    "register-condition": ("""
entry b0:
  branch r0 b1
  jump b2
block b1:
  branch (r0 = 1) b2
  ret
block b2:
  jump b2
""", {"r0": 2}),
    # The second entry to f, from g, is below the first, but the ret of f
    # pops the first one's return address: the run that comes back from
    # g's call sets r1 and returns to main, which then ends.
    "pops-below-the-back-edge": ("""
entry main:
  r1 <- 0
  call &f
  branch r1 t
  jump l
entry f:
  branch r0 g
  ret
block g:
  r0 <- 0
  call &f
  r1 <- 1
  ret
block t:
  ret
block l:
  jump l
""", {"r0": 1}),
}


@pytest.mark.parametrize("name", NOT_HOPELESS)
def test_a_program_some_input_terminates_on_is_not_proved_hopeless(name):
    text, regs = NOT_HOPELESS[name]
    p, cfg = parse_program(text), GenConfig()
    s = State(PC(0, 0), {**dict.fromkeys(cfg.reg_pool, 0), **regs}, (0,) * cfg.mem_len)
    assert run_seq(p, s, 1000).status == "term"
    assert run_seq(p, ALL_UV, 1000).status == "stuck"
    assert not no_input_terminates(p, cfg)


def test_a_counter_loop_that_forks_is_proved_hopeless():
    """The loop's counter grows without bound and its branch goes either
    way: widening closes both paths at the loop's entry."""
    p = parse_program("""
entry a:
  jump b
block b:
  r0 <- (r0 + 1)
  branch (r1 <= 5) c
  jump b
block c:
  jump b
""")
    assert run_seq(p, ALL_UV, 1000).status == "stuck"
    assert no_input_terminates(p, GenConfig())


# Taken by every value of r0, as p00's loop is: at 0 the bound is 11, else
# r0 itself. Over ranges both sides are 0 to 16, and the test undecided.
RELATIONAL_LOOP = parse_program("""
entry a:
  jump b
block b:
  branch (r0 <= (r0 ? r0 : 11)) b
  ret
""")


def test_a_relational_loop_is_proved_point_by_point():
    """The loop's branch is settled at each of r0's 17 values, one abstract
    step each: with the jump, the branch and the return to b, 20 steps. A
    budget short of the box leaves the branch undecided, and the fall to
    the ret gives the proof up."""
    cfg = GenConfig()
    assert run_seq(RELATIONAL_LOOP, ALL_UV, 1000).status == "stuck"
    assert no_input_terminates(RELATIONAL_LOOP, cfg)
    assert _never_terminates(RELATIONAL_LOOP, _drawn(cfg), _ABSTRACT_STEPS) == (True, 20)
    assert _never_terminates(RELATIONAL_LOOP, _drawn(cfg), 19) == (False, 19)
    assert _never_terminates(RELATIONAL_LOOP, _drawn(cfg), 18) == (False, 4)
    for r0 in range(cfg.max_const + 1):
        assert run_seq(RELATIONAL_LOOP, State(PC(0, 0), {"r0": r0}, (0,) * 8),
                       1000).status == "fuel"


def test_a_condition_zero_at_one_point_of_its_box_is_left_undecided():
    """The branch falls to the ret only at r0 = 7 and r1 = 2, one point of
    its 289: the program terminates there alone, and is not proved."""
    p, cfg = parse_program("""
entry a:
  branch (((r0 = 7) && (r1 = 2)) = 0) b
  ret
block b:
  jump b
"""), GenConfig()
    terminating = [(r0, r1) for r0 in range(17) for r1 in range(17)
                   if run_seq(p, State(PC(0, 0), {"r0": r0, "r1": r1}, (0,) * 8),
                              100).status == "term"]
    assert terminating == [(7, 2)]
    # the branch and its points, two passes at b, and the ret
    assert _never_terminates(p, _drawn(cfg), _ABSTRACT_STEPS) == (False, 1 + 289 + 2 + 1)
    assert not no_input_terminates(p, cfg)


def test_the_box_of_a_condition():
    """Each register the condition reads is a finite range, or an exact
    `FP` or `UV` (a missing one is UV) that is one point of the box; an
    unbounded or `_TOP` register, or a box of more points than the steps
    left, is not enumerated."""
    branch = RELATIONAL_LOOP.blocks[1].insts[0]
    assert _box(branch, {"r0": (3, 5), "r9": (0, 0)}, 3) == [
        {"r0": (3, 3)}, {"r0": (4, 4)}, {"r0": (5, 5)}]
    assert _box(branch, {"r0": (3, 5)}, 2) is None
    assert _box(branch, {"r0": FP(1)}, 1) == [{"r0": FP(1)}]
    assert _box(branch, {}, 1) == [{"r0": UV}]
    assert _box(branch, {"r0": (3, _INF)}, 10**9) is None
    assert _box(branch, {"r0": _TOP}, 10**9) is None
    pair = parse_program("entry a:\n  branch (r0 <= r1) a\n  ret\n").blocks[0].insts[0]
    regs = {"r0": (0, 16), "r1": (0, 16)}
    assert _box(pair, regs, 17 * 17 - 1) is None
    box = _box(pair, regs, 17 * 17)
    assert len(box) == 17 * 17 and len({tuple(sorted(f.items())) for f in box}) == 17 * 17


def test_a_draw_stops_at_its_first_repeat(monkeypatch):
    """A loop that loads at every pass repeats after two steps: the draw's
    run returns there, without the observations or steps of the fuel left
    (stepped throughout, five million loads)."""
    p = parse_program("entry a:\n  load x, 0\n  jump a\n")
    steps = []
    real = interp._step

    def counted(p, s, d, sem):
        steps.append(s)
        return real(p, s, d, sem)

    monkeypatch.setattr(interp, "_step", counted)
    tracemalloc.start()
    try:
        assert not _terminates(p, State(PC(0, 0), {}, (0,)), 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(steps) < 10
    assert peak < 1 << 20


def _randrange_state(rng: random.Random, cfg: GenConfig) -> State:
    """The state `gen_state` drew with `randrange`, one value at a time: the
    oracle of the draw rule."""
    regs = {r: rng.randrange(cfg.max_const + 1) for r in cfg.reg_pool}
    mem = tuple(rng.randrange(cfg.max_const + 1) for _ in range(cfg.mem_len))
    return State(PC(0, 0), regs, mem)


@pytest.mark.parametrize("max_const", [0, 1, 15, 16, 31])
@pytest.mark.parametrize("mem_len", [0, 1, 8])
@pytest.mark.parametrize("pool", range(5))
def test_gen_state_draws_as_randrange(pool, mem_len, max_const):
    # range sizes 1, 2, 16, 17 and 32: a power of two draws no rejected
    # value, one past it rejects almost half
    cfg = GenConfig(reg_pool=tuple(f"r{i}" for i in range(pool)), mem_len=mem_len,
                    max_const=max_const)
    for seed in range(3):
        rng, oracle = random.Random(seed), random.Random(seed)
        for _ in range(20):
            s, expected = gen_state(rng, cfg), _randrange_state(oracle, cfg)
            assert s == expected
            assert list(s.regs.items()) == list(expected.regs.items())
        assert rng.getstate() == oracle.getstate()


def test_hopeless_program_draws_as_50_states():
    p = parse_program("entry a:\n  jump a\n")
    cfg = GenConfig()
    assert no_input_terminates(p, cfg)
    rng, oracle = random.Random(5), random.Random(5)
    assert gen_safe_input(rng, p, cfg, 1000) is None
    for _ in range(50):
        gen_state(oracle, cfg)
    assert rng.getstate() == oracle.getstate()
    # the caller's verdict is taken as given
    assert gen_safe_input(rng, p, cfg, 1000, attempts=7, hopeless=True) is None
    for _ in range(7):
        gen_state(oracle, cfg)
    assert rng.getstate() == oracle.getstate()
