"""Early rejection in `gen_safe_input`: sound, and invisible in the stream.

A program is rejected without running any drawn input if its run from the
all-UV state runs out of fuel, or if that run is stuck and an abstract run
over intervals proves that no input `gen_state` may draw ever terminates.
That must never reject a program some input terminates on, and it must
leave the results and the rng exactly where the full rejection sampling
leaves them. The digests in `data/gen_safe_input_stream.json` were recorded
with the plain 50-attempt loop. The all-UV run itself takes a repeated
run's periods at once, so the runs of `bench/gen_corpus` cost a tenth of
their steps, and a draw's run stops at its first repeat, with nothing built
for the fuel left. `gen_state` draws each value by the rule of `randrange`,
checked against it value for value and by the rng's state after them.
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
    _all_uv_run,
    _drawn,
    _never_terminates,
    _terminates,
    gen_program,
    gen_safe_input,
    gen_state,
    no_input_terminates,
)
from specibt.interp import State, run_seq
from specibt.ir import PC, UV, used_registers
from specibt.textio import encode_state, parse_program

PINNED = pathlib.Path(__file__).parent / "data" / "gen_safe_input_stream.json"


def _sha256(doc) -> str:
    return hashlib.sha256(doc.encode()).hexdigest()


def test_all_uv_fuel_out_implies_every_input_fuels_out():
    cfg = GenConfig()
    rng = random.Random(77)
    hopeless = 0
    for _ in range(200):
        p = gen_program(rng, cfg)
        all_uv = State(PC(0, 0), {}, (UV,) * cfg.mem_len)
        if run_seq(p, all_uv, 500).status != "fuel":
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
    """The all-UV runs of `bench/gen_corpus` at `fuzz-*`'s default fuel
    find its 6 input-independent hopeless programs and take their repeated
    periods at once: stepped throughout, they take 6,065 steps."""
    programs = [p for _, p, _ in _corpus()]
    steps = []
    real = interp._step

    def counted(p, s, d, sem):
        steps.append(s)
        return real(p, s, d, sem)

    monkeypatch.setattr(interp, "_step", counted)
    fuel_outs = [_all_uv_run(p, GenConfig(), 1000).status == "fuel" for p in programs]
    assert (len(programs), sum(fuel_outs)) == (40, 6)
    assert len(steps) < 6_065 // 10


def test_the_hopeless_programs_of_the_gen_corpus_are_pinned():
    """Of the 7 corpus programs that never yield a safe input but get stuck
    from the all-UV state, the abstract run proves 6 hopeless. p00 is left:
    its loop `branch (r3 <= (r3 ? r3 : 11)) b4` is taken by every value of
    r3, which intervals cannot see without relating the two sides."""
    hopeless = {name for name, p, cfg in _corpus() if no_input_terminates(p, cfg, 1000)}
    assert hopeless == {"p05", "p06", "p08", "p14", "p19", "p24", "p25", "p26", "p31",
                        "p32", "p33", "p34"}
    name, p00, cfg = next(_corpus())
    assert name == "p00" and not no_input_terminates(p00, cfg, 1000)
    assert gen_safe_input(random.Random(0), p00, cfg, 1000, attempts=200) is None


@pytest.mark.parametrize("seed", [0, 1])
def test_no_input_of_a_proved_program_terminates(seed):
    """Over 1,000 generated programs per seed, every program the abstract
    run proves hopeless, beyond the all-UV run, has no terminating input
    among 100 draws at fuel 10,000."""
    cfg, rng, proved = GenConfig(), random.Random(seed), 0
    for i in range(1000):
        p = gen_program(rng, cfg)
        if (_all_uv_run(p, cfg, 10_000).status != "stuck"
                or not _never_terminates(p, _drawn(cfg), _ABSTRACT_STEPS)[0]):
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
    assert _all_uv_run(p, cfg, 1000).status == "stuck"
    assert not _never_terminates(p, _drawn(cfg), _ABSTRACT_STEPS)[0]
    assert not no_input_terminates(p, cfg, 1000)


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
    cfg = GenConfig()
    assert _all_uv_run(p, cfg, 1000).status == "stuck"
    assert no_input_terminates(p, cfg, 1000)


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
    assert no_input_terminates(p, cfg, 1000)
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
