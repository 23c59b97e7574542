"""Early rejection in `gen_safe_input`: sound, and invisible in the stream.

A program whose run from the all-UV state runs out of fuel is rejected
without running any drawn input. That must never reject a program some
input terminates on, and it must leave the results and the rng exactly
where the full rejection sampling leaves them. The digests in
`data/gen_safe_input_stream.json` were recorded with the plain
50-attempt loop. The all-UV check itself takes a repeated run's periods at
once, so the checks of `bench/gen_corpus` cost a tenth of their steps, and a
draw's run stops at its first repeat, with nothing built for the fuel left.
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
    _terminates,
    gen_program,
    gen_safe_input,
    gen_state,
    no_input_terminates,
)
from specibt.interp import State, run_seq
from specibt.ir import PC, UV
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


def test_all_uv_checks_of_the_gen_corpus_take_their_periods(monkeypatch):
    """The all-UV checks of `bench/gen_corpus` at `fuzz-*`'s default fuel
    find its 6 hopeless programs and take their repeated periods at once:
    stepped throughout, they take 6,065 steps."""
    corpus = pathlib.Path(__file__).parent.parent / "bench" / "gen_corpus"
    programs = [parse_program(f.read_text()) for f in sorted(corpus.glob("*.mir"))]
    steps = []
    real = interp._step

    def counted(p, s, d, sem):
        steps.append(s)
        return real(p, s, d, sem)

    monkeypatch.setattr(interp, "_step", counted)
    hopeless = [no_input_terminates(p, GenConfig(), 1000) for p in programs]
    assert (len(programs), sum(hopeless)) == (40, 6)
    assert len(steps) < 6_065 // 10


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
