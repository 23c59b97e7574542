"""The shape of every step outcome that continues a run.

Rules build their states, `Next`s and observations by `tuple.__new__`,
which skips the classes' own constructors and so their check of the
number of fields. Random walks over generated programs, as given, hardened
and linearized, under random directives that include ones of the wrong
kind, check what those constructors would have: each `Next` has its state
and observation, each state its fields, and each observation is exactly an
instance of its own class.
"""

import random
from collections import Counter

from specibt.checks import _hardened_init, _lockstep_driver
from specibt.gen import gen_program, gen_state
from specibt.hardening import harden
from specibt.interp import (
    DBranch,
    DCallMc,
    DCallMir,
    Lockstep,
    Next,
    OBranch,
    OCall,
    OLoad,
    OStore,
    OutOfDirectives,
    State,
    step_ideal,
    step_seq,
    step_spec,
)
from specibt.ir import PC
from specibt.machine import concretize_state, linearize, step_mc

OBSERVATIONS = (OLoad, OStore, OBranch, OCall)


def _check_state(s) -> None:
    if type(s) is Lockstep:
        assert len(s) == 2
        for level in s:
            _check_state(level)
    else:
        assert type(s) is State and len(s) == 6


def _check_obs(o, seen: Counter) -> None:
    assert type(o) in OBSERVATIONS and len(o) == 1
    seen[type(o).__name__] += 1


def _walk(step, s, directives, rng, seen: Counter, steps: int = 40) -> None:
    """Step from `s`, giving each step a random directive or none, and at a
    prediction point a random one, of either kind; check each `Next`."""
    for _ in range(steps):
        out = step(s, rng.choice(directives + [None]))
        if isinstance(out, OutOfDirectives):
            out = step(s, rng.choice(directives))
        if not isinstance(out, Next):
            return
        assert type(out) is Next and len(out) == 2
        s, obs = out
        _check_state(s)
        if type(obs) is tuple:  # the lockstep's pair, one per level
            assert len(obs) == 2
            for o in obs:
                if o is not None:
                    _check_obs(o, seen)
        elif obs is not None:
            _check_obs(obs, seen)
        seen["next"] += 1


def test_every_next_has_its_shape():
    rng = random.Random(2027)
    seen = Counter()
    for _ in range(60):
        p = gen_program(rng)
        s0 = gen_state(rng)
        hp = harden(p)
        h0 = _hardened_init(s0)
        mc = linearize(hp, len(s0.mem))
        m0 = concretize_state(h0, mc.lay)
        n = len(hp.blocks)
        mir = [DBranch(True), DBranch(False), DCallMir(PC(rng.randrange(n + 1), 0)),
               DCallMir(PC(rng.randrange(n), 1)), DCallMc(mc.lay.data_len)]
        machine = [DBranch(True), DBranch(False),
                   DCallMc(mc.lay.data_len + rng.randrange(len(mc.code) + 1))]
        for q, s in ((p, s0), (hp, h0)):
            _walk(lambda s, d: step_seq(q, s), s, mir, rng, seen)
            for cet in (True, False):
                _walk(lambda s, d: step_spec(q, s, d, cet), s, mir, rng, seen)
            _walk(lambda s, d: step_ideal(q, s, d), s, mir, rng, seen)
        _walk(lambda s, d: step_mc(mc, s, d), m0, machine, rng, seen)
        _walk(_lockstep_driver(hp, mc).step, Lockstep(h0, m0), machine, rng, seen)
    # every kind of observation was made
    assert set(seen) == {"next", "OLoad", "OStore", "OBranch", "OCall"}
