"""Failing linearization verdicts, pinned.

Linearization is correct, so no other golden shows `check_bcc_linearize`
fail. Here `specibt.checks.linearize` is replaced by broken linearizers (a
retargeted branch, a dropped ctarget, a shifted store address, ...) on
Listing 1, its hardened form and a few generated programs. Each verdict must
match the one recorded in `data/lockstep_broken.json` in status, runs, reason
and both traces. Its directives must be a prefix of the recorded ones, and
replaying them at both levels must reach the same divergence.

To re-record the data file after a deliberate change:

    PYTHONPATH=src python3 tests/test_lockstep_pinned.py
"""

import json
import pathlib
import random

import pytest

import specibt.checks
from specibt.checks import check_bcc_linearize
from specibt.explore import ExploreBudget, McDriver, explore
from specibt.gen import GenConfig, gen_program, gen_safe_input, spec_of
from specibt.hardening import harden
from specibt.interp import State, run_spec
from specibt.ir import FP, Asgn, BinOp, Branch, Const, CTarget, Load, Skip, Store
from specibt.machine import McProgram, concretize_state, linearize, run_mc
from specibt.relate import map_directive_mc_to_mir, map_obs_mir_to_mc
from specibt.textio import (
    decode_directives,
    decode_state,
    encode_directives,
    encode_trace,
    parse_program,
)

ROOT = pathlib.Path(__file__).parent.parent
PINNED = ROOT / "tests" / "data" / "lockstep_broken.json"
BUDGET = ExploreBudget(depth=3, max_sequences=400, fuel=200)
GEN = GenConfig(min_blocks=4, max_blocks=6, min_insts=2, max_insts=6)
SEED = 3
GENERATED = 6


def _plus1(e):
    return BinOp("+", e, Const(1))


# Each broken linearizer rewrites the first or the last instruction of a kind.
MUTANTS = {
    "retarget-branch": (Branch, lambda i: Branch(i.cond, i.target + 1)),
    "negate-branch": (Branch, lambda i: Branch(BinOp("=", i.cond, Const(0)), i.target)),
    "branch-to-skip": (Branch, lambda i: Skip()),
    "drop-ctarget": (CTarget, lambda i: Skip()),
    "shift-store": (Store, lambda i: Store(_plus1(i.addr), i.value)),
    "shift-load": (Load, lambda i: Load(i.reg, _plus1(i.addr))),
    "bump-asgn": (Asgn, lambda i: Asgn(i.reg, _plus1(i.expr))),
}


def broken(mutant: str):
    """The linearizer named `mutant`: "none" or "<rewrite>@first|last"."""
    if mutant == "none":
        return linearize
    name, where = mutant.split("@")
    kind, rewrite = MUTANTS[name]

    def lin(p, data_len):
        mc = linearize(p, data_len)
        code = list(mc.code)
        hits = [k for k, i in enumerate(code) if isinstance(i, kind)]
        if hits:
            k = hits[0 if where == "first" else -1]
            code[k] = rewrite(code[k])
        return McProgram(tuple(code), mc.lay)

    return lin


def programs():
    """(name, program, initial speculative state) of every pinned case."""
    pair = json.loads((ROOT / "corpus" / "listing1_pair.json").read_text())
    l1 = parse_program((ROOT / "corpus" / "listing1.mir").read_text())
    s1 = decode_state(pair["s1"])
    hs = State(s1.pc, {**s1.regs, "msf": 0, "callee": FP(0)}, s1.mem, s1.stk, ct=True)
    hp = harden(l1)
    out = [("listing1", l1, spec_of(s1)), ("listing1-hardened", hp, hs),
           # without its reserved registers set, the hardened program's
           # speculative run gets stuck on an undefined misspeculation flag
           ("listing1-hardened-raw", hp, spec_of(s1, ct=True))]
    rng = random.Random(SEED)
    while len(out) < 3 + GENERATED:
        p = gen_program(rng, GEN)
        s = gen_safe_input(rng, p, GEN, BUDGET.fuel)
        if s is not None and _sequences(p, spec_of(s)) >= 4:
            out.append((f"gen{len(out) - 3}", p, spec_of(s)))
    return out


def _sequences(p, s0) -> int:
    mc = linearize(p, len(s0.mem))
    return sum(1 for _ in explore(McDriver(mc), concretize_state(s0, mc.lay), BUDGET))


CASES = [(name, mutant) for name in
         ["listing1", "listing1-hardened", "listing1-hardened-raw"]
         + [f"gen{k}" for k in range(GENERATED)]
         for mutant in ["none"] + [f"{m}@{w}" for m in MUTANTS for w in ("first", "last")]]


def verdict_doc(v) -> dict:
    return {
        "status": v.status,
        "runs": v.runs,
        "reason": v.reason,
        "directives": None if v.directives is None else encode_directives(v.directives),
        "trace1": None if v.trace1 is None else encode_trace(v.trace1),
        "trace2": None if v.trace2 is None else encode_trace(v.trace2),
    }


def run_case(mp: pytest.MonkeyPatch, p, s0, mutant):
    mp.setattr(specibt.checks, "linearize", broken(mutant))
    return check_bcc_linearize(p, s0, BUDGET)


@pytest.fixture(scope="module")
def cases():
    return {name: (p, s0) for name, p, s0 in programs()}


@pytest.fixture(scope="module")
def pinned():
    return {(c["program"], c["mutant"]): c["verdict"]
            for c in json.loads(PINNED.read_text())}


def test_cases_fail_in_every_way(pinned):
    """The pinned set covers each way the lockstep walk can end early."""
    reasons = {v["reason"].split(":")[0] for v in pinned.values() if v["reason"]}
    assert {"observations diverge", "state relation broken",
            "prediction points do not line up", "outcomes diverge",
            "source speculative run is stuck"} <= reasons


@pytest.mark.parametrize("name,mutant", CASES)
def test_broken_linearizer_verdict_is_pinned(cases, pinned, monkeypatch, name, mutant):
    p, s0 = cases[name]
    got = verdict_doc(run_case(monkeypatch, p, s0, mutant))
    want = pinned[(name, mutant)]
    for key in ("status", "runs", "reason", "trace1", "trace2"):
        assert got[key] == want[key], key
    if want["directives"] is None:
        assert got["directives"] is None
        return
    n = len(got["directives"])
    assert got["directives"] == want["directives"][:n]
    if got["status"] == "pass":
        return
    # Replaying the consumed directives reaches the same divergence.
    dirs = decode_directives(got["directives"])
    mc = broken(mutant)(p, len(s0.mem))
    lay = mc.lay
    r_mc = run_mc(mc, concretize_state(s0, lay), dirs, BUDGET.fuel)
    r_mir = run_spec(p, s0, [map_directive_mc_to_mir(d, lay) for d in dirs], BUDGET.fuel)
    if got["status"] == "counterexample":
        t1 = encode_trace([map_obs_mir_to_mc(o, lay) for o in r_mir.trace])
        assert t1[: len(got["trace1"])] == got["trace1"]
        assert encode_trace(r_mc.trace)[: len(got["trace2"])] == got["trace2"]
    elif got["reason"] == "source speculative run is stuck":
        assert r_mir.status == "stuck"


def record() -> None:
    cases = {name: (p, s0) for name, p, s0 in programs()}
    out = []
    for name, mutant in CASES:
        with pytest.MonkeyPatch.context() as mp:
            v = run_case(mp, *cases[name], mutant)
        out.append({"program": name, "mutant": mutant, "verdict": verdict_doc(v)})
    PINNED.write_text("[\n" + ",\n".join(json.dumps(c) for c in out) + "\n]\n")


if __name__ == "__main__":
    record()
