"""The states runs end in, pinned.

`data/explore_outputs.json` pins the directives, traces and outcomes of
explored runs but not the state a run stops in. This file pins SHA-256
digests of (status, reason, trace, final state) for the sequential run from
each safe input of generated programs, for every sequence explored under
the five drivers of `test_gen_explore._explorations`, and for hand-built
runs that reach the rarer rules: undefined operands, function-pointer
equality, conditionals on UV, a pc out of range, the ctarget fault, a
directive mismatch, an ideal call fault and machine accesses outside the
data section.
"""

import hashlib
import json
import pathlib

from specibt.explore import ExploreBudget, explore
from specibt.interp import (
    DBranch,
    DCallMc,
    DCallMir,
    State,
    run_ideal,
    run_seq,
    run_spec,
)
from specibt.ir import (
    Asgn,
    BinOp,
    Block,
    Branch,
    Call,
    Cond,
    Const,
    CTARGET,
    FP,
    FpConst,
    Jump,
    Load,
    PC,
    Program,
    Reg,
    RET,
    SKIP,
    Store,
)
from specibt.machine import concretize_state, linearize, run_mc
from specibt.textio import encode_directives, encode_state, encode_trace

from test_gen_explore import _explorations, _safe_programs

PINNED = pathlib.Path(__file__).parent / "data" / "run_states.json"


def _state_doc(s):
    if isinstance(s.pc, int):  # a machine state
        return {"pc": s.pc, "regs": sorted(s.regs.items()), "mem": list(s.mem),
                "stk": list(s.stk), "ct": s.ct, "ms": s.ms}
    return encode_state(s)


def _doc(r) -> bytes:
    doc = [r.status, r.reason, encode_trace(r.trace), _state_doc(r.state)]
    return json.dumps(doc).encode()


def _generated_digests(seed: int, programs: int, depth: int) -> dict[str, str]:
    """One digest over the sequential runs from each safe input, and one
    per driver over every sequence it explores."""
    digests = {"seq": hashlib.sha256()}
    for p, s in _safe_programs(seed, programs):
        digests["seq"].update(_doc(run_seq(p, s, 200)))
    budget = ExploreBudget(depth=depth, max_sequences=40, fuel=200)
    for name, drv, s0 in _explorations(seed, programs):
        h = digests.setdefault(name, hashlib.sha256())
        for dirs, r in explore(drv, s0, budget):
            h.update(json.dumps(encode_directives(dirs)).encode())
            h.update(_doc(r))
    return {k: h.hexdigest() for k, h in sorted(digests.items())}


def _st(regs, mem=(3, 4), pc=PC(0, 0), **flags) -> State:
    return State(pc, regs, tuple(mem), (), **flags)


UV_OPS = Program((Block((
    Asgn("y", BinOp("+", Reg("u"), Const(1))),
    Asgn("z", BinOp("*", Reg("f"), Const(2))),
    Asgn("w", BinOp("=", Reg("f"), Const(0))),
    Asgn("v", BinOp("-", Const(2), Const(5))),
    Store(Const(1), Reg("u")),
    Load("m", Const(1)),
    RET,
), is_entry=True),))
FP_EQ = Program((
    Block((
        Asgn("e", BinOp("=", FpConst(1), Reg("f"))),
        Asgn("n", BinOp("=", FpConst(0), Reg("f"))),
        Asgn("g", BinOp("<=", FpConst(1), Reg("f"))),
        RET,
    ), is_entry=True),
    Block((RET,), is_entry=True),
))
COND_UV = Program((Block((
    Asgn("c", Cond(Reg("u"), Const(1), Const(2))),
    Asgn("d", Cond(Const(1), Const(5), Reg("u"))),
    Asgn("e", Cond(Reg("f"), Const(1), Const(2))),
    Branch(Reg("c"), 0),
    RET,
), is_entry=True),))
JUMP_OUT = Program((Block((SKIP, Jump(3)), is_entry=True),))
# In CALLS, block 1 is a function whose head is not a ctarget; block 2 is one that
# starts with a ctarget.
CALLS = Program((
    Block((Call(Reg("f")), Branch(Reg("x"), 3), Load("x", Reg("a")), RET),
          is_entry=True),
    Block((SKIP, RET), is_entry=True),
    Block((CTARGET, Store(Reg("a"), Const(9)), RET), is_entry=True),
    Block((Load("y", Reg("x")), RET)),
))
MC_DATA = Program((Block((
    Load("x", Reg("a")),
    Store(Reg("b"), Const(1)),
    Call(Reg("c")),
    RET,
), is_entry=True),))


def _mc_run(p, s, dirs, **regs):
    mc = linearize(p, len(s.mem))
    m = concretize_state(s, mc.lay)
    m = State(m.pc, {**m.regs, **regs}, m.mem, m.stk, m.ct, m.ms)
    return run_mc(mc, m, dirs, 50)


def edge_runs():
    """(name, run result) of every hand-built case."""
    f1 = {"f": FP(1), "x": 0, "a": 1}
    f2 = {"f": FP(2), "x": 1, "a": 0}
    return [
        ("uv-operands", run_seq(UV_OPS, _st({"f": FP(0)}), 50)),
        ("fp-eq-fp", run_seq(FP_EQ, _st({"f": FP(1)}), 50)),
        ("cond-uv", run_seq(COND_UV, _st({"f": FP(0)}), 50)),
        ("pc-out-of-range", run_seq(JUMP_OUT, _st({}), 50)),
        ("pc-bad-label", run_seq(JUMP_OUT, _st({}, pc=PC(-1, 0)), 50)),
        ("pc-bad-offset", run_spec(JUMP_OUT, _st({}, pc=PC(0, 7)), [], 50)),
        ("seq-call-not-entry", run_seq(CALLS, _st({"f": FP(3)}), 50)),
        ("seq-call-not-fp", run_seq(CALLS, _st({"f": 1}), 50)),
        ("seq-load-out-of-bounds", run_seq(CALLS, _st({"f": FP(1), "x": 0, "a": 5}), 50)),
        ("ct-fault-armed", run_spec(CALLS, _st(f1, ct=True), [], 50)),
        ("ct-fault-after-call", run_spec(CALLS, _st(f1), [DCallMir(PC(1, 0))], 50)),
        ("ct-landing", run_spec(CALLS, _st(f2), [DCallMir(PC(2, 0)), DBranch(False)], 50)),
        ("no-cet-midblock", run_spec(CALLS, _st(f2), [DCallMir(PC(2, 1)), DBranch(True)],
                                     50, cet=False)),
        ("spec-out-of-directives", run_spec(CALLS, _st(f2), [DCallMir(PC(2, 0))], 50)),
        ("mismatch-at-branch",
         run_spec(CALLS, _st(f2), [DCallMir(PC(2, 0)), DCallMir(PC(0, 0))], 50)),
        ("mismatch-at-call", run_ideal(CALLS, _st(f1), [DBranch(True)], 50)),
        ("ideal-call-fault", run_ideal(CALLS, _st(f1), [DCallMir(PC(1, 1))], 50)),
        ("ideal-call-bad-label", run_ideal(CALLS, _st(f1), [DCallMir(PC(9, 0))], 50)),
        ("ideal-masked", run_ideal(CALLS, _st({"f": 7, "x": 1, "a": 9}, ms=True),
                                   [DCallMir(PC(2, 0)), DBranch(True)], 50)),
        ("mc-load-outside", _mc_run(MC_DATA, _st({"a": 2, "b": 0, "c": 0}), [])),
        ("mc-store-outside", _mc_run(MC_DATA, _st({"a": 1, "b": 2, "c": 0}), [])),
        ("mc-call-outside", _mc_run(MC_DATA, _st({"a": 1, "b": 0, "c": 99}), [])),
        ("mc-call-mismatch", _mc_run(MC_DATA, _st({"a": 1, "b": 0}), [DBranch(True)], c=2)),
        ("mc-call-fault", _mc_run(MC_DATA, _st({"a": 1, "b": 0}), [DCallMc(3)], c=2)),
        ("mc-out-of-directives", _mc_run(MC_DATA, _st({"a": 1, "b": 0}), [], c=2)),
        ("mc-pc-in-data", run_mc(linearize(MC_DATA, 2), State(0, {}, (3, 4)), [], 50)),
    ]


def run_digests(seed: int, programs: int, depth: int) -> dict[str, str]:
    digests = _generated_digests(seed, programs, depth)
    for name, r in edge_runs():
        digests[f"edge/{name}"] = hashlib.sha256(_doc(r)).hexdigest()
    return digests


def test_run_states_are_pinned():
    pinned = json.loads(PINNED.read_text())
    got = run_digests(pinned["seed"], pinned["programs"], pinned["depth"])
    assert got == pinned["sha256"]
