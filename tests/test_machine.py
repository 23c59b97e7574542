"""Linearization layout oracle and machine interpreter tests."""

import random

import pytest

from specibt.gen import GenConfig, gen_state, spec_of
from specibt.interp import (
    DBranch,
    DCallMc,
    DCallMir,
    Fault,
    Next,
    OCall,
    OLoad,
    OStore,
    State,
    Stuck,
    run_spec,
    step_ideal,
    step_seq,
    step_spec,
)
from specibt.ir import (
    Block,
    Branch,
    Call,
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
    Store,
    UV,
)
from specibt.machine import (
    concretize_state,
    McProgram,
    concretize_value,
    layout,
    linearize,
    run_mc,
    step_mc,
)
from specibt.relate import map_obs_mir_to_mc, state_rel

# Two blocks of sizes 2 and 2 after a data section of 2 cells:
# addresses 2,3 belong to b0 and 4,5 to b1.
TINY = Program(
    (
        Block((Call(FpConst(1)), RET), is_entry=True),
        Block((CTARGET, RET), is_entry=True),
    )
)


def test_layout_hand_oracle():
    lay = layout(TINY, 2)
    assert lay.addr(0) == 2 and lay.addr(1) == 4
    assert lay.code_len == 4
    assert lay.addr_to_pc(2) == PC(0, 0)
    assert lay.addr_to_pc(5) == PC(1, 1)
    assert lay.addr_to_pc(1) is None and lay.addr_to_pc(6) is None


def test_layout_requires_positive_data():
    with pytest.raises(ValueError):
        layout(TINY, 0)


def test_linearize_rewrites_labels():
    mc = linearize(TINY, 2)
    assert mc.code[0] == Call(Const(4))
    p = Program(
        (
            Block((Branch(Const(1), 1), Jump(1)), is_entry=True),
            Block((RET,), is_entry=False),
        )
    )
    mc = linearize(p, 3)
    assert mc.code[0] == Branch(Const(1), 5)
    assert mc.code[1] == Jump(5)


def test_eval_mc_is_plain_natural_arithmetic():
    from specibt.ir import Asgn, BinOp, Reg

    def eval_mc(e, regs):
        mc = linearize(Program((Block((Asgn("out", e), RET), is_entry=True),)), 2)
        return step_mc(mc, State(2, regs, (0, 0))).state.regs["out"]

    assert eval_mc(Const(3), {}) == 3
    assert eval_mc(Const(0), {"x": 9}) == 0
    # unset registers read zero at the machine level
    assert eval_mc(Reg("nope"), {}) == 0
    assert eval_mc(BinOp("-", Const(1), Const(5)), {}) == 0
    with pytest.raises(ValueError, match="unknown operator"):
        eval_mc(BinOp("%", Const(1), Const(1)), {})


def test_machine_branch_and_store_read_unset_registers_as_zero():
    from specibt.ir import Reg, Store

    # a branch on an unset register goes on as if it read 0: not taken
    p = Program((Block((Branch(Reg("c"), 0), RET), is_entry=True),))
    mc, s = linearize(p, 2), State(2, {}, (4, 9))
    out = step_mc(mc, s)
    assert out.correct == DBranch(False)
    out = step_mc(mc, s, DBranch(False))
    assert out.state.pc == 3 and not out.state.ms
    # a store of an unset register to an unset one writes 0 to cell 0
    p = Program((Block((Store(Reg("a"), Reg("v")), RET), is_entry=True),))
    out = step_mc(linearize(p, 2), s)
    assert out.state.mem == (0, 9) and out.obs == OStore(0)


def test_step_mc_call_and_fault():
    mc = linearize(TINY, 2)
    s = State(2, {}, (0, 0))
    out = step_mc(mc, s, DCallMc(4))
    assert isinstance(out, Next)
    assert out.state.pc == 4 and out.state.ct and not out.state.ms
    assert out.state.stk == (3,)
    assert out.obs == OCall(4)
    # injected mid-block target: misprediction recorded, then Fault at the
    # non-ctarget fetch
    out = step_mc(mc, s, DCallMc(5))
    assert out.state.ms
    out2 = step_mc(mc, out.state)
    assert isinstance(out2, Fault)


# Block 0 calls block 1 through `f`; block 1 is a function whose head is a
# ctarget, so a call to its second instruction lands on no landing pad.
MID_CALL = Program((
    Block((Call(Reg("f")), Load("y", Reg("a")), RET), is_entry=True),
    Block((CTARGET, Store(Reg("a"), Const(9)), RET), is_entry=True),
))


def test_mc_call_mid_block_runs_on_without_cet():
    s = State(PC(0, 0), {"f": FP(1), "a": 0}, (3, 4))
    mc = linearize(MID_CALL, 2)
    m, mid = concretize_state(s, mc.lay), mc.lay.pc_addr(PC(1, 1))
    src = run_spec(MID_CALL, s, [DCallMir(PC(1, 1))], 50, cet=False)
    r = run_mc(mc, m, [DCallMc(mid)], 50, cet=False)
    assert (src.status, r.status) == ("term", "term")
    assert r.trace == [map_obs_mir_to_mc(o, mc.lay) for o in src.trace]
    assert r.trace == [OCall(mc.lay.addr(1)), OStore(0), OLoad(0)]
    assert r.state.ms and state_rel(src.state, r.state, mc.lay)
    # under cet the call arms the ctarget check, and the store faults
    assert run_mc(mc, m, [DCallMc(mid)], 50).status == "fault"


def test_step_mc_stuck_conditions():
    mc = linearize(TINY, 2)
    assert isinstance(step_mc(mc, State(0, {}, (0, 0))), Stuck)
    assert isinstance(step_mc(mc, State(9, {}, (0, 0))), Stuck)
    # call target resolving outside the code section
    p = Program((Block((Call(Const(1)), RET), is_entry=True),))
    mc2 = linearize(p, 2)
    out = step_mc(mc2, State(2, {}, (0, 0)), DCallMc(2))
    assert isinstance(out, Stuck)
    # data access out of range
    p = Program((Block((Load("x", Const(7)), RET), is_entry=True),))
    out = step_mc(linearize(p, 2), State(2, {}, (0, 0)))
    assert isinstance(out, Stuck)


def test_mc_load_reads_data_section():
    p = Program((Block((Load("x", Const(1)), RET), is_entry=True),))
    out = step_mc(linearize(p, 2), State(2, {}, (4, 9)))
    assert out.state.regs["x"] == 9 and out.obs == OLoad(1)


# Load and store run one rule at both levels. The memory a step sees is
# MEM: a block-level state's memory, or the data section of machine code.
MEM = (4, 9, 7)
BLOCK_STEPS = {"seq": step_seq, "spec": step_spec, "ideal": step_ideal}


def _access(level: str, kind: str, a):
    """One step at `level` of a load or store at address `a`, the first
    instruction of a one-block program, from memory MEM."""
    inst = Load("x", Reg("a")) if kind == "load" else Store(Reg("a"), Const(5))
    p = Program((Block((inst, RET), is_entry=True),))
    s = State(PC(0, 0), {"a": a}, MEM)
    if level == "mc":  # the code starts right after the data section
        return step_mc(linearize(p, len(MEM)), s._replace(pc=len(MEM)))
    return BLOCK_STEPS[level](p, s)


@pytest.mark.parametrize("kind", ["load", "store"])
@pytest.mark.parametrize("level", [*BLOCK_STEPS, "mc"])
def test_access_to_the_last_cell_steps(level, kind):
    last = len(MEM) - 1
    out = _access(level, kind, last)
    assert isinstance(out, Next)
    if kind == "load":
        assert out.obs == OLoad(last) and out.state.regs["x"] == 7
    else:
        assert out.obs == OStore(last) and out.state.mem == (4, 9, 5)


@pytest.mark.parametrize("kind", ["load", "store"])
@pytest.mark.parametrize("level", [*BLOCK_STEPS, "mc"])
def test_access_past_memory_is_stuck_with_the_phrase_of_its_level(level, kind):
    phrase = "outside data section" if level == "mc" else "out of bounds"
    assert _access(level, kind, len(MEM)) == Stuck(f"{kind} address {len(MEM)} {phrase}")


@pytest.mark.parametrize("kind", ["load", "store"])
@pytest.mark.parametrize("level", BLOCK_STEPS)  # machine values are naturals
def test_undefined_address_is_stuck_at_block_level(level, kind):
    assert _access(level, kind, UV) == Stuck(f"{kind} address is not a number")


def test_run_mc_full_program():
    mc = linearize(TINY, 2)
    r = run_mc(mc, State(2, {}, (0, 0)), [DCallMc(4)], 100)
    assert r.status == "term"
    assert r.trace == [OCall(4)]


def test_linearized_code_carries_its_layout():
    assert linearize(TINY, 2).lay == layout(TINY, 2)
    assert linearize(TINY, 3).lay == layout(TINY, 3)


def test_rules_are_compiled_once_and_kept_on_the_program():
    mc = linearize(TINY, 2)
    s = State(2, {}, (0, 0))
    step_mc(mc, s, DCallMc(4))
    # kept per semantics, by `cet`, and by offset into the code
    rule, *unreached = mc.compiled[True]
    assert unreached == [None] * 3 and False not in mc.compiled
    step_mc(mc, s, DCallMc(4))
    assert mc.compiled[True][0] is rule
    step_mc(mc, s, DCallMc(4), cet=False)
    assert mc.compiled[False][0] is not rule
    # the compiled rules are no part of the program's value
    fresh = McProgram(mc.code, mc.lay)
    assert mc == fresh and hash(mc) == hash(fresh)
    assert repr(mc) == repr(fresh)


def test_concretize_values():
    lay = layout(TINY, 2)
    assert concretize_value(5, lay) == 5
    assert concretize_value(FP(1), lay) == 4
    assert concretize_value(UV, lay) == 0


def test_concretize_state():
    lay = layout(TINY, 2)
    sp = spec_of(gen_state(random.Random(1), GenConfig(mem_len=2)), ct=True)
    m = concretize_state(sp, lay)
    assert m.pc == 2 and m.ct and not m.ms
    assert all(isinstance(v, int) for v in m.regs.values())
