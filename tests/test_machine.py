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
    Stuck,
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
    RET,
    UV,
)
from specibt.machine import (
    McState,
    concretize_state,
    McProgram,
    concretize_value,
    layout,
    linearize,
    run_mc,
    step_mc,
    wf_directives_mc,
)

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
        mc = McProgram((Asgn("out", e), RET))
        return step_mc(mc, layout(TINY, 2), McState(2, regs, (0, 0))).state.regs["out"]

    assert eval_mc(Const(3), {}) == 3
    assert eval_mc(Const(0), {"x": 9}) == 0
    # unset registers read zero at the machine level
    assert eval_mc(Reg("nope"), {}) == 0
    assert eval_mc(BinOp("-", Const(1), Const(5)), {}) == 0
    with pytest.raises(ValueError, match="unknown operator"):
        eval_mc(BinOp("%", Const(1), Const(1)), {})


def test_step_mc_call_and_fault():
    lay = layout(TINY, 2)
    mc = linearize(TINY, 2)
    s = McState(2, {}, (0, 0))
    out = step_mc(mc, lay, s, DCallMc(4))
    assert isinstance(out, Next)
    assert out.state.pc == 4 and out.state.ct and not out.state.ms
    assert out.state.stk == (3,)
    assert out.obs == OCall(4)
    # injected mid-block target: misprediction recorded, then Fault at the
    # non-ctarget fetch
    out = step_mc(mc, lay, s, DCallMc(5))
    assert out.state.ms
    out2 = step_mc(mc, lay, out.state)
    assert isinstance(out2, Fault)


def test_step_mc_stuck_conditions():
    lay = layout(TINY, 2)
    mc = linearize(TINY, 2)
    assert isinstance(step_mc(mc, lay, McState(0, {}, (0, 0))), Stuck)
    assert isinstance(step_mc(mc, lay, McState(9, {}, (0, 0))), Stuck)
    # call target resolving outside the code section
    p = Program((Block((Call(Const(1)), RET), is_entry=True),))
    lay2 = layout(p, 2)
    mc2 = linearize(p, 2)
    out = step_mc(mc2, lay2, McState(2, {}, (0, 0)), DCallMc(2))
    assert isinstance(out, Stuck)
    # data access out of range
    p = Program((Block((Load("x", Const(7)), RET), is_entry=True),))
    out = step_mc(linearize(p, 2), layout(p, 2), McState(2, {}, (0, 0)))
    assert isinstance(out, Stuck)


def test_mc_load_reads_data_section():
    p = Program((Block((Load("x", Const(1)), RET), is_entry=True),))
    lay = layout(p, 2)
    out = step_mc(linearize(p, 2), lay, McState(2, {}, (4, 9)))
    assert out.state.regs["x"] == 9 and out.obs == OLoad(1)


def test_run_mc_full_program():
    lay = layout(TINY, 2)
    mc = linearize(TINY, 2)
    r = run_mc(mc, lay, McState(2, {}, (0, 0)), [DCallMc(4)], 100)
    assert r.status == "term"
    assert r.trace == [OCall(4)]


def test_wf_directives_mc():
    lay = layout(TINY, 2)
    mc = linearize(TINY, 2)
    assert wf_directives_mc([DBranch(True), DCallMc(4)], lay, mc)
    assert not wf_directives_mc([DCallMc(1)], lay, mc)
    assert not wf_directives_mc([DCallMc(6)], lay, mc)
    assert not wf_directives_mc([DCallMir(PC(0, 0))], lay, mc)


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
