"""Linearization of block-structured programs to a flat machine language,
and the speculative machine interpreter.

The machine image is a data section of `data_len` cells followed by the
flattened code. Labels in jumps, branches and function-pointer constants
become absolute addresses; machine values are plain naturals.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .ir import (
    UV,
    Asgn,
    BinOp,
    Branch,
    Call,
    Cond,
    Const,
    CTarget,
    Expr,
    FP,
    FpConst,
    Inst,
    Jump,
    Load,
    PC,
    Program,
    Reg,
    Ret,
    Skip,
    Store,
    Value,
)
from .interp import (
    DBranch,
    DCallMc,
    DCallMir,
    Directive,
    DirectiveMismatch,
    Fault,
    Next,
    OBranch,
    OCall,
    OLoad,
    OStore,
    Outcome,
    OUT_OF_DIRECTIVES,
    RunResult,
    SpecState,
    Stuck,
    TERM,
    nat_op,
    run,
    with_reg,
)


class LayoutError(ValueError):
    """A code pointer whose label names no block of the laid-out program."""


@dataclass(frozen=True)
class LayoutMap:
    data_len: int
    starts: tuple[int, ...]  # cumulative instruction counts, per label
    sizes: tuple[int, ...]

    def addr(self, label: int) -> int:
        if not 0 <= label < len(self.starts):
            raise LayoutError(f"code pointer &{label} names no block of the program")
        return self.data_len + self.starts[label]

    @property
    def code_len(self) -> int:
        return self.starts[-1] + self.sizes[-1] if self.sizes else 0

    def addr_to_pc(self, a: int) -> Optional[PC]:
        """Block label and offset for an absolute code address, if any."""
        off = a - self.data_len
        if not 0 <= off < self.code_len:
            return None
        i = bisect.bisect_right(self.starts, off) - 1
        return PC(i, off - self.starts[i])


@dataclass(frozen=True)
class McProgram:
    code: tuple[Inst, ...]


@dataclass(frozen=True)
class McState:
    pc: int
    regs: dict[str, int]
    mem: tuple[int, ...]
    stk: tuple[int, ...] = ()
    ct: bool = False
    ms: bool = False


def layout(p: Program, data_len: int) -> LayoutMap:
    if data_len <= 0:
        raise ValueError("data_len must be positive")
    starts: list[int] = []
    sizes: list[int] = []
    off = 0
    for b in p.blocks:
        starts.append(off)
        sizes.append(len(b.insts))
        off += len(b.insts)
    return LayoutMap(data_len, tuple(starts), tuple(sizes))


def _subst_expr(e: Expr, lay: LayoutMap) -> Expr:
    if isinstance(e, FpConst):
        return Const(lay.addr(e.label))
    if isinstance(e, BinOp):
        return BinOp(e.op, _subst_expr(e.lhs, lay), _subst_expr(e.rhs, lay))
    if isinstance(e, Cond):
        return Cond(
            _subst_expr(e.cond, lay),
            _subst_expr(e.then, lay),
            _subst_expr(e.els, lay),
        )
    return e


def linearize(p: Program, data_len: int) -> McProgram:
    """Concatenate all blocks, rewriting labels and function-pointer
    constants to absolute addresses."""
    lay = layout(p, data_len)
    code: list[Inst] = []
    for b in p.blocks:
        for i in b.insts:
            if isinstance(i, Branch):
                code.append(Branch(_subst_expr(i.cond, lay), lay.addr(i.target)))
            elif isinstance(i, Jump):
                code.append(Jump(lay.addr(i.target)))
            elif isinstance(i, Asgn):
                code.append(Asgn(i.reg, _subst_expr(i.expr, lay)))
            elif isinstance(i, Load):
                code.append(Load(i.reg, _subst_expr(i.addr, lay)))
            elif isinstance(i, Store):
                code.append(
                    Store(_subst_expr(i.addr, lay), _subst_expr(i.value, lay))
                )
            elif isinstance(i, Call):
                code.append(Call(_subst_expr(i.target, lay)))
            else:
                code.append(i)
    return McProgram(tuple(code))


# --------------------------------------------------------------------------
# Machine-level expression evaluation (plain naturals, total)


def eval_mc(e: Expr, regs: dict[str, int]) -> int:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Reg):
        return regs.get(e.name, 0)
    if isinstance(e, BinOp):
        return nat_op(e.op, eval_mc(e.lhs, regs), eval_mc(e.rhs, regs))
    if isinstance(e, Cond):
        return eval_mc(e.then if eval_mc(e.cond, regs) != 0 else e.els, regs)
    if isinstance(e, FpConst):
        raise ValueError("function pointer constant in machine code")
    raise TypeError(f"not an expression: {e!r}")


def step_mc(
    mc: McProgram,
    lay: LayoutMap,
    s: McState,
    d: Optional[Directive] = None,
) -> Outcome:
    """One speculative machine step: the rules of the speculative
    block-structured semantics with cet on, over absolute addresses."""
    if not lay.data_len <= s.pc < lay.data_len + len(mc.code):
        return Stuck("pc outside code section")
    inst = mc.code[s.pc - lay.data_len]
    pc, regs, mem, stk, ms = s.pc, s.regs, s.mem, s.stk, s.ms
    if s.ct and not isinstance(inst, CTarget):
        return Fault()
    # From here on ct is clear, or the instruction is the ctarget clearing it.
    if isinstance(inst, (Skip, CTarget)):
        return Next(McState(pc + 1, regs, mem, stk, False, ms))
    if isinstance(inst, Asgn):
        regs = with_reg(regs, inst.reg, eval_mc(inst.expr, regs))
        return Next(McState(pc + 1, regs, mem, stk, False, ms))
    if isinstance(inst, Branch):
        n = eval_mc(inst.cond, regs)
        if d is None:
            return OUT_OF_DIRECTIVES
        if not isinstance(d, DBranch):
            return DirectiveMismatch("branch instruction needs a branch directive")
        b = n != 0
        pc2 = inst.target if d.taken else pc + 1
        return Next(McState(pc2, regs, mem, stk, False, ms or b != d.taken), OBranch(b))
    if isinstance(inst, Jump):
        return Next(McState(inst.target, regs, mem, stk, False, ms))
    if isinstance(inst, Load):
        a = eval_mc(inst.addr, regs)
        if not a < lay.data_len:
            return Stuck(f"load address {a} outside data section")
        regs = with_reg(regs, inst.reg, mem[a])
        return Next(McState(pc + 1, regs, mem, stk, False, ms), OLoad(a))
    if isinstance(inst, Store):
        a = eval_mc(inst.addr, regs)
        if not a < lay.data_len:
            return Stuck(f"store address {a} outside data section")
        mem = mem[:a] + (eval_mc(inst.value, regs),) + mem[a + 1 :]
        return Next(McState(pc + 1, regs, mem, stk, False, ms), OStore(a))
    if isinstance(inst, Call):
        t = eval_mc(inst.target, regs)
        if not lay.data_len <= t < lay.data_len + len(mc.code):
            return Stuck(f"call target {t} outside code section")
        if d is None:
            return OUT_OF_DIRECTIVES
        if not isinstance(d, DCallMc):
            return DirectiveMismatch("call instruction needs a call directive")
        stk = (pc + 1,) + stk
        return Next(McState(d.addr, regs, mem, stk, True, ms or d.addr != t), OCall(t))
    if isinstance(inst, Ret):
        if not stk:
            return TERM
        return Next(McState(stk[0], regs, mem, stk[1:], False, ms))
    raise TypeError(f"not an instruction: {inst!r}")


def run_mc(
    mc: McProgram,
    lay: LayoutMap,
    s: McState,
    directives: Sequence[Directive],
    fuel: int,
) -> RunResult:
    return run(lambda s, d: step_mc(mc, lay, s, d), s, directives, fuel)


def wf_directives_mc(
    directives: Sequence[Directive], lay: LayoutMap, mc: McProgram
) -> bool:
    """Machine call directives must land in the code section; no
    block-structured call directives appear."""
    lo = lay.data_len
    hi = lay.data_len + len(mc.code)
    for d in directives:
        if isinstance(d, DCallMir):
            return False
        if isinstance(d, DCallMc) and not lo <= d.addr < hi:
            return False
    return True


# --------------------------------------------------------------------------
# Concretization of block-structured states to machine states


def concretize_value(
    v: Value, lay: LayoutMap, rng: Optional[random.Random] = None
) -> int:
    """Refine a value to a concrete natural. Undefined values become 0, or a
    sampled natural when an `rng` is supplied."""
    if isinstance(v, FP):
        return lay.addr(v.label)
    if v is UV:
        return rng.randrange(lay.data_len + lay.code_len) if rng else 0
    return v


def concretize_state(
    s: SpecState, lay: LayoutMap, rng: Optional[random.Random] = None
) -> McState:
    return McState(
        pc=lay.addr(s.pc.label) + s.pc.offset,
        regs={k: concretize_value(v, lay, rng) for k, v in s.regs.items()},
        mem=tuple(concretize_value(v, lay, rng) for v in s.mem),
        stk=tuple(lay.addr(pc.label) + pc.offset for pc in s.stk),
        ct=s.ct,
        ms=s.ms,
    )
