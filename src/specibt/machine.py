"""Linearization of block-structured programs to a flat machine language,
and the speculative machine interpreter.

The machine image is a data section of `data_len` cells followed by the
flattened code. One walk over each instruction's fields (`_at`) makes the
labels in jumps, branches and function-pointer constants absolute
addresses, so machine code carries the layout that fixed them; machine
values are plain naturals. A machine state is an
`interp.State` whose pc and return stack are code addresses. The machine
rules are interp's speculative rules, with cet on or off as at block
level; a call target names a point only inside the code section.

A machine state's memory is its data section: `concretize_state` keeps the
`len(s.mem)` cells of the block-level state `s`, and every caller
linearizes with `data_len = len(s.mem)` (`run --sem mc`, `check rs
--pipeline end-to-end`, `check linearize`). So interp's bound on a load or
store address, `0 <= a < len(mem)`, is the data-section check
`a < data_len`, since machine values are naturals.
"""

from __future__ import annotations

import bisect
from itertools import accumulate
from typing import Any, Callable, Optional, Sequence

from .ir import (
    UV,
    Branch,
    Const,
    Code,
    CTarget,
    FP,
    FpConst,
    Jump,
    PC,
    Program,
    Record,
    Reg,
    Ret,
    Skip,
    Value,
)
from .interp import (
    SPEC,
    SPEC_CET,
    DCallMc,
    Directive,
    FAULT,
    OCall,
    Outcome,
    OutOfDirectives,
    RunResult,
    State,
    Stuck,
    compile_rule,
    run,
)


class LayoutError(ValueError):
    """A code pointer whose label names no block of the laid-out program,
    or a pc or return address outside its block."""


class LayoutMap(Record):
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

    def pc_addr(self, pc: PC) -> int:
        """The absolute code address of block pc `pc`; `addr_to_pc` inverts it."""
        return self.addr(pc.label) + pc.offset

    def addr_to_pc(self, a: int) -> Optional[PC]:
        """Block label and offset for an absolute code address, if any."""
        off = a - self.data_len
        if not 0 <= off < self.code_len:
            return None
        i = bisect.bisect_right(self.starts, off) - 1
        return PC(i, off - self.starts[i])


class McProgram(Code):
    """Machine `code` (a tuple of instructions) with the layout `lay` that
    `linearize` laid it out by: the code starts at address `lay.data_len`,
    after the data section. The rules compiled from the instructions are
    kept by offset into the code under `cet`, True or False, and what call
    targets name under "calls" (`step_mc`)."""

    __slots__ = _fields = ("code", "lay")


def layout(p: Program, data_len: int) -> LayoutMap:
    if data_len <= 0:
        raise ValueError("data_len must be positive")
    sizes = tuple(len(b.insts) for b in p.blocks)
    return LayoutMap(data_len, tuple(accumulate(sizes, initial=0))[:-1], sizes)


# The instructions, expressions and fields that hold no block label
_NO_LABEL = frozenset({str, int, Const, Reg, Skip, CTarget, Ret})


def _at(x: Any, lay: LayoutMap) -> Any:
    """`x`, an instruction, an expression or a field of one, with every block
    label in it made its absolute address under `lay`: a function-pointer
    constant becomes a constant of the address, the target of a jump or a
    branch the address itself, and any other record is rebuilt from its
    fields."""
    cls = type(x)
    if cls in _NO_LABEL:
        return x
    if cls is FpConst:
        return Const(lay.addr(x.label))
    fields = [_at(f, lay) for f in x]
    if cls is Jump or cls is Branch:
        fields[-1] = lay.addr(x.target)
    return cls(*fields)


def linearize(p: Program, data_len: int) -> McProgram:
    """Concatenate all blocks, rewriting labels and function-pointer
    constants to absolute addresses."""
    lay = layout(p, data_len)
    return McProgram(tuple(_at(i, lay) for b in p.blocks for i in b.insts), lay)


# --------------------------------------------------------------------------
# The speculative machine semantics, compiled to closures over plain
# naturals


def _calls(mc: McProgram) -> Callable[[int], Any]:
    """What a call target value names in machine code: an address in the
    code section names the prediction point and observation of a call to
    it, built the first time a call reaches it; any other value is stuck."""
    start, named = mc.lay.data_len, {}
    def callee(v):
        if not start <= v < start + len(mc.code):
            return Stuck(f"call target {v} outside code section")
        return named.get(v) or named.setdefault(v, (OutOfDirectives(DCallMc(v)), OCall(v)))
    return callee


def step_mc(
    mc: McProgram, s: State, d: Optional[Directive] = None, cet: bool = True
) -> Outcome:
    """One speculative machine step, with `cet` as `step_spec` takes it: the
    rule of the instruction at the pc, compiled by `compile_rule`, where an
    unset register reads 0, the first time a run reaches it, and kept on the
    program. No call is sequential or ideal, so no pc is a function entry."""
    code = mc.compiled.get(cet)
    if code is None:
        code = mc.compiled[cet] = [None] * len(mc.code)
    i = s.pc - mc.lay.data_len
    if not 0 <= i < len(code):
        return Stuck("pc outside code section")
    if cet and s.ct and not isinstance(mc.code[i], CTarget):
        return FAULT
    rule = code[i]
    if rule is None:
        inst = mc.code[i]
        to = inst.target if isinstance(inst, (Jump, Branch)) else None
        calls = mc.compiled.get("calls") or mc.compiled.setdefault("calls", _calls(mc))
        rule = code[i] = compile_rule(inst, s.pc + 1, to, SPEC_CET if cet else SPEC, 0,
                                      "outside data section", calls, ())
    return rule(s, d)


def run_mc(
    mc: McProgram, s: State, directives: Sequence[Directive], fuel: int, cet: bool = True
) -> RunResult:
    return run(lambda s, d: step_mc(mc, s, d, cet), s, directives, fuel)


# --------------------------------------------------------------------------
# Concretization of block-structured states to machine states


def concretize_value(v: Value, lay: LayoutMap) -> int:
    """Refine a value to a concrete natural. Undefined values become 0."""
    if isinstance(v, FP):
        return lay.addr(v.label)
    if v is UV:
        return 0
    return v


def concretize_state(s: State, lay: LayoutMap) -> State:
    """The machine state `s` refines to under `lay`. Its pc and return addresses
    must name a block and lie inside it: `pc_addr` maps an offset past a
    block's end into the next block."""

    def inside(pc: PC, what: str) -> int:
        if not 0 <= pc.label < len(lay.sizes):
            raise LayoutError(f"{what} label {pc.label} names no block of the program")
        if pc.offset >= lay.sizes[pc.label]:
            raise LayoutError(f"{what} offset {pc.offset} lies outside block "
                              f"{pc.label} of {lay.sizes[pc.label]} instructions")
        return lay.pc_addr(pc)

    return State(
        pc=inside(s.pc, "pc"),
        regs={k: concretize_value(v, lay) for k, v in s.regs.items()},
        mem=tuple(concretize_value(v, lay) for v in s.mem),
        stk=tuple(inside(pc, "return address") for pc in s.stk),
        ct=s.ct,
        ms=s.ms,
    )
