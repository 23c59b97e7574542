"""Core intermediate representation: values, expressions, instructions,
basic blocks and programs, plus well-formedness checking.

Programs are lists of basic blocks indexed by dense natural labels.
Block 0 is the program entry. Values are three-way: unbounded naturals
(plain Python ints), function pointers to block labels, and the
undefined value UV.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union


class _Undef:
    """The undefined value. Use the shared `UV` instance."""

    _instance: Optional["_Undef"] = None

    def __new__(cls) -> "_Undef":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UV"


UV = _Undef()


@dataclass(frozen=True, slots=True)
class FP:
    """Function pointer value: points at the entry of block `label`."""

    label: int


# Naturals are plain non-negative ints.
Value = Union[int, FP, _Undef]


# --------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True, slots=True)
class Const:
    value: int


@dataclass(frozen=True, slots=True)
class FpConst:
    label: int


@dataclass(frozen=True, slots=True)
class Reg:
    name: str


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True, slots=True)
class Cond:
    """Constant-time conditional expression. Never branches, never observes."""

    cond: "Expr"
    then: "Expr"
    els: "Expr"


Expr = Union[Const, FpConst, Reg, BinOp, Cond]

BINOPS = ("+", "-", "*", "=", "<=", "&&", "->")


# --------------------------------------------------------------------------
# Instructions


@dataclass(frozen=True, slots=True)
class Skip:
    pass


@dataclass(frozen=True, slots=True)
class Asgn:
    reg: str
    expr: Expr


@dataclass(frozen=True, slots=True)
class Branch:
    # `target` is a block label in MiniMIR, an absolute address after
    # linearization.
    cond: Expr
    target: int


@dataclass(frozen=True, slots=True)
class Jump:
    target: int


@dataclass(frozen=True, slots=True)
class Load:
    reg: str
    addr: Expr


@dataclass(frozen=True, slots=True)
class Store:
    addr: Expr
    value: Expr


@dataclass(frozen=True, slots=True)
class Call:
    target: Expr


@dataclass(frozen=True, slots=True)
class CTarget:
    pass


@dataclass(frozen=True, slots=True)
class Ret:
    pass


Inst = Union[Skip, Asgn, Branch, Jump, Load, Store, Call, CTarget, Ret]

SKIP = Skip()
CTARGET = CTarget()
RET = Ret()


# --------------------------------------------------------------------------
# Blocks, programs, program counters


@dataclass(frozen=True, slots=True)
class Block:
    insts: tuple[Inst, ...]
    is_entry: bool = False


@dataclass(frozen=True, slots=True)
class Program:
    blocks: tuple[Block, ...]
    # Rules compiled from the instructions, per semantics (see `interp._step`)
    compiled: dict = field(default_factory=dict, compare=False, repr=False, init=False)


@dataclass(frozen=True, slots=True)
class PC:
    label: int
    offset: int


# --------------------------------------------------------------------------
# Well-formedness


def _expr_subterms(e: Expr) -> Iterator[Expr]:
    yield e
    if isinstance(e, BinOp):
        yield from _expr_subterms(e.lhs)
        yield from _expr_subterms(e.rhs)
    elif isinstance(e, Cond):
        yield from _expr_subterms(e.cond)
        yield from _expr_subterms(e.then)
        yield from _expr_subterms(e.els)


def inst_exprs(i: Inst) -> Iterator[Expr]:
    if isinstance(i, Asgn):
        yield i.expr
    elif isinstance(i, Branch):
        yield i.cond
    elif isinstance(i, Load):
        yield i.addr
    elif isinstance(i, Store):
        yield i.addr
        yield i.value
    elif isinstance(i, Call):
        yield i.target


def used_registers(p: Program) -> frozenset[str]:
    """Every register read or written anywhere in the program."""
    names: set[str] = set()
    for b in p.blocks:
        for i in b.insts:
            if isinstance(i, (Asgn, Load)):
                names.add(i.reg)
            for e in inst_exprs(i):
                for sub in _expr_subterms(e):
                    if isinstance(sub, Reg):
                        names.add(sub.name)
    return frozenset(names)


def wf_program(p: Program, mode: str = "source") -> list[str]:
    """Well-formedness report; empty means well-formed.

    `mode` is "source" (no ctarget instructions allowed) or "hardened"
    (ctarget permitted only at offset 0 of entry blocks).
    """
    if mode not in ("source", "hardened"):
        raise ValueError(f"unknown wf mode {mode!r}")
    issues: list[str] = []
    n = len(p.blocks)
    if n == 0:
        return ["program has no blocks"]
    if not p.blocks[0].is_entry:
        issues.append("block 0 is not an entry block")
    for l, b in enumerate(p.blocks):
        if not b.insts:
            issues.append(f"block {l} is empty")
            continue
        if not isinstance(b.insts[-1], (Ret, Jump)):
            issues.append(f"block {l} lacks terminator (must end in ret or jump)")
        for off, i in enumerate(b.insts):
            if isinstance(i, (Branch, Jump)):
                t = i.target
                if not 0 <= t < n:
                    issues.append(f"block {l}[{off}]: target {t} out of range")
                elif p.blocks[t].is_entry:
                    issues.append(f"block {l}[{off}]: branch into entry block {t}")
            if isinstance(i, CTarget):
                if mode == "source":
                    issues.append(f"block {l}[{off}]: ctarget in source program")
                elif not (b.is_entry and off == 0):
                    issues.append(
                        f"block {l}[{off}]: ctarget outside entry-block head"
                    )
            for e in inst_exprs(i):
                for sub in _expr_subterms(e):
                    if isinstance(sub, FpConst):
                        t = sub.label
                        if not 0 <= t < n:
                            issues.append(
                                f"block {l}[{off}]: function pointer &{t} out of range"
                            )
                        elif not p.blocks[t].is_entry:
                            issues.append(
                                f"block {l}[{off}]: function pointer &{t} "
                                "targets a non-entry block"
                            )
                    elif isinstance(sub, BinOp) and sub.op not in BINOPS:
                        issues.append(f"block {l}[{off}]: unknown operator {sub.op!r}")
    return issues
