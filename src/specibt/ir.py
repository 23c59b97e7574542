"""Core intermediate representation: values, expressions, instructions,
basic blocks and programs, plus well-formedness checking, and `Record`, the
base of every record class of the package.

Programs are lists of basic blocks indexed by dense natural labels.
Block 0 is the program entry. Values are three-way: unbounded naturals
(plain Python ints), function pointers to block labels, and the
undefined value UV.

A record is an immutable tuple of its fields. A class derived from `Record`
declares each field, in order, by an annotation, and its default, if any, by
the name's value; no code is generated for it. A field is read through the
C-level getter of `collections.namedtuple`. Records are equal (and `!=` is
false) only within one class, hash as the tuple of their fields, are built
from fields by position or keyword, completed by the defaults, or by
`_replace`, print as `Name(field=value, ...)`, take no attribute assignment,
and survive `copy`, `deepcopy` and `pickle`. To all else a record is the
tuple of its fields (`isinstance`, `len`, iteration, indexing, ordering,
`json`; without fields it is false): it never equals a plain tuple, yet
hashes alike, so no code compares one with a plain tuple or keys one dict by
both. `Code` keeps the contract for code with a cache of rules compiled from
it.
"""

from __future__ import annotations

from collections import _tuplegetter
from typing import Any, Iterable, Iterator, Optional, Union


def _repr(r: object, items: Iterable[tuple[str, Any]]) -> str:
    return f"{type(r).__qualname__}({', '.join(f'{k}={v!r}' for k, v in items)})"


_new, _eq, _ne = tuple.__new__, tuple.__eq__, tuple.__ne__
_MISSING = object()  # a field given no value


class Record(tuple):
    """An immutable record of named fields; see the module docstring."""

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}

    def __init_subclass__(cls) -> None:
        # A hook, not a metaclass that could declare `__slots__ = ()`:
        # `isinstance` takes a slower path for a class of another metaclass,
        # so `__setattr__` keeps records immutable instead.
        ns = vars(cls)
        cls._fields = tuple(cls.__annotations__)  # the class's own
        cls._defaults = {f: ns[f] for f in cls._fields if f in ns}
        for i, f in enumerate(cls._fields):
            setattr(cls, f, _tuplegetter(i, f))

    def __new__(cls, *args: Any, **kw: Any):
        if kw or len(args) != len(cls._fields):
            # fields by position, then by keyword, then by default
            get = cls._defaults.get
            args += tuple(kw.pop(f, get(f, _MISSING)) for f in cls._fields[len(args):])
            if kw or len(args) != len(cls._fields) or _MISSING in args:
                raise TypeError(f"{cls.__name__}() takes the fields {cls._fields}")
        return _new(cls, args)

    def __eq__(self, other: object) -> bool:
        return self.__class__ is other.__class__ and _eq(self, other)

    def __ne__(self, other: object) -> bool:
        return self.__class__ is not other.__class__ or _ne(self, other)

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        return _repr(self, zip(self._fields, self))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    __delattr__ = __setattr__

    def _replace(self, **changes: Any):
        return self.__class__(**dict(zip(self._fields, self), **changes))


class Code:
    """A value, the slots named in `_fields`, and `compiled`, the rules
    compiled from it as runs first reach them: no part of the value, which
    alone equality, hash, repr, copies and pickles see, as for a `Record`."""

    __slots__ = ("compiled",)
    _fields: tuple[str, ...] = ()

    def __init__(self, *values: Any) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {self._fields}")
        for name, v in zip(self._fields + ("compiled",), values + ({},)):
            object.__setattr__(self, name, v)

    def _value(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        return self.__class__ is other.__class__ and self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())

    def __repr__(self) -> str:
        return _repr(self, zip(self._fields, self._value()))

    def __reduce__(self):
        return self.__class__, self._value()

    __setattr__ = __delattr__ = Record.__setattr__


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


class FP(Record):
    """Function pointer value: points at the entry of block `label`."""

    label: int


# Naturals are plain non-negative ints.
Value = Union[int, FP, _Undef]


# --------------------------------------------------------------------------
# Expressions


class Const(Record):
    value: int


class FpConst(Record):
    label: int


class Reg(Record):
    name: str


class BinOp(Record):
    op: str
    lhs: "Expr"
    rhs: "Expr"


class Cond(Record):
    """Constant-time conditional expression. Never branches, never observes."""

    cond: "Expr"
    then: "Expr"
    els: "Expr"


Expr = Union[Const, FpConst, Reg, BinOp, Cond]

BINOPS = ("+", "-", "*", "=", "<=", "&&", "->")


# --------------------------------------------------------------------------
# Instructions


class Skip(Record):
    pass


class Asgn(Record):
    reg: str
    expr: Expr


class Branch(Record):
    # `target` is a block label in MiniMIR, an absolute address after
    # linearization.
    cond: Expr
    target: int


class Jump(Record):
    target: int


class Load(Record):
    reg: str
    addr: Expr


class Store(Record):
    addr: Expr
    value: Expr


class Call(Record):
    target: Expr


class CTarget(Record):
    pass


class Ret(Record):
    pass


Inst = Union[Skip, Asgn, Branch, Jump, Load, Store, Call, CTarget, Ret]

SKIP = Skip()
CTARGET = CTarget()
RET = Ret()


# --------------------------------------------------------------------------
# Blocks, programs, program counters


class Block(Record):
    insts: tuple[Inst, ...]
    is_entry: bool = False


class Program(Code):
    """Blocks (a tuple of `Block`), and the rules compiled from their
    instructions per semantics (see `interp._step`)."""

    __slots__ = _fields = ("blocks",)


class PC(Record):
    label: int
    offset: int


# --------------------------------------------------------------------------
# Well-formedness


def _subterms(x: Record) -> Iterator[Expr]:
    """Every expression inside the instruction or expression `x`, at any
    depth: its fields that are records, and those of the compound ones."""
    for f in x:
        if isinstance(f, Record):
            yield f
            if isinstance(f, (BinOp, Cond)):
                yield from _subterms(f)


def used_registers(p: Program) -> frozenset[str]:
    """Every register read or written anywhere in the program."""
    names: set[str] = set()
    for b in p.blocks:
        for i in b.insts:
            if isinstance(i, (Asgn, Load)):
                names.add(i.reg)
            for sub in _subterms(i):
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
            for sub in _subterms(i):
                if isinstance(sub, FpConst):
                    t = sub.label
                    if not 0 <= t < n:
                        issues.append(f"block {l}[{off}]: function pointer &{t} "
                                      "out of range")
                    elif not p.blocks[t].is_entry:
                        issues.append(f"block {l}[{off}]: function pointer &{t} "
                                      "targets a non-entry block")
                elif isinstance(sub, BinOp) and sub.op not in BINOPS:
                    issues.append(f"block {l}[{off}]: unknown operator {sub.op!r}")
    return issues
