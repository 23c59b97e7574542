"""Textual program grammar (parse and print) and JSON serialization for
values, states, observation traces, directive sequences and layouts.

Grammar::

    program  := blockdef+
    blockdef := ("entry" | "block") IDENT ":" inst+
    inst     := "skip" | IDENT "<-" expr | "branch" expr IDENT | "jump" IDENT
              | "load" IDENT "," expr | "store" expr "," expr
              | "call" expr | "ctarget" | "ret"
    expr     := NAT | "&" IDENT | IDENT
              | "(" expr ("+"|"-"|"*"|"="|"<="|"&&"|"->") expr ")"
              | "(" expr "?" expr ":" expr ")"

Comments run from "#" to end of line. Labels resolve to block indices in
order of first definition. Printing and instruction parsing read one format
string per class (`_SYNTAX`), split once into text and fields (`_PARTS`): a
record prints by joining the text with its printed fields, and an
instruction parses by a walk over the steps of the format its keyword
selects. A token is kept as its text alone; line and column are worked out
only for an error. Flat machine listings are printed, not parsed: one
instruction per line in the same grammar, with absolute addresses as branch
and jump targets.
"""

from __future__ import annotations

import itertools
import re
from typing import Any, Callable, Optional, Sequence, get_args

from .ir import (
    UV,
    Asgn,
    BinOp,
    BINOPS,
    Block,
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
    Record,
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
    Obs,
    OBranch,
    OCall,
    OLoad,
    OStore,
    State,
)
from .machine import LayoutMap, McProgram

# The text of each instruction and expression, over its fields by name, as
# in the grammar above. `L` prefixes a jump or branch target: "b" names a
# block, nothing an address of machine code. Parsed, `{reg}` is a register
# name, and any other field not after `{L}` an expression.
_SYNTAX = {
    Skip: "skip", Asgn: "{reg} <- {expr}", Branch: "branch {cond} {L}{target}",
    Jump: "jump {L}{target}", Load: "load {reg}, {addr}", Store: "store {addr}, {value}",
    Call: "call {target}", CTarget: "ctarget", Ret: "ret",
    Const: "{value}", FpConst: "&b{label}", Reg: "{name}",
    BinOp: "({lhs} {op} {rhs})", Cond: "({cond} ? {then} : {els})",
}

# Each format split once, for the printer and the parser alike: its text,
# then for each field `{L}` or None and the field's name, and the text after it.
_PARTS = {cls: re.split(r"(\{L\})?\{(\w+)\}", fmt) for cls, fmt in _SYNTAX.items()}


def _steps(parts: list) -> list[tuple[str, Optional[str], Optional[str]]]:
    """The (symbol, `{L}`, field) steps of a format: a symbol, or a field."""
    steps: list[tuple[str, Optional[str], Optional[str]]] = []
    for text, label, field in zip(parts[::3], parts[1::3] + [None], parts[2::3] + [None]):
        steps += ((sym, None, None) for sym in text.split())
        if field:
            steps.append(("", label, field))
    return steps


# Each instruction's class and the steps of its format after its keyword,
# by keyword, or by None for the assignment.
_FORMS = {steps[0][0] or None: (cls, steps[1:] if steps[0][0] else steps)
          for cls in get_args(Inst) for steps in [_steps(_PARTS[cls])]}
KEYWORDS = {"entry", "block", *filter(None, _FORMS)}


class ParseIssue(Record):
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class ParseError(ValueError):
    def __init__(self, issues: Sequence[ParseIssue]):
        self.issues = list(issues)
        super().__init__("; ".join(str(i) for i in self.issues))


# Spaces and comments, or a token: a natural, a name or a symbol.
_TOKENS = re.compile(
    r"""[ \t\r\n]+
      | \#[^\n]*
      | ( \d+
        | [A-Za-z_][A-Za-z0-9_]*
        | <- | <= | -> | && | [-+*=&(),:?] )
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[str]:
    """The tokens of TEXT, then "" for its end. A token is known by its text:
    a natural is decimal, a name an identifier, anything else a symbol.
    Raises ParseError at a character that starts no token."""
    parts = _TOKENS.split(text)  # text between matches, then the token or None
    if any(parts[::2]):
        _positions(text)
    return [*filter(None, parts[1::2]), ""]


def _positions(text: str) -> list[tuple[int, int]]:
    """The line and column of each token of TEXT and of its end. Raises
    ParseError at the first character that starts no token."""
    spots: list[tuple[int, int]] = []
    line, bol, end = 1, 0, 0
    for m in _TOKENS.finditer(text):
        if m.start() != end:
            break
        if m.lastindex:
            spots.append((line, m.start() - bol + 1))
        elif "\n" in m.group():
            line += m.group().count("\n")
            bol = m.start() + m.group().rindex("\n") + 1
        end = m.end()
    if end != len(text):
        raise ParseError([ParseIssue(line, end - bol + 1,
                                     f"unexpected character {text[end]!r}")])
    return spots + [(line, end - bol + 1)]


def _error(text: str, found: list[tuple[int, str]]) -> ParseError:
    """The error of FOUND, (token index, message) pairs, placed in TEXT."""
    at = _positions(text)
    return ParseError([ParseIssue(*at[k], msg) for k, msg in found])


# The deepest nesting of parentheses an expression may have. Every layer
# walks expressions recursively, so a fixed bound keeps each of them well
# below Python's recursion limit.
MAX_NESTING = 256


class _Parser:
    """Recursive-descent parser over the tokens of `text`; `i` indexes the
    current one. `labels` maps block names to indices, and `heads` holds the
    index of each block header and of the end. Unknown labels are collected
    in `issues` by token index and parsing goes on; any other error raises
    at once. Positions are worked out only for an error."""

    def __init__(self, text: str, toks: list[str], labels: dict[str, int], heads: set[int]):
        self.text = text
        self.toks = toks
        self.i = 0
        self.labels = labels
        self.heads = heads
        self.issues: list[tuple[int, str]] = []

    def _fail(self, msg: str, k: Optional[int] = None) -> ParseError:
        return _error(self.text, [(self.i if k is None else k, msg)])

    def _expect(self, sym: str) -> None:
        t = self.toks[self.i]
        if t != sym:
            raise self._fail(f"expected {sym!r}, found {t or 'end of input'!r}")
        self.i += 1

    def _name(self) -> str:
        t = self.toks[self.i]
        if not t.isidentifier():
            raise self._fail(f"expected 'ident', found {t or 'end of input'!r}")
        self.i += 1
        return t

    # -- expressions

    def expr(self, depth: int = 0) -> Expr:
        """An expression inside `depth` parentheses."""
        t = self.toks[self.i]
        if t.isdecimal():
            self.i += 1
            return Const(int(t))
        if t == "&":
            self.i += 1
            return FpConst(self._label())
        if t.isidentifier():
            return Reg(self._reg())
        if t == "(":
            if depth == MAX_NESTING:
                raise self._fail(f"expression nested deeper than {MAX_NESTING} levels")
            self.i += 1
            depth += 1
            lhs = self.expr(depth)
            op = self.toks[self.i]
            if op == "?":
                self.i += 1
                then = self.expr(depth)
                self._expect(":")
                els = self.expr(depth)
                self._expect(")")
                return Cond(lhs, then, els)
            if op in BINOPS:
                self.i += 1
                rhs = self.expr(depth)
                self._expect(")")
                return BinOp(op, lhs, rhs)
            raise self._fail(f"expected operator or '?', found {op or 'end of input'!r}")
        raise self._fail(f"expected expression, found {t or 'end of input'!r}")

    def _reg(self) -> str:
        """A register name: an identifier that is not a keyword."""
        t = self.toks[self.i]
        if t in KEYWORDS:
            raise self._fail(f"keyword {t!r} cannot name a register")
        return self._name()

    # -- labels

    def _label(self) -> int:
        """The block a label names; an unknown one is an issue."""
        k = self.i
        name = self._name()
        if name not in self.labels:
            self.issues.append((k, f"unknown label {name!r}"))
            return 0
        return self.labels[name]

    # -- instructions

    def inst(self) -> Inst:
        """An instruction, by the steps of its format after the keyword."""
        t = self.toks[self.i]
        if not t.isidentifier():
            raise self._fail(f"expected instruction, found {t or 'end of input'!r}")
        if t not in KEYWORDS:
            cls, steps = _FORMS[None]
        elif t in _FORMS:
            self.i += 1
            cls, steps = _FORMS[t]
        else:
            raise self._fail(f"{t!r} does not start an instruction")
        fields: list[Any] = []
        for sym, label, field in steps:
            if sym:
                self._expect(sym)
            elif label:
                fields.append(self._label())
            elif field == "reg":
                fields.append(self._reg())
            else:
                fields.append(self.expr())
        return cls(*fields)

    # -- programs

    def program(self) -> Program:
        blocks: list[Block] = []
        while True:
            k, kw = self.i, self.toks[self.i]
            if kw not in ("entry", "block"):
                raise self._fail("expected 'entry' or 'block'")
            self.i += 1
            self._name()
            self._expect(":")
            insts: list[Inst] = []
            while self.i not in self.heads:
                insts.append(self.inst())
            if not insts:
                raise self._fail("block has no instructions", k)
            blocks.append(Block(tuple(insts), kw == "entry"))
            if not self.toks[self.i]:
                return Program(tuple(blocks))


def parse_program(text: str) -> Program:
    """Parse a textual program; raises ParseError with positioned issues."""
    toks = _tokenize(text)
    # the block headers, `entry|block IDENT :`
    heads = [j for j, t in enumerate(toks[:-2]) if t in ("entry", "block")
             and toks[j + 1].isidentifier() and toks[j + 2] == ":"]
    # Labels resolve in order of definition, so forward references work.
    labels: dict[str, int] = {}
    duplicates = []
    for j in heads:
        name = toks[j + 1]
        if name in labels:
            duplicates.append((j + 1, f"duplicate label {name!r}"))
        else:
            labels[name] = len(labels)
    if duplicates:
        raise _error(text, duplicates)
    parser = _Parser(text, toks, labels, {*heads, len(toks) - 1})
    prog = parser.program()
    if parser.issues:
        raise _error(text, parser.issues)
    return prog


# --------------------------------------------------------------------------
# Printing


def _printer(L: str) -> dict[type, tuple[str, tuple[tuple[int, str], ...]]]:
    """Per class, the text of its format before the first field, and each
    field's index with the text after it, where `{L}` reads L."""
    table = {}
    for cls, parts in _PARTS.items():
        texts = [t + (L if label else "") for t, label in zip(parts[::3], parts[1::3] + [None])]
        table[cls] = texts[0], tuple(zip(map(cls._fields.index, parts[2::3]), texts[1:]))
    return table


_PRINT = {L: _printer(L) for L in ("b", "")}


def _print(x: Record, table: dict) -> str:
    """The text of an instruction or an expression, by the TABLE of `_printer`."""
    text, fields = table[x.__class__]
    for k, after in fields:
        v = x[k]
        text += (_print(v, table) if isinstance(v, Record) else str(v)) + after
    return text


def print_program(p: Program) -> str:
    """Canonical text with labels b0, b1, ...; reparses to a structurally
    identical program."""
    lines: list[str] = []
    for l, b in enumerate(p.blocks):
        lines.append(f"{'entry' if b.is_entry else 'block'} b{l}:")
        lines += (f"  {_print(i, _PRINT['b'])}" for i in b.insts)
    return "\n".join(lines) + "\n"


def print_mc_program(mc: McProgram) -> str:
    return "\n".join(_print(i, _PRINT[""]) for i in mc.code) + "\n"


# --------------------------------------------------------------------------
# JSON documents


class DocError(ValueError):
    """Schema violation in a JSON document; `path` is a JSON-pointer-style
    location, empty at the document root."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def encode_value(v: Value) -> Any:
    if v is UV:
        return "uv"
    if isinstance(v, FP):
        return {"fp": v.label}
    return {"nat": v}


def _is_nat(doc: Any) -> bool:
    return isinstance(doc, int) and not isinstance(doc, bool) and doc >= 0


def decode_value(doc: Any, path: str = "") -> Value:
    """A value: "uv", a natural n (bare or as {"nat": n}), or a code pointer
    {"fp": label} with a natural label."""
    if doc == "uv":
        return UV
    if _is_nat(doc):
        return doc
    if isinstance(doc, dict) and len(doc) == 1:
        if "nat" in doc and _is_nat(doc["nat"]):
            return doc["nat"]
        if "fp" in doc and _is_nat(doc["fp"]):
            return FP(doc["fp"])
    raise DocError(path, f"not a value: {doc!r}")


# An observation is a one-key document: its kind and its one field.
_OBS = {"load": OLoad, "store": OStore, "branch": OBranch, "call": OCall}
_OBS_KEY = {kind: key for key, kind in _OBS.items()}


def encode_obs(o: Obs) -> Any:
    if type(o) not in _OBS_KEY:
        raise TypeError(f"not an observation: {o!r}")
    return {_OBS_KEY[type(o)]: o[0]}


def decode_obs(doc: Any, path: str = "") -> Obs:
    if isinstance(doc, dict) and len(doc) == 1:
        (key, v), = doc.items()
        kind = _OBS.get(key)
        if kind is not None and isinstance(v, bool if kind is OBranch else int):
            return kind(v)
    raise DocError(path, f"not an observation: {doc!r}")


def _decode_list(doc: Any, path: str, what: str, decode: Callable) -> list[Any]:
    """A list document, each entry decoded at its index."""
    if not isinstance(doc, list):
        raise DocError(path, f"{what} must be a list")
    return [decode(x, f"{path}/{k}") for k, x in enumerate(doc)]


def encode_trace(trace: Sequence[Obs]) -> list[Any]:
    return [encode_obs(o) for o in trace]


def decode_trace(doc: Any, path: str = "") -> list[Obs]:
    return _decode_list(doc, path, "trace", decode_obs)


def encode_directive(d: Directive) -> Any:
    if isinstance(d, DBranch):
        return {"branch": d.taken}
    if isinstance(d, DCallMir):
        return {"call": {"label": d.target.label, "offset": d.target.offset}}
    if isinstance(d, DCallMc):
        return {"call": {"addr": d.addr}}
    raise TypeError(f"not a directive: {d!r}")


def decode_directive(doc: Any, path: str = "") -> Directive:
    if isinstance(doc, dict) and len(doc) == 1:
        if "branch" in doc and isinstance(doc["branch"], bool):
            return DBranch(doc["branch"])
        c = doc.get("call")
        if isinstance(c, dict) and all(map(_is_nat, c.values())):
            if set(c) == {"label", "offset"}:
                return DCallMir(PC(c["label"], c["offset"]))
            if set(c) == {"addr"}:
                return DCallMc(c["addr"])
    raise DocError(path, f"not a directive: {doc!r}")


def encode_directives(directives: Sequence[Directive]) -> list[Any]:
    return [encode_directive(d) for d in directives]


def decode_directives(doc: Any, path: str = "") -> list[Directive]:
    return _decode_list(doc, path, "directive sequence", decode_directive)


def _decode_pc(doc: Any, path: str) -> PC:
    """A block label and offset, both natural numbers."""
    if (
        isinstance(doc, dict)
        and set(doc) == {"label", "offset"}
        and all(map(_is_nat, doc.values()))
    ):
        return PC(doc["label"], doc["offset"])
    raise DocError(path, f"not a program counter: {doc!r}")


def encode_state(s: State) -> dict[str, Any]:
    """A state document; a flag is written only when it is set."""
    doc: dict[str, Any] = {
        "regs": {k: encode_value(v) for k, v in sorted(s.regs.items())},
        "mem": [encode_value(v) for v in s.mem],
        "pc": {"label": s.pc.label, "offset": s.pc.offset},
        "stk": [{"label": pc.label, "offset": pc.offset} for pc in s.stk],
    }
    if s.ct:
        doc["ct"] = True
    if s.ms:
        doc["ms"] = True
    return doc


def _flag(doc: dict, key: str, path: str) -> bool:
    flag = doc.get(key, False)
    if not isinstance(flag, bool):
        raise DocError(f"{path}/{key}", f"flag must be true or false, not {flag!r}")
    return flag


def decode_state(doc: Any, path: str = "") -> State:
    """Decode an initial-state document. The `ct` and `ms` flags, where
    present, must be booleans; absent, they are clear."""
    if not isinstance(doc, dict):
        raise DocError(path, "state must be an object")
    regs_doc = doc.get("regs", {})
    if not isinstance(regs_doc, dict):
        raise DocError(f"{path}/regs", "registers must be an object")
    regs = {k: decode_value(v, f"{path}/regs/{k}") for k, v in regs_doc.items()}
    mem = tuple(_decode_list(doc.get("mem", []), f"{path}/mem", "memory", decode_value))
    pc = _decode_pc(doc["pc"], f"{path}/pc") if "pc" in doc else PC(0, 0)
    stk = tuple(_decode_list(doc.get("stk", []), f"{path}/stk", "stack", _decode_pc))
    return State(pc, regs, mem, stk, _flag(doc, "ct", path), _flag(doc, "ms", path))


def decode_pair(doc: Any, path: str = "") -> tuple[State, State]:
    """A pair document: an object holding two sequential states, s1 and s2."""
    if not isinstance(doc, dict) or not {"s1", "s2"} <= doc.keys():
        raise DocError(path, "pair must be an object with states s1 and s2")
    return (decode_state(doc["s1"], f"{path}/s1"),
            decode_state(doc["s2"], f"{path}/s2"))


def encode_layout(lay: LayoutMap) -> dict[str, Any]:
    return {
        "data_len": lay.data_len,
        "starts": {str(l): off for l, off in enumerate(lay.starts)},
        "sizes": list(lay.sizes),
    }


def decode_layout(doc: Any, path: str = "") -> LayoutMap:
    """A layout sidecar as `encode_layout` writes it."""
    if not isinstance(doc, dict) or not {"data_len", "starts", "sizes"} <= doc.keys():
        raise DocError(path, "layout must carry data_len, starts and sizes")
    if not _is_nat(doc["data_len"]):
        raise DocError(f"{path}/data_len", f"not a natural number: {doc['data_len']!r}")
    starts_doc = doc["starts"]
    if not isinstance(starts_doc, dict):
        raise DocError(f"{path}/starts", "starts must be an object")
    try:
        starts = tuple(starts_doc[str(l)] for l in range(len(starts_doc)))
    except KeyError as exc:
        raise DocError(f"{path}/starts", f"missing label {exc}") from exc
    sizes = doc["sizes"]
    if not isinstance(sizes, list) or len(sizes) != len(starts):
        raise DocError(f"{path}/sizes", f"sizes must be a list of {len(starts)} entries")
    for key, xs in (("starts", starts), ("sizes", sizes)):
        for l, x in enumerate(xs):
            if not _is_nat(x):
                raise DocError(f"{path}/{key}/{l}", f"not a natural number: {x!r}")
    # each block starts where the one before it ends
    for l, (x, at) in enumerate(zip(starts, itertools.accumulate(sizes, initial=0))):
        if x != at:
            raise DocError(f"{path}/starts/{l}", f"block {l} must start at {at}")
    return LayoutMap(doc["data_len"], starts, tuple(sizes))
