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
string per class (`_SYNTAX`): a record prints by a walk over its fields, and
an instruction parses by a walk over the pieces of the format its keyword
selects. Flat machine listings are printed, not parsed: one instruction per
line in the same grammar, with absolute addresses as branch and jump targets.
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

# Each instruction's class and the (symbol, `{L}`, field) pieces of its
# format after its keyword, by keyword, or by None for the assignment.
_PIECE = re.compile(r"([^\s{]+)|(\{L\})?\{(\w+)\}")
_FORMS = {pieces[0][0] or None: (cls, pieces[1:] if pieces[0][0] else pieces)
          for cls in get_args(Inst) for pieces in [_PIECE.findall(_SYNTAX[cls])]}
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


class _Tok(Record):
    kind: str  # nat | ident | sym | eof
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""[ \t\r]+
      | \#[^\n]*
      | (?P<nl>\n)
      | (?P<nat>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<sym><-|<=|->|&&|[-+*=&(),:?])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, bol = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, col = m.lastgroup, m.start() - bol + 1
        if kind == "bad":
            raise ParseError([ParseIssue(line, col, f"unexpected character {m.group()!r}")])
        if kind == "nl":
            line, bol = line + 1, m.end()
        elif kind is not None:
            toks.append(_Tok(kind, m.group(), line, col))
    toks.append(_Tok("eof", "", line, len(text) - bol + 1))
    return toks


def _header_at(toks: list[_Tok], j: int) -> bool:
    """Whether a block header `entry|block IDENT :` starts at toks[j]."""
    return (
        toks[j].kind == "ident"
        and toks[j].text in ("entry", "block")
        and j + 2 < len(toks)
        and toks[j + 1].kind == "ident"
        and toks[j + 2].kind == "sym"
        and toks[j + 2].text == ":"
    )


# The deepest nesting of parentheses an expression may have. Every layer
# walks expressions recursively, so a fixed bound keeps each of them well
# below Python's recursion limit.
MAX_NESTING = 256


class _Parser:
    """Recursive-descent parser over the token stream. `labels` maps block
    names to indices. Unknown labels are collected in `issues` and parsing
    goes on; any other error raises at once."""

    def __init__(self, toks: list[_Tok], labels: dict[str, int]):
        self.toks = toks
        self.i = 0
        self.labels = labels
        self.issues: list[ParseIssue] = []

    @property
    def cur(self) -> _Tok:
        return self.toks[self.i]

    def _fail(self, msg: str, tok: Optional[_Tok] = None) -> "ParseError":
        t = tok or self.cur
        return ParseError([ParseIssue(t.line, t.col, msg)])

    def _advance(self) -> _Tok:
        t = self.cur
        self.i += 1
        return t

    def _expect(self, kind: str, text: Optional[str] = None) -> _Tok:
        t = self.cur
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            got = t.text or "end of input"
            raise self._fail(f"expected {want!r}, found {got!r}")
        return self._advance()

    # -- expressions

    def expr(self, depth: int = 0) -> Expr:
        """An expression inside `depth` parentheses."""
        t = self.cur
        if t.kind == "nat":
            self._advance()
            return Const(int(t.text))
        if t.kind == "sym" and t.text == "&":
            self._advance()
            name = self._expect("ident")
            return FpConst(self._label(name))
        if t.kind == "ident":
            return Reg(self._reg())
        if t.kind == "sym" and t.text == "(":
            if depth == MAX_NESTING:
                raise self._fail(f"expression nested deeper than {MAX_NESTING} levels")
            self._advance()
            depth += 1
            lhs = self.expr(depth)
            op = self.cur
            if op.kind == "sym" and op.text == "?":
                self._advance()
                then = self.expr(depth)
                self._expect("sym", ":")
                els = self.expr(depth)
                self._expect("sym", ")")
                return Cond(lhs, then, els)
            if op.kind == "sym" and op.text in BINOPS:
                self._advance()
                rhs = self.expr(depth)
                self._expect("sym", ")")
                return BinOp(op.text, lhs, rhs)
            raise self._fail(f"expected operator or '?', found {op.text or 'end of input'!r}")
        raise self._fail(f"expected expression, found {t.text or 'end of input'!r}")

    def _reg(self) -> str:
        """A register name: an identifier that is not a keyword."""
        if self.cur.text in KEYWORDS:
            raise self._fail(f"keyword {self.cur.text!r} cannot name a register")
        return self._expect("ident").text

    # -- labels

    def _label(self, tok: _Tok) -> int:
        if tok.text not in self.labels:
            self.issues.append(ParseIssue(tok.line, tok.col, f"unknown label {tok.text!r}"))
            return 0
        return self.labels[tok.text]

    # -- instructions

    def inst(self) -> Inst:
        """An instruction, by the pieces of its format after the keyword."""
        t = self.cur
        if t.kind != "ident":
            raise self._fail(f"expected instruction, found {t.text or 'end of input'!r}")
        if t.text not in KEYWORDS:
            cls, pieces = _FORMS[None]
        elif t.text in _FORMS:
            cls, pieces = _FORMS[self._advance().text]
        else:
            raise self._fail(f"{t.text!r} does not start an instruction")
        fields: list[Any] = []
        for sym, label, field in pieces:
            if sym:
                self._expect("sym", sym)
            elif label:
                fields.append(self._label(self._expect("ident")))
            elif field == "reg":
                fields.append(self._reg())
            else:
                fields.append(self.expr())
        return cls(*fields)

    # -- programs

    def program(self) -> Program:
        blocks: list[Block] = []
        while True:
            kw = self.cur
            if not (kw.kind == "ident" and kw.text in ("entry", "block")):
                raise self._fail("expected 'entry' or 'block'")
            self._advance()
            self._expect("ident")
            self._expect("sym", ":")
            insts: list[Inst] = []
            while not (self.cur.kind == "eof" or _header_at(self.toks, self.i)):
                insts.append(self.inst())
            if not insts:
                raise self._fail("block has no instructions", kw)
            blocks.append(Block(tuple(insts), kw.text == "entry"))
            if self.cur.kind == "eof":
                return Program(tuple(blocks))


def parse_program(text: str) -> Program:
    """Parse a textual program; raises ParseError with positioned issues."""
    toks = _tokenize(text)
    # Labels resolve in order of definition, so forward references work.
    labels: dict[str, int] = {}
    issues: list[ParseIssue] = []
    for j in range(len(toks)):
        if _header_at(toks, j):
            name = toks[j + 1]
            if name.text in labels:
                issues.append(ParseIssue(name.line, name.col, f"duplicate label {name.text!r}"))
            else:
                labels[name.text] = len(labels)
    if issues:
        raise ParseError(issues)
    parser = _Parser(toks, labels)
    prog = parser.program()
    if parser.issues:
        raise ParseError(parser.issues)
    return prog


# --------------------------------------------------------------------------
# Printing


def _print(x: Record, L: str) -> str:
    """The text of an instruction or an expression."""
    fields = {f: _print(v, L) if isinstance(v, Record) else v for f, v in zip(x._fields, x)}
    return _SYNTAX[type(x)].format(L=L, **fields)


def print_program(p: Program) -> str:
    """Canonical text with labels b0, b1, ...; reparses to a structurally
    identical program."""
    lines: list[str] = []
    for l, b in enumerate(p.blocks):
        lines.append(f"{'entry' if b.is_entry else 'block'} b{l}:")
        lines += (f"  {_print(i, 'b')}" for i in b.insts)
    return "\n".join(lines) + "\n"


def print_mc_program(mc: McProgram) -> str:
    return "\n".join(_print(i, "") for i in mc.code) + "\n"


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
