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
order of first definition. Flat machine listings use the same instruction
grammar with numeric targets and no "&" constants.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Optional, Sequence

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
    CTARGET,
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
    RET,
    Ret,
    SKIP,
    Skip,
    Store,
    Value,
)
from .interp import (
    DBranch,
    DCallMc,
    DCallMir,
    Directive,
    IdealState,
    Obs,
    OBranch,
    OCall,
    OLoad,
    OStore,
    SeqState,
    SpecState,
)
from .machine import LayoutMap, McProgram

KEYWORDS = {
    "entry",
    "block",
    "skip",
    "branch",
    "jump",
    "load",
    "store",
    "call",
    "ctarget",
    "ret",
}


@dataclass(frozen=True)
class ParseIssue:
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class ParseError(ValueError):
    def __init__(self, issues: Sequence[ParseIssue]):
        self.issues = list(issues)
        super().__init__("; ".join(str(i) for i in self.issues))


@dataclass(frozen=True)
class _Tok:
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
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, bol, pos = 1, 0, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                [ParseIssue(line, pos - bol + 1, f"unexpected character {text[pos]!r}")]
            )
        if m.lastgroup == "nl":
            line += 1
            bol = m.end()
        elif m.lastgroup is not None:
            toks.append(_Tok(m.lastgroup, m.group(), line, m.start() - bol + 1))
        pos = m.end()
    toks.append(_Tok("eof", "", line, len(text) - bol + 1))
    return toks


class _Parser:
    """Recursive-descent parser over the token stream. `mc` mode parses the
    flat machine listing: numeric targets, no function-pointer constants."""

    def __init__(self, toks: list[_Tok], mc: bool = False):
        self.toks = toks
        self.i = 0
        self.mc = mc

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

    def expr(self) -> Expr:
        t = self.cur
        if t.kind == "nat":
            self._advance()
            return Const(int(t.text))
        if t.kind == "sym" and t.text == "&":
            if self.mc:
                raise self._fail("function pointer constant in machine listing")
            self._advance()
            name = self._expect("ident")
            return FpConst(self._label(name))
        if t.kind == "ident":
            if t.text in KEYWORDS:
                raise self._fail(f"keyword {t.text!r} cannot name a register")
            self._advance()
            return Reg(t.text)
        if t.kind == "sym" and t.text == "(":
            self._advance()
            lhs = self.expr()
            op = self.cur
            if op.kind == "sym" and op.text == "?":
                self._advance()
                then = self.expr()
                self._expect("sym", ":")
                els = self.expr()
                self._expect("sym", ")")
                return Cond(lhs, then, els)
            if op.kind == "sym" and op.text in BINOPS:
                self._advance()
                rhs = self.expr()
                self._expect("sym", ")")
                return BinOp(op.text, lhs, rhs)
            raise self._fail(f"expected operator or '?', found {op.text!r}")
        raise self._fail(f"expected expression, found {t.text or 'end of input'!r}")

    # -- label handling (overridden per mode)

    def _label(self, tok: _Tok) -> int:
        raise NotImplementedError

    def _target(self) -> int:
        if self.mc:
            return int(self._expect("nat").text)
        return self._label(self._expect("ident"))

    # -- instructions

    def inst(self) -> Inst:
        t = self.cur
        if t.kind == "ident" and t.text in KEYWORDS:
            self._advance()
            if t.text == "skip":
                return SKIP
            if t.text == "ctarget":
                return CTARGET
            if t.text == "ret":
                return RET
            if t.text == "branch":
                cond = self.expr()
                return Branch(cond, self._target())
            if t.text == "jump":
                return Jump(self._target())
            if t.text == "load":
                reg = self._expect("ident")
                if reg.text in KEYWORDS:
                    raise self._fail(f"keyword {reg.text!r} cannot name a register", reg)
                self._expect("sym", ",")
                return Load(reg.text, self.expr())
            if t.text == "store":
                addr = self.expr()
                self._expect("sym", ",")
                return Store(addr, self.expr())
            if t.text == "call":
                return Call(self.expr())
            raise self._fail(f"{t.text!r} does not start an instruction", t)
        if t.kind == "ident":
            self._advance()
            self._expect("sym", "<-")
            return Asgn(t.text, self.expr())
        raise self._fail(f"expected instruction, found {t.text or 'end of input'!r}")


class _ProgramParser(_Parser):
    def __init__(self, toks: list[_Tok]):
        super().__init__(toks, mc=False)
        self.labels: dict[str, int] = {}
        self.pending: list[tuple[_Tok, Any]] = []  # unresolved references

    def _label(self, tok: _Tok) -> int:
        if tok.text in self.labels:
            return self.labels[tok.text]
        # Forward reference: return a placeholder resolved after the scan.
        self.pending.append((tok, None))
        return -len(self.pending)  # negative placeholder id

    def program(self) -> Program:
        # Pre-scan block headers so labels resolve in definition order.
        issues: list[ParseIssue] = []
        j = 0
        order: list[str] = []
        while j < len(self.toks):
            t = self.toks[j]
            if (
                t.kind == "ident"
                and t.text in ("entry", "block")
                and j + 2 < len(self.toks)
                and self.toks[j + 1].kind == "ident"
                and self.toks[j + 2].kind == "sym"
                and self.toks[j + 2].text == ":"
            ):
                name = self.toks[j + 1]
                if name.text in self.labels:
                    issues.append(
                        ParseIssue(name.line, name.col, f"duplicate label {name.text!r}")
                    )
                else:
                    self.labels[name.text] = len(order)
                    order.append(name.text)
                j += 3
            else:
                j += 1
        if issues:
            raise ParseError(issues)

        blocks: list[Block] = []
        if not (self.cur.kind == "ident" and self.cur.text in ("entry", "block")):
            raise self._fail("expected 'entry' or 'block'")
        while self.cur.kind != "eof":
            kw = self._expect("ident")
            if kw.text not in ("entry", "block"):
                raise self._fail("expected 'entry' or 'block'", kw)
            self._expect("ident")
            self._expect("sym", ":")
            insts: list[Inst] = []
            while not (
                self.cur.kind == "eof"
                or (
                    self.cur.kind == "ident"
                    and self.cur.text in ("entry", "block")
                    and self.toks[self.i + 1].kind == "ident"
                    and self.toks[self.i + 2].kind == "sym"
                    and self.toks[self.i + 2].text == ":"
                )
            ):
                insts.append(self.inst())
            if not insts:
                raise self._fail("block has no instructions", kw)
            blocks.append(Block(tuple(insts), is_entry=kw.text == "entry"))
        return Program(tuple(blocks))


def parse_program(text: str) -> Program:
    """Parse a textual program; raises ParseError with positioned issues."""
    toks = _tokenize(text)
    parser = _ProgramParser(toks)

    # Unknown labels surface from _label as missing entries: check references
    # eagerly by wrapping _label.
    issues: list[ParseIssue] = []
    orig = parser._label

    def checked(tok: _Tok) -> int:
        if tok.text not in parser.labels:
            issues.append(ParseIssue(tok.line, tok.col, f"unknown label {tok.text!r}"))
            return 0
        return parser.labels[tok.text]

    parser._label = checked  # type: ignore[method-assign]
    prog = parser.program()
    if issues:
        raise ParseError(issues)
    return prog


def parse_mc_program(text: str) -> McProgram:
    """Parse a flat machine listing: one instruction per line, numeric
    branch/jump targets."""
    toks = _tokenize(text)
    parser = _Parser(toks, mc=True)
    code: list[Inst] = []
    while parser.cur.kind != "eof":
        code.append(parser.inst())
    return McProgram(tuple(code))


# --------------------------------------------------------------------------
# Printing


def print_expr(e: Expr) -> str:
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, FpConst):
        return f"&b{e.label}"
    if isinstance(e, Reg):
        return e.name
    if isinstance(e, BinOp):
        return f"({print_expr(e.lhs)} {e.op} {print_expr(e.rhs)})"
    if isinstance(e, Cond):
        return f"({print_expr(e.cond)} ? {print_expr(e.then)} : {print_expr(e.els)})"
    raise TypeError(f"not an expression: {e!r}")


def _print_inst(i: Inst, target: str) -> str:
    if isinstance(i, Skip):
        return "skip"
    if isinstance(i, CTarget):
        return "ctarget"
    if isinstance(i, Ret):
        return "ret"
    if isinstance(i, Asgn):
        return f"{i.reg} <- {print_expr(i.expr)}"
    if isinstance(i, Branch):
        return f"branch {print_expr(i.cond)} {target}"
    if isinstance(i, Jump):
        return f"jump {target}"
    if isinstance(i, Load):
        return f"load {i.reg}, {print_expr(i.addr)}"
    if isinstance(i, Store):
        return f"store {print_expr(i.addr)}, {print_expr(i.value)}"
    if isinstance(i, Call):
        return f"call {print_expr(i.target)}"
    raise TypeError(f"not an instruction: {i!r}")


def print_inst(i: Inst) -> str:
    target = ""
    if isinstance(i, (Branch, Jump)):
        target = f"b{i.target}"
    return _print_inst(i, target)


def print_program(p: Program) -> str:
    """Canonical text with labels b0, b1, ...; reparses to a structurally
    identical program."""
    lines: list[str] = []
    for l, b in enumerate(p.blocks):
        kw = "entry" if b.is_entry else "block"
        lines.append(f"{kw} b{l}:")
        for i in b.insts:
            lines.append(f"  {print_inst(i)}")
    return "\n".join(lines) + "\n"


def print_mc_program(mc: McProgram) -> str:
    lines = []
    for i in mc.code:
        target = str(i.target) if isinstance(i, (Branch, Jump)) else ""
        lines.append(_print_inst(i, target))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# JSON documents


class DocError(ValueError):
    """Schema violation in a JSON document; `path` is a JSON-pointer-style
    location."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


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


def encode_obs(o: Obs) -> Any:
    if isinstance(o, OLoad):
        return {"load": o.addr}
    if isinstance(o, OStore):
        return {"store": o.addr}
    if isinstance(o, OBranch):
        return {"branch": o.taken}
    if isinstance(o, OCall):
        return {"call": o.target}
    raise TypeError(f"not an observation: {o!r}")


def decode_obs(doc: Any, path: str = "") -> Obs:
    if isinstance(doc, dict) and len(doc) == 1:
        key, v = next(iter(doc.items()))
        if key == "load" and isinstance(v, int):
            return OLoad(v)
        if key == "store" and isinstance(v, int):
            return OStore(v)
        if key == "branch" and isinstance(v, bool):
            return OBranch(v)
        if key == "call" and isinstance(v, int):
            return OCall(v)
    raise DocError(path, f"not an observation: {doc!r}")


def encode_trace(trace: Sequence[Obs]) -> list[Any]:
    return [encode_obs(o) for o in trace]


def decode_trace(doc: Any, path: str = "") -> list[Obs]:
    if not isinstance(doc, list):
        raise DocError(path, "trace must be a list")
    return [decode_obs(o, f"{path}/{k}") for k, o in enumerate(doc)]


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
    if not isinstance(doc, list):
        raise DocError(path, "directive sequence must be a list")
    return [decode_directive(d, f"{path}/{k}") for k, d in enumerate(doc)]


def _decode_pc(doc: Any, path: str) -> PC:
    """A block label and offset, both natural numbers."""
    if (
        isinstance(doc, dict)
        and set(doc) == {"label", "offset"}
        and all(map(_is_nat, doc.values()))
    ):
        return PC(doc["label"], doc["offset"])
    raise DocError(path, f"not a program counter: {doc!r}")


def encode_state(s: SeqState) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "regs": {k: encode_value(v) for k, v in sorted(s.regs.items())},
        "mem": [encode_value(v) for v in s.mem],
        "pc": {"label": s.pc.label, "offset": s.pc.offset},
        "stk": [{"label": pc.label, "offset": pc.offset} for pc in s.stk],
    }
    if isinstance(s, SpecState):
        doc["ct"] = s.ct
        doc["ms"] = s.ms
    elif isinstance(s, IdealState):
        doc["ms"] = s.ms
    return doc


def decode_state(doc: Any, kind: str = "seq", path: str = "") -> SeqState:
    """Decode an initial-state document. `kind` selects the state flavor:
    seq, spec or ideal."""
    if not isinstance(doc, dict):
        raise DocError(path, "state must be an object")
    regs_doc = doc.get("regs", {})
    if not isinstance(regs_doc, dict):
        raise DocError(f"{path}/regs", "registers must be an object")
    regs = {k: decode_value(v, f"{path}/regs/{k}") for k, v in regs_doc.items()}
    mem_doc = doc.get("mem", [])
    if not isinstance(mem_doc, list):
        raise DocError(f"{path}/mem", "memory must be a list")
    mem = tuple(decode_value(v, f"{path}/mem/{k}") for k, v in enumerate(mem_doc))
    pc = _decode_pc(doc["pc"], f"{path}/pc") if "pc" in doc else PC(0, 0)
    stk_doc = doc.get("stk", [])
    if not isinstance(stk_doc, list):
        raise DocError(f"{path}/stk", "stack must be a list")
    stk = tuple(_decode_pc(x, f"{path}/stk/{k}") for k, x in enumerate(stk_doc))
    if kind == "seq":
        return SeqState(pc, regs, mem, stk)
    if kind == "spec":
        return SpecState(pc, regs, mem, stk, bool(doc.get("ct", False)),
                         bool(doc.get("ms", False)))
    if kind == "ideal":
        return IdealState(pc, regs, mem, stk, bool(doc.get("ms", False)))
    raise ValueError(f"unknown state kind {kind!r}")


def encode_layout(lay: LayoutMap) -> dict[str, Any]:
    return {
        "data_len": lay.data_len,
        "starts": {str(l): off for l, off in enumerate(lay.starts)},
        "sizes": list(lay.sizes),
    }


def decode_layout(doc: Any, path: str = "") -> LayoutMap:
    if not isinstance(doc, dict) or "data_len" not in doc or "starts" not in doc:
        raise DocError(path, "layout must carry data_len and starts")
    starts_doc = doc["starts"]
    n = len(starts_doc)
    try:
        starts = tuple(starts_doc[str(l)] for l in range(n))
    except KeyError as exc:
        raise DocError(f"{path}/starts", f"missing label {exc}") from exc
    if "sizes" in doc:
        sizes = tuple(doc["sizes"])
    else:
        total = doc.get("code_len")
        if total is None:
            raise DocError(path, "layout needs sizes or code_len")
        bounds = starts + (total,)
        sizes = tuple(bounds[i + 1] - bounds[i] for i in range(n))
    return LayoutMap(doc["data_len"], starts, sizes)
