"""Parser, printer and JSON codec tests, including round-trip properties."""

import hashlib
import pathlib
import random
import re

import pytest
from hypothesis import given, strategies as st

from specibt.cli import VARIANTS
from specibt.gen import GenConfig, gen_program, gen_state, spec_of
from specibt.hardening import harden
from specibt.interp import (
    DBranch,
    DCallMc,
    DCallMir,
    OBranch,
    OCall,
    OLoad,
    OStore,
)
from specibt.ir import (
    UV,
    Asgn,
    BinOp,
    Branch,
    Call,
    Cond,
    Const,
    FP,
    FpConst,
    Jump,
    Load,
    PC,
    Reg,
    Store,
)
from specibt.machine import layout
from specibt.textio import (
    DocError,
    ParseError,
    decode_directives,
    decode_layout,
    decode_obs,
    decode_state,
    decode_trace,
    decode_value,
    encode_directives,
    encode_layout,
    encode_state,
    encode_trace,
    encode_value,
    parse_program,
    print_program,
)

SAMPLE = """
# comment
entry main:
  x <- (1 + 2)
  f <- &helper
  branch (x <= 3) work
  call f
  ret
block work:
  load y, (x - 1)
  store 0, (y ? x : 0)
  jump work
entry helper:
  skip
  ret
"""


def test_parse_sample():
    p = parse_program(SAMPLE)
    assert len(p.blocks) == 3
    assert p.blocks[0].is_entry and not p.blocks[1].is_entry
    b0 = p.blocks[0].insts
    assert b0[0] == Asgn("x", BinOp("+", Const(1), Const(2)))
    assert b0[1] == Asgn("f", FpConst(2))
    assert b0[2] == Branch(BinOp("<=", Reg("x"), Const(3)), 1)
    assert b0[3] == Call(Reg("f"))
    b1 = p.blocks[1].insts
    assert b1[0] == Load("y", BinOp("-", Reg("x"), Const(1)))
    assert b1[1] == Store(Const(0), Cond(Reg("y"), Reg("x"), Const(0)))
    assert b1[2] == Jump(1)


def test_parse_errors_are_positioned():
    with pytest.raises(ParseError) as exc:
        parse_program("entry a:\n  branch 1 nowhere\n  ret\n")
    issue = exc.value.issues[0]
    assert "unknown label" in issue.message
    assert issue.line == 2
    with pytest.raises(ParseError) as exc:
        parse_program("entry a:\n  ret\nentry a:\n  ret\n")
    assert "duplicate label" in exc.value.issues[0].message
    with pytest.raises(ParseError):
        parse_program("entry a:\n  x <- (1 +\n")
    with pytest.raises(ParseError):
        parse_program("")
    with pytest.raises(ParseError):
        parse_program("entry a:\n  x <- $bad\n")


def test_keywords_cannot_be_registers():
    with pytest.raises(ParseError):
        parse_program("entry a:\n  load skip, 0\n  ret\n")


def test_print_parse_round_trip_generated():
    rng = random.Random(7)
    for _ in range(200):
        p = gen_program(rng, GenConfig())
        # hardened forms add ctarget, masked call targets and split edges
        for q in (p, *(harden(p, cfg=cfg) for cfg in VARIANTS.values())):
            assert parse_program(print_program(q)) == q


values = st.one_of(
    st.integers(min_value=0, max_value=10**6),
    st.builds(FP, st.integers(min_value=0, max_value=50)),
    st.just(UV),
)


@given(values)
def test_value_round_trip(v):
    assert decode_value(encode_value(v)) == v or (
        v is UV and decode_value(encode_value(v)) is UV
    )


observations = st.one_of(
    st.builds(OLoad, st.integers(min_value=0, max_value=100)),
    st.builds(OStore, st.integers(min_value=0, max_value=100)),
    st.builds(OBranch, st.booleans()),
    st.builds(OCall, st.integers(min_value=0, max_value=100)),
)


@given(st.lists(observations, max_size=20))
def test_trace_round_trip(trace):
    assert decode_trace(encode_trace(trace)) == trace


directives = st.one_of(
    st.builds(DBranch, st.booleans()),
    st.builds(
        DCallMir,
        st.builds(
            PC,
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=0, max_value=5),
        ),
    ),
    st.builds(DCallMc, st.integers(min_value=0, max_value=100)),
)


@given(st.lists(directives, max_size=20))
def test_directive_round_trip(ds):
    assert decode_directives(encode_directives(ds)) == ds


def test_state_round_trip():
    rng = random.Random(3)
    for _ in range(100):
        s = gen_state(rng)
        assert decode_state(encode_state(s)) == s
        sp = spec_of(s, ct=True, ms=True)
        back = decode_state(encode_state(sp))
        assert back == sp and back.ct and back.ms


def test_layout_round_trip(listing1):
    lay = layout(listing1, 8)
    assert decode_layout(encode_layout(lay)) == lay


def test_decode_rejects_garbage():
    with pytest.raises(DocError):
        decode_value({"nat": "x"})
    with pytest.raises(DocError):
        decode_obs({"branch": 1})
    with pytest.raises(DocError):
        decode_directives([{"call": {"label": 1}}])
    with pytest.raises(DocError) as exc:
        decode_trace([{"load": 1}, {"bogus": 2}])
    assert "/1" in exc.value.path
    with pytest.raises(DocError):
        decode_state({"regs": {"x": {"fp": "one"}}})


def test_canonical_printing_uses_dense_labels(listing1):
    text = print_program(listing1)
    assert text.startswith("entry b0:")
    assert "block b1:" in text and "entry b4:" in text


@pytest.mark.parametrize("text,message", [
    ("", "1:1: expected 'entry' or 'block'"),
    ("skip\n", "1:1: expected 'entry' or 'block'"),
    ("entry a:\nblock b:\n  ret\n", "1:1: block has no instructions"),
    ("entry 5:\n  ret\n", "1:7: expected 'ident', found '5'"),
    ("entry a:\n  branch 1 nowhere\n  jump elsewhere\n  f <- &gone\n  ret\n",
     "2:12: unknown label 'nowhere'; 3:8: unknown label 'elsewhere'; "
     "4:9: unknown label 'gone'"),
    ("entry a:\n  branch 1 nowhere\n  x <- (1 +\n",
     "4:1: expected expression, found 'end of input'"),
    ("entry a:\n  x <- (1", "2:10: expected operator or '?', found 'end of input'"),
    ("entry a:\n  ret\nentry a:\n  ret\nblock a:\n  skip\n",
     "3:7: duplicate label 'a'; 5:7: duplicate label 'a'"),
    ("entry a:\n  ret\nblock x", "3:1: 'block' does not start an instruction"),
    ("entry a:\n  ret\nblock b,\n", "3:1: 'block' does not start an instruction"),
    # one malformed case per instruction form
    ("entry a:\n  load 5, 1\n", "2:8: expected 'ident', found '5'"),
    ("entry a:\n  load ret, 1\n", "2:8: keyword 'ret' cannot name a register"),
    ("entry a:\n  store 1 2\n", "2:11: expected ',', found '2'"),
    ("entry a:\n  x 1\n", "2:5: expected '<-', found '1'"),
    ("entry a:\n  branch 1\n", "3:1: expected 'ident', found 'end of input'"),
    ("entry a:\n  jump 5\n", "2:8: expected 'ident', found '5'"),
    ("entry a:\n  call\n", "3:1: expected expression, found 'end of input'"),
    ("entry a:\n  skip $\n", "2:8: unexpected character '$'"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    assert str(exc.value) == message


def test_labels_resolve_forward():
    p = parse_program("entry a:\n  jump later\nblock later:\n  f <- &a\n  ret\n")
    assert p.blocks[0].insts == (Jump(1),)
    assert p.blocks[1].insts[0] == Asgn("f", FpConst(0))


def test_decode_layout_needs_sizes(listing1):
    lay = layout(listing1, 8)
    doc = encode_layout(lay)
    del doc["sizes"]
    doc["code_len"] = lay.code_len  # no writer produces it; it is not read
    with pytest.raises(DocError, match="sizes"):
        decode_layout(doc)


@pytest.mark.parametrize("flags", [{"ct": "no"}, {"ms": "false"}, {"ms": 1}])
def test_state_flags_must_be_booleans(flags):
    with pytest.raises(DocError, match="flag must be true or false"):
        decode_state(flags)


@pytest.mark.parametrize("field, value, path", [
    ("data_len", -1, "/data_len"),
    ("data_len", True, "/data_len"),
    ("data_len", "8", "/data_len"),
    ("starts", [0, 2], "/starts"),
    ("starts", {"0": 0, "1": "2"}, "/starts/1"),
    ("starts", {"0": 0, "1": -2}, "/starts/1"),
    ("sizes", 5, "/sizes"),
    ("sizes", [2], "/sizes"),
    ("sizes", [2, None], "/sizes/1"),
    ("sizes", [2, False], "/sizes/1"),
    # starts that are not the running sums of the sizes from 0
    ("starts", {"0": 0, "1": 5}, "/starts/1"),
    ("starts", {"0": 0, "1": 1}, "/starts/1"),
    ("starts", {"0": 1, "1": 3}, "/starts/0"),
])
def test_decode_layout_checks_field_types(field, value, path):
    doc = {"data_len": 8, "starts": {"0": 0, "1": 2}, "sizes": [2, 3], field: value}
    with pytest.raises(DocError) as exc:
        decode_layout(doc, "lay")
    assert exc.value.path == "lay" + path


def test_root_doc_error_has_no_empty_path():
    assert str(DocError("", "state must be an object")) == "state must be an object"
    assert str(DocError("/s1", "state must be an object")) == "/s1: state must be an object"


_ROOT = pathlib.Path(__file__).parent.parent
_WORD = re.compile(r"#[^\n]*|<-|<=|->|&&|\w+|\S")
_REPLACEMENTS = [
    "entry", "block", "skip", "branch", "jump", "load", "store", "call", "ctarget", "ret",
    "<-", "<=", "->", "&&", "+", "-", "*", "=", "&", "(", ")", ",", ":", "?",
    "7", "r9", "$",
]


def _outcome(text: str) -> str:
    """The printed program, or the parse error's text."""
    try:
        return print_program(parse_program(text))
    except ParseError as exc:
        return f"error: {exc}"


def test_parse_outcomes_of_one_token_mutations_are_pinned():
    """Each token of every generated corpus program and of Listing 1 in
    turn replaced by one drawn from the keywords, the symbols, a number, a
    name and a stray character: the outcomes are pinned by their digest."""
    rng = random.Random(1)
    files = [*sorted((_ROOT / "bench" / "gen_corpus").glob("*.mir")),
             _ROOT / "corpus" / "listing1.mir"]
    digest, n = hashlib.sha256(), 0
    for f in files:
        text = f.read_text()
        for m in _WORD.finditer(text):
            if m.group().startswith("#"):
                continue
            mutant = text[:m.start()] + rng.choice(_REPLACEMENTS) + text[m.end():]
            digest.update(_outcome(mutant).encode() + b"\0")
            n += 1
    assert n == 2860
    assert digest.hexdigest() == "357366eca6031ded0ff97c6418aa94145ade248fb46773a11a220bbee513a0f0"
