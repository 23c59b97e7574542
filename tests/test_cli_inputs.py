"""Hostile CLI inputs end in a documented exit code, never a traceback."""

import json
import pathlib

import pytest

from conftest import invoke
from specibt.checks import check_relative_security
from specibt.explore import ExploreBudget
from specibt.interp import State
from specibt.machine import layout
from specibt.textio import (MAX_NESTING, DocError, decode_directive, decode_layout,
                            decode_state)

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"
LISTING1 = str(CORPUS / "listing1.mir")
PAIR = json.loads((CORPUS / "listing1_pair.json").read_text())


def _write(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("pc", [
    {"label": "a", "offset": 0},
    {"label": 0, "offset": "0"},
    {"label": True, "offset": 0},
    {"label": -1, "offset": 0},
])
def test_bad_state_pc_exits_1(tmp_path, pc):
    doc = dict(PAIR, s1=dict(PAIR["s1"], pc=pc))
    pair = _write(tmp_path / "pair.json", doc)
    res = invoke(["check", "rs", LISTING1, pair])
    assert res.exit_code == 1
    assert "/s1/pc: not a program counter" in res.output


@pytest.mark.parametrize("sem,call", [
    ("spec", {"label": "x", "offset": 0}),
    ("ideal", {"label": 0, "offset": False}),
    ("mc", {"addr": "x"}),
    ("mc", {"addr": -3}),
])
def test_bad_call_directive_exits_1(tmp_path, sem, call):
    state = _write(tmp_path / "s.json", PAIR["s1"])
    dirs = _write(tmp_path / "d.json", [{"branch": True}, {"call": call}])
    res = invoke(["run", "--sem", sem, "--dir", dirs, LISTING1, state])
    assert res.exit_code == 1
    assert "/1: not a directive" in res.output


@pytest.mark.parametrize("sem,call", [
    ("spec", {"addr": 15}),  # a machine-level call at the block level
    ("mc", {"label": 4, "offset": 0}),  # a block-level call at machine level
    ("spec", {"label": 99, "offset": 0}),  # a label Listing 1 does not have
    ("spec", {"label": 0, "offset": 5}),  # an offset past its block
    ("ideal", {"label": 4, "offset": 3}),
    ("mc", {"addr": 1}),  # an address in the data section
    ("mc", {"addr": 20}),  # one past the code, 12 instructions after 8 cells
])
def test_directive_of_the_wrong_level_exits_1(tmp_path, sem, call):
    state = _write(tmp_path / "s.json", PAIR["s1"])
    dirs = _write(tmp_path / "d.json", [{"branch": True}, {"call": call}])
    res = invoke(["run", "--sem", sem, "--dir", dirs, LISTING1, state])
    assert res.exit_code == 1
    assert f"Error: {dirs}: directives do not fit --sem {sem}" in res.output


def test_call_to_the_last_code_address_fits_mc(tmp_path):
    state = _write(tmp_path / "s.json", PAIR["s1"])
    dirs = _write(tmp_path / "d.json", [{"branch": True}, {"call": {"addr": 19}}])
    res = invoke(["run", "--sem", "mc", "--dir", dirs, LISTING1, state])
    assert res.exit_code == 0
    assert json.loads(res.output)["outcome"] == "fault"


def test_directives_under_seq_exit_1(tmp_path):
    state = _write(tmp_path / "s.json", PAIR["s1"])
    dirs = _write(tmp_path / "d.json", [{"call": {"label": 4, "offset": 0}}])
    res = invoke(["run", "--sem", "seq", "--dir", dirs, LISTING1, state])
    assert res.exit_code == 1
    assert f"Error: {dirs}: directives do not fit --sem seq" in res.output
    # an empty sequence fits every semantics
    empty = _write(tmp_path / "e.json", [])
    res = invoke(["run", "--sem", "seq", "--dir", empty, LISTING1, state])
    assert res.exit_code == 0
    assert json.loads(res.output)["outcome"] == "term"


@pytest.mark.parametrize("sem,call", [
    ("spec", {"label": 4, "offset": 0}),
    ("mc", {"addr": 15}),
])
def test_directive_mismatch_run_exits_1(tmp_path, sem, call):
    # well-formed for the level, but a call directive where the run
    # reaches a branch
    state = _write(tmp_path / "s.json", PAIR["s1"])
    dirs = _write(tmp_path / "d.json", [{"call": call}])
    res = invoke(["run", "--sem", sem, "--dir", dirs, LISTING1, state])
    assert res.exit_code == 1
    assert json.loads(res.output) == {
        "trace": [],
        "outcome": "directive-mismatch:branch instruction needs a branch directive",
    }


def test_decoders_accept_only_naturals():
    with pytest.raises(DocError):
        decode_directive({"call": {"addr": True}})
    with pytest.raises(DocError):
        decode_state({"stk": [{"label": 0, "offset": 1.5}]})
    assert decode_directive({"call": {"addr": 0}}).addr == 0


@pytest.mark.parametrize("command", ["run", "check"])
def test_data_section_length_is_not_an_option(tmp_path, command):
    # run --sem mc and check linearize take it from the state's memory
    state = _write(tmp_path / "s.json", PAIR["s1"])
    args = (["run", "--sem", "mc"] if command == "run" else ["check", "linearize"])
    res = invoke(args + [LISTING1, state, "--data-len", "20"])
    assert res.exit_code == 2
    assert "No such option" in res.output


def test_rs_rejects_memories_of_different_length(tmp_path):
    doc = dict(PAIR, s2=dict(PAIR["s2"], mem=PAIR["s2"]["mem"][:2]))
    pair = _write(tmp_path / "pair.json", doc)
    res = invoke(["check", "rs", LISTING1, pair, "--pipeline",
                  "end-to-end", "--variant", "no-edge-split"])
    assert res.exit_code == 5
    assert "differ in length" in res.output


def test_rs_memory_length_check(listing1, listing1_pair):
    s1, s2 = listing1_pair
    short = State(s2.pc, s2.regs, s2.mem[:2], s2.stk)
    for pipeline in ("hardened-only", "end-to-end"):
        with pytest.raises(ValueError, match="differ in length"):
            check_relative_security(listing1, s1, short, ExploreBudget(), pipeline)


@pytest.mark.parametrize("sem", ["seq", "mc"])
def test_non_list_stack_exits_1(tmp_path, sem):
    state = _write(tmp_path / "s.json", dict(PAIR["s1"], stk=5))
    res = invoke(["run", "--sem", sem, LISTING1, state])
    assert res.exit_code == 1
    assert "/stk: stack must be a list" in res.output


@pytest.mark.parametrize("value", [
    -5, {"nat": -5}, {"nat": True}, {"fp": True}, {"fp": -1},
])
def test_bad_value_exits_1(tmp_path, value):
    state = _write(tmp_path / "s.json",
                   dict(PAIR["s1"], regs=dict(PAIR["s1"]["regs"], arg1=value)))
    res = invoke(["run", "--sem", "seq", LISTING1, state])
    assert res.exit_code == 1
    assert "/regs/arg1: not a value" in res.output


@pytest.mark.parametrize("args", [
    ["run", "--sem", "mc"],
    ["check", "linearize"],
])
def test_code_pointer_to_no_block_exits_1(tmp_path, args):
    # concretizing the state needs the address of block 99
    state = _write(tmp_path / "s.json",
                   dict(PAIR["s1"], regs=dict(PAIR["s1"]["regs"], arg1={"fp": 99})))
    res = invoke(args + [LISTING1, state])
    assert res.exit_code == 1
    assert "&99 names no block" in res.output


@pytest.mark.parametrize("args", [
    ["run", "--sem", "mc"],
    ["check", "linearize"],
])
@pytest.mark.parametrize("field,doc,message", [
    # past its block, the pc would name the head of the next block
    ("pc", {"label": 0, "offset": 3}, "pc offset 3 lies outside block 0 of 3 instructions"),
    ("stk", [{"label": 4, "offset": 2}, {"label": 2, "offset": 2}],
     "return address offset 2 lies outside block 2 of 2 instructions"),
    # a label past the last block is no code pointer of the state
    ("pc", {"label": 9, "offset": 0}, "pc label 9 names no block of the program"),
    ("stk", [{"label": 7, "offset": 0}], "return address label 7 names no block of the program"),
])
def test_pc_or_return_address_outside_its_block_exits_1(tmp_path, args, field, doc, message):
    state = _write(tmp_path / "s.json", dict(PAIR["s1"], **{field: doc}))
    res = invoke(args + [LISTING1, state])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr == f"Error: {state}: {message}\n"


@pytest.mark.parametrize("prop", ["bcc", "safety"])
def test_check_of_a_sequentially_stuck_input_is_inconclusive(tmp_path, prop):
    # the sequential run is stuck at once, so both of bcc's runs would be
    # stuck with the same empty trace: a pass that checked nothing
    state = _write(tmp_path / "s.json", dict(PAIR["s1"], pc={"label": 9, "offset": 0}))
    res = invoke(["check", prop, LISTING1, state])
    assert res.exit_code == 3
    assert res.stderr == ""
    assert json.loads(res.stdout) == {
        "status": "inconclusive", "runs": 0, "reason": "sequential run is not safe"}


@pytest.mark.parametrize("command", ["run", "check", "linearize"])
def test_empty_data_section_is_a_side_condition(tmp_path, command):
    # under run --sem mc and check linearize the data section is as long as
    # the state's memory
    state = _write(tmp_path / "s.json", dict(PAIR["s1"], mem=[]))
    args = {"run": ["run", "--sem", "mc", LISTING1, state],
            "check": ["check", "linearize", LISTING1, state],
            "linearize": ["linearize", LISTING1, "--data-len", "0"]}[command]
    res = invoke(args)
    assert res.exit_code == 5
    assert res.stdout == ""
    assert res.stderr == "side condition violated: data_len must be positive\n"


def test_rs_end_to_end_code_pointer_to_no_block_exits_1(tmp_path):
    mem = [{"fp": 99}] + PAIR["s1"]["mem"][1:]
    pair = _write(tmp_path / "pair.json", dict(PAIR, s1=dict(PAIR["s1"], mem=mem)))
    res = invoke(["check", "rs", LISTING1, pair, "--pipeline", "end-to-end"])
    assert res.exit_code == 1
    assert "&99 names no block" in res.output


@pytest.mark.parametrize("doc", [[1, 2], {"s1": PAIR["s1"]}, "pair"])
@pytest.mark.parametrize("command", ["check", "attack"])
def test_malformed_pair_exits_1(tmp_path, doc, command):
    pair = _write(tmp_path / "pair.json", doc)
    args = ["check", "rs"] if command == "check" else ["attack"]
    res = invoke(args + [LISTING1, pair])
    assert res.exit_code == 1
    assert res.output.startswith(f"Error: {pair}: ")
    assert "pair must be an object with states s1 and s2" in res.output


@pytest.mark.parametrize("sem", ["spec", "ideal", "mc"])
def test_non_boolean_flags_exit_1(tmp_path, sem):
    state = _write(tmp_path / "s.json", dict(PAIR["s1"], ct="no", ms="false"))
    res = invoke(["run", "--sem", sem, LISTING1, state])
    assert res.exit_code == 1
    assert "/ct: flag must be true or false" in res.output


@pytest.mark.parametrize("args", [
    ["fuzz-bcc", "--sequences", "0"],
    ["fuzz-rs", "--runs", "0"],
    ["fuzz-linearize", "--fuel", "0"],
    ["fuzz-safety", "--depth", "-1"],
    ["check", "rs", LISTING1, str(CORPUS / "listing1_pair.json"), "--runs", "0"],
    ["check", "bcc", LISTING1, "{state}", "--fuel", "-1"],
    ["check", "safety", LISTING1, "{state}", "--depth", "-1"],
    ["attack", LISTING1, str(CORPUS / "listing1_pair.json"), "--runs", "0"],
    ["run", LISTING1, "{state}", "--fuel", "-3"],
    ["run", "--sem", "spec", LISTING1, "{state}", "--fuel", "0"],
])
def test_empty_budget_is_a_usage_error(tmp_path, args):
    state = _write(tmp_path / "s.json", PAIR["s1"])
    res = invoke([a.format(state=state) for a in args])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "Invalid value" in res.stderr


@pytest.mark.parametrize("sem,flag", [
    ("seq", "--ct"), ("seq", "--no-ct"), ("seq", "--ms"), ("seq", "--no-cet"),
    ("ideal", "--ct"), ("ideal", "--no-ct"), ("ideal", "--no-cet"),
    ("mc", "--no-cet"),
])
def test_run_flag_the_semantics_never_reads_is_a_usage_error(tmp_path, sem, flag):
    state = _write(tmp_path / "s.json", PAIR["s1"])
    res = invoke(["run", "--sem", sem, flag, LISTING1, state])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert f"{flag}: no effect under --sem {sem}" in res.stderr


@pytest.mark.parametrize("prop,flags,unread", [
    ("linearize", ["--variant", "no-edge-split"], "--variant"),
    ("linearize", ["--pipeline", "end-to-end"], "--pipeline"),
    ("linearize", ["--variant", "no-edge-split", "--pipeline", "end-to-end"],
     "--pipeline, --variant"),
    ("bcc", ["--pipeline", "end-to-end"], "--pipeline"),
    ("safety", ["--pipeline", "hardened-only"], "--pipeline"),
])
def test_check_flag_the_property_never_reads_is_a_usage_error(tmp_path, prop, flags, unread):
    state = _write(tmp_path / "s.json", PAIR["s1"])
    res = invoke(["check", prop, LISTING1, state, "--depth", "3", *flags])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert f"{unread}: no effect under check {prop}" in res.stderr


def _nested_listing1(tmp_path, n: int) -> str:
    """Listing 1 with its branch condition and its first load address
    rewritten to equal expressions whose parentheses nest `n` deep."""
    def deep(e: str, k: int) -> str:  # `e` inside k more levels of "(0 + ...)"
        return "(0 + " * k + e + ")" * k
    text = pathlib.Path(LISTING1).read_text()
    text = text.replace("((arg1 + 1) <= len)", f"({deep('(arg1 + 1)', n - 2)} <= len)")
    text = text.replace("(base + arg1)", deep("(base + arg1)", n - 1))
    f = tmp_path / f"nested{n}.mir"
    f.write_text(text)
    return str(f)


NESTED_COMMANDS = [
    *(["run", "--sem", sem, "{p}", "{state}"] for sem in ("seq", "spec", "ideal", "mc")),
    ["linearize", "{p}", "--data-len", "8"],
    *(["check", prop, "{p}", "{state}"] for prop in ("bcc", "safety", "linearize")),
    ["check", "rs", "{p}", "{pair}"],
    ["check", "rs", "{p}", "{pair}", "--pipeline", "end-to-end"],
    ["attack", "{p}", "{pair}"],
]


@pytest.mark.parametrize("args", NESTED_COMMANDS, ids=" ".join)
def test_expression_at_the_nesting_bound_runs_everywhere(tmp_path, args):
    p = _nested_listing1(tmp_path, MAX_NESTING)
    state, pair = _write(tmp_path / "s.json", PAIR["s1"]), str(CORPUS / "listing1_pair.json")
    res = invoke([a.format(p=p, state=state, pair=pair) for a in args])
    assert res.exit_code == 0, res.stderr
    assert res.stdout


def test_harden_output_past_the_nesting_bound_exits_5(tmp_path):
    # hardening adds levels to the branch condition and the load address, so
    # the program at the bound hardens to text its parser would reject
    p, out = _nested_listing1(tmp_path, MAX_NESTING), tmp_path / "h.mir"
    res = invoke(["harden", p, "-o", str(out)])
    assert res.exit_code == 5
    assert res.stdout == ""
    assert res.stderr.startswith("side condition violated: the hardened program does not parse: ")
    assert f"nested deeper than {MAX_NESTING} levels" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("args", [*NESTED_COMMANDS, ["harden", "{p}"]], ids=" ".join)
def test_expression_past_the_nesting_bound_is_a_parse_error(tmp_path, args):
    p = _nested_listing1(tmp_path, MAX_NESTING + 1)
    state, pair = _write(tmp_path / "s.json", PAIR["s1"]), str(CORPUS / "listing1_pair.json")
    res = invoke([a.format(p=p, state=state, pair=pair) for a in args])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr.startswith(f"Error: {p}: ")
    assert f"nested deeper than {MAX_NESTING} levels" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("data_len", [1, 8])
def test_layout_sidecar_round_trip(tmp_path, listing1, data_len):
    out = tmp_path / "layout.json"
    res = invoke(["linearize", LISTING1, "--data-len", str(data_len),
                  "--layout-out", str(out)])
    assert res.exit_code == 0
    assert decode_layout(json.loads(out.read_text())) == layout(listing1, data_len)
    # without --layout-out the same sidecar goes to stderr
    res = invoke(["linearize", LISTING1, "--data-len", str(data_len)])
    assert json.loads(res.stderr) == json.loads(out.read_text())


@pytest.mark.parametrize("args, doc, message", [
    (["check", "rs", LISTING1], [1, 2], "pair must be an object with states s1 and s2"),
    (["attack", LISTING1], [1, 2], "pair must be an object with states s1 and s2"),
    (["run", "--sem", "seq", LISTING1], [1, 2], "state must be an object"),
    (["run", "--sem", "mc", LISTING1], "state", "state must be an object"),
    # below the root, the pointer into the document follows the one separator
    (["check", "bcc", LISTING1], dict(PAIR["s1"], regs=[1, 2]),
     "/regs: registers must be an object"),
])
def test_document_root_error_has_one_separator(tmp_path, args, doc, message):
    path = _write(tmp_path / "doc.json", doc)
    res = invoke(args + [path])
    assert res.exit_code == 1
    assert res.output == f"Error: {path}: {message}\n"


def test_fuzz_campaign_with_no_passing_case_is_not_a_pass(tmp_path):
    # every source speculative run loads out of bounds after the branch, so
    # each lockstep check is inconclusive
    (tmp_path / "p.mir").write_text(
        "entry b0:\n  branch (r0 <= 7) b1\n  ret\nblock b1:\n  load r1, 100\n  ret\n"
    )
    res = invoke(["fuzz-linearize", "--corpus", str(tmp_path), "--seed", "1", "--runs", "5"])
    assert res.exit_code == 3
    assert json.loads(res.output) == {"status": "inconclusive", "runs": 5}


@pytest.mark.parametrize("programs,message", [
    ({}, "no .mir files in {corpus}"),
    # instrumented programs cannot be hardened again
    ({"h.mir": "entry a:\n  ctarget\n  ret\n"}, "no source programs in {corpus}"),
    # every run of a program that never terminates is cut by its fuel (a
    # branch into the entry block would make it no source program)
    ({"spin.mir": "entry a:\n  jump b\nblock b:\n  jump b\n"},
     "could not sample safe inputs for {corpus}"),
], ids=["empty", "no-source-program", "no-safe-input"])
def test_fuzz_corpus_without_inputs_exits_1(tmp_path, programs, message):
    for name, text in programs.items():
        (tmp_path / name).write_text(text)
    res = invoke(["fuzz-bcc", "--corpus", str(tmp_path), "--runs", "2"])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr == f"Error: {message.format(corpus=tmp_path)}\n"


COMMANDS = ["run", "harden", "linearize", "check", "attack",
            "fuzz-bcc", "fuzz-safety", "fuzz-rs", "fuzz-linearize"]


@pytest.mark.parametrize("args", [[], *([c] for c in COMMANDS)], ids=["specibt", *COMMANDS])
def test_help_exits_0(args):
    res = invoke(args + ["--help"])
    assert res.exit_code == 0
    assert res.stdout


@pytest.mark.parametrize("args", [
    ["run", "{missing}", "{state}"],
    ["run", LISTING1, "{missing}"],
    ["run", "--sem", "spec", "--dir", "{missing}", LISTING1, "{state}"],
    ["check", "bcc", "{missing}", "{state}"],
    ["attack", LISTING1, "{missing}"],
    ["harden", "{missing}"],
    ["fuzz-bcc", "--corpus", LISTING1],  # a file, not a directory
    ["fuzz-safety", "--corpus", "{missing}"],
    ["fuzz-rs", "--corpus", str(CORPUS)],  # fuzz-rs draws its state pairs
    ["bogus"],
    [],
], ids=["program", "state", "dir", "check", "pair", "harden", "corpus-file",
        "corpus-missing", "fuzz-rs-corpus", "unknown-command", "no-command"])
def test_implicit_usage_errors_exit_2(tmp_path, args):
    state = _write(tmp_path / "s.json", PAIR["s1"])
    missing = str(tmp_path / "missing.json")
    res = invoke([a.format(state=state, missing=missing) for a in args])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr


def _undecodable(tmp_path, kind):
    """A file that cannot be decoded: not UTF-8, nested too deep for JSON, or
    a program whose expression nests deeper than the recursion limit."""
    f = tmp_path / f"{kind}.in"
    if kind == "bytes":
        f.write_bytes(b"\xff\xfe\x00")
    elif kind == "json":
        f.write_text("[" * 100_000)
    else:
        f.write_text("entry a:\n  x <- " + "(1 + " * 1500 + "1" + ")" * 1500 + "\n  ret\n")
    return str(f)


@pytest.mark.parametrize("kind,args", [
    ("bytes", ["run", "{bad}", "{state}"]),
    ("bytes", ["run", LISTING1, "{bad}"]),
    ("bytes", ["check", "bcc", LISTING1, "{bad}"]),
    ("json", ["run", LISTING1, "{bad}"]),
    ("json", ["run", "--sem", "spec", "--dir", "{bad}", LISTING1, "{state}"]),
    ("json", ["check", "rs", LISTING1, "{bad}"]),
    ("expr", ["run", "{bad}", "{state}"]),
    ("expr", ["harden", "{bad}"]),
])
def test_undecodable_input_exits_1(tmp_path, kind, args):
    state = _write(tmp_path / "s.json", PAIR["s1"])
    bad = _undecodable(tmp_path, kind)
    res = invoke([a.format(state=state, bad=bad) for a in args])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr.startswith(f"Error: {bad}: ")
    assert "Traceback" not in res.stderr
