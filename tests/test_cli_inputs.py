"""Hostile CLI inputs end in a documented exit code, never a traceback."""

import json
import pathlib

import pytest
from click.testing import CliRunner

from specibt.checks import check_relative_security
from specibt.cli import main
from specibt.explore import ExploreBudget
from specibt.interp import SeqState
from specibt.textio import DocError, decode_directive, decode_state

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"
LISTING1 = str(CORPUS / "listing1.mir")
PAIR = json.loads((CORPUS / "listing1_pair.json").read_text())


@pytest.fixture()
def runner():
    return CliRunner()


def _write(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("pc", [
    {"label": "a", "offset": 0},
    {"label": 0, "offset": "0"},
    {"label": True, "offset": 0},
    {"label": -1, "offset": 0},
])
def test_bad_state_pc_exits_1(runner, tmp_path, pc):
    doc = dict(PAIR, s1=dict(PAIR["s1"], pc=pc))
    pair = _write(tmp_path / "pair.json", doc)
    res = runner.invoke(main, ["check", "rs", LISTING1, pair])
    assert res.exit_code == 1
    assert "/s1/pc: not a program counter" in res.output


@pytest.mark.parametrize("sem,call", [
    ("spec", {"label": "x", "offset": 0}),
    ("ideal", {"label": 0, "offset": False}),
    ("mc", {"addr": "x"}),
    ("mc", {"addr": -3}),
])
def test_bad_call_directive_exits_1(runner, tmp_path, sem, call):
    state = _write(tmp_path / "s.json", PAIR["s1"])
    dirs = _write(tmp_path / "d.json", [{"branch": True}, {"call": call}])
    res = runner.invoke(main, ["run", "--sem", sem, "--dir", dirs, LISTING1, state])
    assert res.exit_code == 1
    assert "/1: not a directive" in res.output


def test_decoders_accept_only_naturals():
    with pytest.raises(DocError):
        decode_directive({"call": {"addr": True}})
    with pytest.raises(DocError):
        decode_state({"stk": [{"label": 0, "offset": 1.5}]})
    assert decode_directive({"call": {"addr": 0}}).addr == 0


@pytest.mark.parametrize("command", ["run", "check"])
def test_data_section_length_is_not_an_option(runner, tmp_path, command):
    # run --sem mc and check linearize take it from the state's memory
    state = _write(tmp_path / "s.json", PAIR["s1"])
    args = (["run", "--sem", "mc"] if command == "run" else ["check", "linearize"])
    res = runner.invoke(main, args + [LISTING1, state, "--data-len", "20"])
    assert res.exit_code == 2
    assert "No such option" in res.output


def test_rs_rejects_memories_of_different_length(runner, tmp_path):
    doc = dict(PAIR, s2=dict(PAIR["s2"], mem=PAIR["s2"]["mem"][:2]))
    pair = _write(tmp_path / "pair.json", doc)
    res = runner.invoke(main, ["check", "rs", LISTING1, pair, "--pipeline",
                               "end-to-end", "--variant", "no-edge-split"])
    assert res.exit_code == 5
    assert "differ in length" in res.output


def test_rs_memory_length_check(listing1, listing1_pair):
    s1, s2 = listing1_pair
    short = SeqState(s2.pc, s2.regs, s2.mem[:2], s2.stk)
    for pipeline in ("hardened-only", "end-to-end"):
        with pytest.raises(ValueError, match="differ in length"):
            check_relative_security(listing1, s1, short, ExploreBudget(), pipeline)


@pytest.mark.parametrize("sem", ["seq", "mc"])
def test_non_list_stack_exits_1(runner, tmp_path, sem):
    state = _write(tmp_path / "s.json", dict(PAIR["s1"], stk=5))
    res = runner.invoke(main, ["run", "--sem", sem, LISTING1, state])
    assert res.exit_code == 1
    assert "/stk: stack must be a list" in res.output


@pytest.mark.parametrize("value", [
    -5, {"nat": -5}, {"nat": True}, {"fp": True}, {"fp": -1},
])
def test_bad_value_exits_1(runner, tmp_path, value):
    state = _write(tmp_path / "s.json",
                   dict(PAIR["s1"], regs=dict(PAIR["s1"]["regs"], arg1=value)))
    res = runner.invoke(main, ["run", "--sem", "seq", LISTING1, state])
    assert res.exit_code == 1
    assert "/regs/arg1: not a value" in res.output


@pytest.mark.parametrize("args", [
    ["run", "--sem", "mc"],
    ["check", "linearize"],
])
def test_code_pointer_to_no_block_exits_1(runner, tmp_path, args):
    # concretizing the state needs the address of block 99
    state = _write(tmp_path / "s.json",
                   dict(PAIR["s1"], regs=dict(PAIR["s1"]["regs"], arg1={"fp": 99})))
    res = runner.invoke(main, args + [LISTING1, state])
    assert res.exit_code == 1
    assert "&99 names no block" in res.output


def test_rs_end_to_end_code_pointer_to_no_block_exits_1(runner, tmp_path):
    mem = [{"fp": 99}] + PAIR["s1"]["mem"][1:]
    pair = _write(tmp_path / "pair.json", dict(PAIR, s1=dict(PAIR["s1"], mem=mem)))
    res = runner.invoke(main, ["check", "rs", LISTING1, pair, "--pipeline", "end-to-end"])
    assert res.exit_code == 1
    assert "&99 names no block" in res.output
