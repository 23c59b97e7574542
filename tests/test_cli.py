"""End-to-end CLI tests: each runs `specibt.cli.main` in this process through
`conftest.invoke`, and a few run a fresh interpreter in a subprocess."""

import gc
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

import specibt.cli
from conftest import invoke
from specibt.checks import Verdict
from specibt.interp import DBranch, OBranch

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"
LISTING1 = str(CORPUS / "listing1.mir")
PAIR = str(CORPUS / "listing1_pair.json")
GOLDEN = CORPUS / "listing1.hardened.mir"


@pytest.fixture()
def state1(tmp_path):
    doc = json.loads((CORPUS / "listing1_pair.json").read_text())
    f = tmp_path / "s1.json"
    f.write_text(json.dumps(doc["s1"]))
    return str(f)


def test_version():
    res = invoke(["--version"])
    assert res.exit_code == 0
    assert res.output == "specibt 0.1.0 (semantics 1)\n"


def test_importing_the_cli_loads_every_layer():
    # the benchmark's tracer patches each layer module it finds in sys.modules
    layers = ("gen", "interp", "machine", "hardening", "explore", "checks",
              "relate", "textio")
    src = str(pathlib.Path(specibt.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, specibt.cli; print(' '.join(m for m in sys.argv[1:] "
            "if 'specibt.' + m not in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, *layers], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path), check=True)
    assert out.stdout == "\n"


def test_importing_the_cli_leaves_click_out():
    # argparse parses the command line: importing click would cost each process
    src = str(pathlib.Path(specibt.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, specibt.cli; print('click' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True)
    assert out.stdout == "False\n"


def test_the_process_entry_freezes_the_start_up_heap():
    # called with no argv, main owns its process: no collection, not even those
    # at interpreter exit, walks the start-up heap again
    src = str(pathlib.Path(specibt.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import gc, sys, specibt.cli\n"
            "sys.argv = ['specibt', '--version']\n"
            "try:\n    specibt.cli.main()\n"
            "except SystemExit:\n    print(gc.get_freeze_count())")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True)
    assert out.stdout.splitlines()[0] == "specibt 0.1.0 (semantics 1)"
    assert int(out.stdout.splitlines()[-1]) > 0


def test_an_in_process_call_keeps_the_collector_as_it_is():
    # pytest and the benchmark's traced runner pass argv
    frozen = gc.get_freeze_count()
    assert invoke(["--version"]).exit_code == 0
    assert gc.get_freeze_count() == frozen


def test_run_seq(state1):
    res = invoke(["run", "--sem", "seq", LISTING1, state1])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["outcome"] == "term"
    assert doc["trace"] == [{"branch": False}, {"call": 3}]


def test_run_spec_with_directives(state1, tmp_path):
    d = tmp_path / "d.json"
    d.write_text(json.dumps([{"branch": True}, {"call": {"label": 4, "offset": 0}}]))
    res = invoke(["run", "--sem", "spec", "--no-cet", "--dir", str(d), LISTING1, state1])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert {"load": 6} in doc["trace"]


def test_run_spec_out_of_directives(state1):
    res = invoke(["run", "--sem", "spec", LISTING1, state1])
    assert res.exit_code == 0
    assert json.loads(res.output)["outcome"] == "out-of-directives"


def test_run_stuck_exits_4(tmp_path):
    prog = tmp_path / "p.mir"
    prog.write_text("entry a:\n  load x, 99\n  ret\n")
    st = tmp_path / "s.json"
    st.write_text(json.dumps({"mem": [0, 0]}))
    res = invoke(["run", str(prog), str(st)])
    assert res.exit_code == 4
    assert json.loads(res.output)["outcome"].startswith("stuck")


def test_run_mc(state1, tmp_path):
    d = tmp_path / "d.json"
    d.write_text(json.dumps([{"branch": False}, {"call": {"addr": 15}}]))
    res = invoke(["run", "--sem", "mc", LISTING1, state1, "--dir", str(d)])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    # fun_1 sits at address 8 + 7 = 15; the machine call observes addresses
    assert {"call": 15} in doc["trace"]


def test_parse_error_exits_1(tmp_path, state1):
    bad = tmp_path / "bad.mir"
    bad.write_text("entry a:\n  branch 1 nowhere\n  ret\n")
    res = invoke(["run", str(bad), state1])
    assert res.exit_code == 1
    assert "unknown label" in res.output


def test_harden_matches_golden():
    res = invoke(["harden", LISTING1])
    assert res.exit_code == 0
    assert res.output == GOLDEN.read_text()


def test_harden_side_condition_exit_5(tmp_path):
    prog = tmp_path / "p.mir"
    prog.write_text("entry a:\n  msf <- 1\n  ret\n")
    res = invoke(["harden", str(prog)])
    assert res.exit_code == 5


def test_harden_custom_reserved_names(tmp_path):
    prog = tmp_path / "p.mir"
    prog.write_text("entry a:\n  msf <- 1\n  ret\n")
    res = invoke(["harden", str(prog), "--msf-reg", "flag", "--callee-reg", "tgt"])
    assert res.exit_code == 0
    assert "flag <-" in res.output


def test_linearize_outputs_listing_and_layout(tmp_path):
    lay_file = tmp_path / "layout.json"
    res = invoke(["linearize", LISTING1, "--data-len", "8", "--layout-out", str(lay_file)])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert len(lines) == 12  # total instruction count of listing1
    assert lines[0] == "branch (msf ? 0 : ((arg1 + 1) <= len)) 11" or lines[0].startswith("branch")
    lay = json.loads(lay_file.read_text())
    assert lay["data_len"] == 8
    assert lay["starts"]["0"] == 0


def test_check_bcc_pass(state1):
    res = invoke(["check", "bcc", LISTING1, state1, "--depth", "2"])
    assert res.exit_code == 0
    assert json.loads(res.output)["status"] == "pass"


def test_check_bcc_mutant_counterexample(state1):
    res = invoke(["check", "bcc", LISTING1, state1, "--variant", "no-call-mask",
                  "--depth", "3"])
    assert res.exit_code == 2
    doc = json.loads(res.output)
    assert doc["status"] == "counterexample"
    assert doc["trace1"] != doc["trace2"]


def test_check_rs_pass():
    res = invoke(["check", "rs", LISTING1, PAIR, "--depth", "4"])
    assert res.exit_code == 0


def test_check_linearize_pass(tmp_path, state1):
    hardened = tmp_path / "h.mir"
    res = invoke(["harden", LISTING1, "-o", str(hardened)])
    assert res.exit_code == 0
    st = tmp_path / "s.json"
    doc = json.loads(pathlib.Path(state1).read_text())
    doc["regs"]["msf"] = {"nat": 0}
    doc["regs"]["callee"] = {"fp": 0}
    doc["ct"] = True
    st.write_text(json.dumps(doc))
    res = invoke(["check", "linearize", str(hardened), str(st)])
    assert res.exit_code == 0


def test_attack_pht():
    res = invoke(["attack", "--target", "pht", LISTING1, PAIR])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["target"] == "pht"
    assert doc["trace1"] != doc["trace2"]


def test_attack_btb():
    res = invoke(["attack", "--target", "btb", LISTING1, PAIR])
    assert res.exit_code == 0
    assert json.loads(res.output)["target"] == "btb"


@pytest.mark.parametrize("text", [
    GOLDEN.read_text(),  # already instrumented: ctarget in a source program
    "entry a:\n  msf <- 1\n  ret\n",  # writes a reserved register
], ids=["instrumented", "reserved-register"])
def test_attack_btb_on_a_program_the_pass_rejects_exits_5(tmp_path, text):
    program = tmp_path / "p.mir"
    program.write_text(text)
    program = str(program)
    res = invoke(["attack", "--target", "btb", program, PAIR])
    assert res.exit_code == 5
    assert res.stdout == ""
    assert res.stderr.startswith("side condition violated: ")
    # auto attacks the program as given instead, and searches its budget
    res = invoke(["attack", "--target", "auto", program, PAIR])
    assert res.exit_code == 3
    assert "no distinguishing directives" in res.stderr


def test_attack_hardened_finds_nothing(tmp_path):
    hardened = tmp_path / "h.mir"
    invoke(["harden", LISTING1, "-o", str(hardened)])
    # attack the already fully hardened program: pht mode, which runs the
    # program as given, finds no distinguishing directives
    res = invoke(["attack", "--target", "pht", str(hardened), PAIR, "--depth", "4",
                  "--runs", "3000"])
    assert res.exit_code == 3
    assert "no distinguishing directives" in res.output


DEEP = ["--depth", "5000", "--fuel", "30000", "--runs", "5"]


@pytest.fixture()
def deep_loop(tmp_path):
    """A loop whose branch is a fork at every iteration, with `x = 1` in
    every state: under `DEEP`, the first sequence takes the branch at 5,000
    forks, far more than Python's default recursion limit of 1,000."""
    prog, pair, state = tmp_path / "loop.mir", tmp_path / "pair.json", tmp_path / "s.json"
    prog.write_text("entry a:\n  jump b\nblock b:\n  branch x b\n  ret\n")
    s = {"regs": {"x": 1}, "mem": [0]}
    pair.write_text(json.dumps({"s1": s, "s2": s}))
    state.write_text(json.dumps(s))
    return str(prog), str(pair), str(state)


@pytest.mark.parametrize("prop", ["rs", "bcc", "safety", "linearize"])
def test_check_forks_deeper_than_the_recursion_limit(deep_loop, prop):
    prog, pair, state = deep_loop
    res = invoke(["check", prop, prog, pair if prop == "rs" else state, *DEEP])
    assert (res.exit_code, res.output) == (0, '{"status": "pass", "runs": 5}\n')


def test_attack_forks_deeper_than_the_recursion_limit(deep_loop):
    prog, pair, _ = deep_loop
    res = invoke(["attack", "--target", "pht", prog, pair, *DEEP])
    assert res.exit_code == 3
    assert "no distinguishing directives within budget" in res.output


def test_fuzz_bcc_small():
    res = invoke(["fuzz-bcc", "--seed", "1", "--runs", "5", "--depth", "2",
                  "--sequences", "30", "--fuel", "300"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["status"] == "pass"


def test_fuzz_safety_corpus():
    res = invoke(["fuzz-safety", "--corpus", str(CORPUS), "--runs", "2", "--depth", "2",
                  "--sequences", "30"])
    assert res.exit_code == 0, res.output


def test_fuzz_rs_small():
    res = invoke(["fuzz-rs", "--seed", "2", "--runs", "3", "--depth", "2",
                  "--sequences", "30", "--fuel", "500"])
    assert res.exit_code == 0, res.output


def test_fuzz_linearize_small():
    res = invoke(["fuzz-linearize", "--seed", "3", "--runs", "5", "--depth", "2",
                  "--sequences", "30"])
    assert res.exit_code in (0, 3), res.output


def test_determinism():
    args = ["fuzz-bcc", "--seed", "9", "--runs", "3", "--depth", "2",
            "--sequences", "20"]
    a = invoke(args).output
    b = invoke(args).output
    assert a == b


@pytest.mark.parametrize("command,checker", [
    ("fuzz-bcc", "check_bcc_specibt"),
    ("fuzz-rs", "check_relative_security"),
])
def test_fuzz_counterexample_counts_the_runs_of_the_cases_before_it(monkeypatch, command,
                                                                    checker):
    # the first case passes in 3 runs, the second finds a counterexample in 2
    verdicts = iter([Verdict("pass", runs=3),
                     Verdict("counterexample", runs=2, directives=[DBranch(True)],
                             trace1=[OBranch(True)], trace2=[OBranch(False)])])
    monkeypatch.setattr(specibt.cli, checker, lambda *args, **kw: next(verdicts))
    res = invoke([command, "--seed", "1", "--runs", "5", "--fuel", "300"])
    assert res.exit_code == 2
    assert res.stderr == ""
    assert json.loads(res.stdout) == {
        "status": "counterexample", "runs": 5, "directives": [{"branch": True}],
        "trace1": [{"branch": True}], "trace2": [{"branch": False}]}


def test_a_campaign_whose_last_draw_gives_its_last_input_prints_its_verdict(monkeypatch):
    # a generated campaign of one run draws at most 50 times; only the 50th
    # draw gives a safe input, so the campaign got all the inputs it asked for
    draws, gen_safe_input = itertools.count(1), specibt.cli.gen_safe_input

    def last_draw_only(*args, **kw):
        s = gen_safe_input(*args, **kw)
        return s if next(draws) == 50 else None

    monkeypatch.setattr(specibt.cli, "gen_safe_input", last_draw_only)
    res = invoke(["fuzz-bcc", "--seed", "0", "--runs", "1"])
    assert next(draws) == 51
    assert res.stderr == ""
    assert res.exit_code == 0
    assert json.loads(res.stdout)["status"] == "pass"


def test_the_command_line_runs_under_python_OO(state1):
    # -OO strips docstrings, from which the parser builds the commands' help
    src = str(pathlib.Path(specibt.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for args in (["--version"], ["check", "bcc", LISTING1, state1],
                 ["fuzz-rs", "--seed", "1", "--runs", "3", "--depth", "2"], ["bogus"]):
        out = subprocess.run([sys.executable, "-OO", "-m", "specibt.cli", *args],
                             capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
        res = invoke(args)
        assert (out.returncode, out.stdout) == (res.exit_code, res.stdout), out.stderr
        assert "Traceback" not in out.stderr


@pytest.mark.parametrize("args", [["--help"]] + [[c, "--help"] for c in (
    "run", "harden", "linearize", "check", "attack",
    "fuzz-bcc", "fuzz-safety", "fuzz-rs", "fuzz-linearize")])
def test_help_under_python_OO_is_the_help_without_it(monkeypatch, args):
    """The help text lives in the parser's strings, not in docstrings, so
    -OO keeps every subcommand's help line and description."""
    monkeypatch.setenv("COLUMNS", "80")
    src = str(pathlib.Path(specibt.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-OO", "-m", "specibt.cli", *args],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    res = invoke(args)
    assert (out.returncode, out.stdout, out.stderr) == (res.exit_code, res.stdout, res.stderr)
    if args == ["--help"]:  # each subcommand's help line is on the listing
        assert "Search for a directive sequence" in out.stdout
        assert "Execute PROGRAM from STATE" in out.stdout
