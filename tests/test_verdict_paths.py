"""Verdicts that the other tests do not reach: the checks of the masking-only
variant, which models CET only where the pass inserted landing pads, `rs` of
every variant at both pipelines, a hardened run that gets stuck, an `rs`
pair whose pc names no block, and a speculative call past the last block."""

import json
import pathlib

import pytest

from conftest import invoke
from specibt.interp import DCallMir, OutOfDirectives, State, step_spec
from specibt.ir import FP, PC
from specibt.textio import parse_program

ROOT = pathlib.Path(__file__).parent.parent
P = str(ROOT / "corpus" / "listing1.mir")
PAIR_DOC = json.loads((ROOT / "corpus" / "listing1_pair.json").read_text())


def _check(tmp_path, prop, program, state_doc, *args):
    """`specibt check PROP` on a program file and a state document: exit
    code and the printed verdict."""
    state = tmp_path / "state.json"
    state.write_text(json.dumps(state_doc))
    res = invoke(["check", prop, program, str(state), *args])
    return res.exit_code, json.loads(res.stdout)


# Each row: the variant, the property, the state document, extra
# arguments, and the verdict's exit code, status, runs and reason. With
# `ct` armed at the start, each masking-only row would print {"status":
# "pass", "runs": 1}: the entry of a masking-only program has no landing
# pad, so every run would fault at its first step.
MASK_ONLY = [
    ("mask-only", "bcc", PAIR_DOC["s1"], (), 2, "counterexample", 11,
     "hardened speculative trace diverges from ideal trace"),
    ("mask-only", "safety", PAIR_DOC["s1"], (), 2, "counterexample", 20623,
     "hardened speculative run is stuck: load address is not a number"),
]
# `check rs` of each variant, which both pipelines give the same exit code,
# status and runs: machine code models CET where the block level does.
RS = {
    "mask-only": (2, "counterexample", 20614),
    "full": (0, "pass", 162),
    "no-edge-split": (2, "counterexample", 62),
    "no-entry-check": (2, "counterexample", 133),
    "no-call-mask": (0, "pass", 162),
}
PIPELINES = {"rs": ("hardened-only", "speculative traces distinguish the inputs"),
             "rs-end-to-end": ("end-to-end", "machine-level traces distinguish the inputs")}
CHECKS = [pytest.param(*row, id=row[1]) for row in MASK_ONLY] + [
    pytest.param(variant, "rs", PAIR_DOC, ("--pipeline", pipeline), code, status, runs,
                 reason if code else None,
                 id=name if variant == "mask-only" else f"{name}-{variant}")
    for variant, (code, status, runs) in RS.items()
    for name, (pipeline, reason) in PIPELINES.items()]


@pytest.mark.parametrize("variant, prop, doc, args, code, status, runs, reason", CHECKS)
def test_mask_only_checks(tmp_path, variant, prop, doc, args, code, status, runs, reason):
    got_code, v = _check(tmp_path, prop, P, doc, "--depth", "6", "--runs", "1000000",
                         "--variant", variant, *args)
    assert (got_code, v["status"], v["runs"], v.get("reason")) == (code, status, runs, reason)


STUCK = """\
entry a:
  branch (x <= 7) b
  ret
block b:
  load y, x
  ret
"""
STUCK_STATE = {"regs": {"x": {"nat": 100}}, "mem": [{"nat": 0}] * 8}


def test_stuck_hardened_run_is_a_counterexample(tmp_path):
    # without its edge split, the mispredicted branch loads unmasked past
    # the end of memory
    program = tmp_path / "stuck.mir"
    program.write_text(STUCK)
    assert _check(tmp_path, "safety", str(program), STUCK_STATE,
                  "--variant", "no-edge-split") == (2, {
        "status": "counterexample", "runs": 1,
        "reason": "hardened speculative run is stuck: load address 100 out of bounds",
        "directives": [{"branch": True}],
        "trace1": [{"branch": False}], "trace2": [{"branch": False}]})
    assert _check(tmp_path, "safety", str(program), STUCK_STATE) == (
        0, {"status": "pass", "runs": 2})


def test_rs_on_a_pc_that_names_no_block_is_unsafe(tmp_path):
    doc = {k: {**s, "pc": {"label": 9, "offset": 0}} if k in ("s1", "s2") else s
           for k, s in PAIR_DOC.items()}
    for pipeline in ("hardened-only", "end-to-end"):
        assert _check(tmp_path, "rs", P, doc, "--pipeline", pipeline) == (3, {
            "status": "inconclusive", "runs": 0, "reason": "sequential run is not safe"})


def test_speculative_call_past_the_last_block():
    # a function pointer from the state may name no block; the prediction
    # point still carries its correct directive
    p = parse_program("entry a:\n  call f\n  ret\n")
    out = step_spec(p, State(PC(0, 0), {"f": FP(9)}, ()))
    assert out == OutOfDirectives(DCallMir(PC(9, 0)))
