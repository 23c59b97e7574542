"""Structural and behavioral tests for the hardening pass."""

import hashlib
import json
import pathlib
import random

import pytest

from specibt.cli import VARIANTS
from specibt.gen import GenConfig, gen_program, gen_safe_input
from specibt.hardening import (
    MASK_ONLY,
    NO_CALL_MASK,
    NO_EDGE_SPLIT,
    NO_ENTRY_CHECK,
    HardenError,
    ReservedRegs,
    harden,
)
from specibt.interp import State, run_seq
from specibt.ir import (
    FP,
    Asgn,
    Block,
    Branch,
    Call,
    Cond,
    CTarget,
    CTARGET,
    FpConst,
    Jump,
    Program,
    Reg,
    RET,
    wf_program,
)
from specibt.textio import parse_program, print_program


def count_branches(p):
    return sum(
        isinstance(i, Branch) for b in p.blocks for i in b.insts
    )


def test_golden_hardened_listing(listing1, listing1_hardened_text):
    assert print_program(harden(listing1)) == listing1_hardened_text


def test_block_count_identity():
    rng = random.Random(5)
    for _ in range(100):
        p = gen_program(rng, GenConfig())
        hp = harden(p)
        assert len(hp.blocks) == len(p.blocks) + count_branches(p)
        assert wf_program(hp, mode="hardened") == []


def test_entry_prelude_structure(listing1):
    hp = harden(listing1)
    for l, b in enumerate(hp.blocks):
        if b.is_entry:
            assert isinstance(b.insts[0], CTarget)
            upd = b.insts[1]
            assert isinstance(upd, Asgn) and upd.reg == "msf"
            assert upd.expr.cond.rhs == FpConst(l)  # checks against own label
        else:
            assert not any(isinstance(i, CTarget) for i in b.insts)


def test_edge_split_block_shape():
    p = parse_program("entry a:\n  branch x tgt\n  ret\nblock tgt:\n  ret\n")
    hp = harden(p)
    assert len(hp.blocks) == 3
    split = hp.blocks[2]
    assert not split.is_entry
    upd, jmp = split.insts
    assert isinstance(upd, Asgn) and upd.reg == "msf"
    assert isinstance(jmp, Jump) and jmp.target == 1
    # the original branch now targets the split block
    br = next(i for i in hp.blocks[0].insts if isinstance(i, Branch))
    assert br.target == 2


def test_call_sites_register_callee(listing1):
    hp = harden(listing1)
    call_block = hp.blocks[2].insts
    asgn, call = call_block[0], call_block[1]
    assert isinstance(asgn, Asgn) and asgn.reg == "callee"
    assert isinstance(call, Call)
    assert asgn.expr == call.target  # same masked expression
    assert isinstance(call.target, Cond) and call.target.cond == Reg("msf")
    assert call.target.then == FpConst(0)


def test_variants_drop_their_protection(listing1):
    mask_only = harden(listing1, cfg=MASK_ONLY)
    assert not any(
        isinstance(i, CTarget) for b in mask_only.blocks for i in b.insts
    )
    assert "callee" not in print_program(mask_only)

    no_split = harden(listing1, cfg=NO_EDGE_SPLIT)
    assert len(no_split.blocks) == len(listing1.blocks)

    no_check = harden(listing1, cfg=NO_ENTRY_CHECK)
    for b in no_check.blocks:
        if b.is_entry:
            assert isinstance(b.insts[0], CTarget)
            assert not (isinstance(b.insts[1], Asgn) and b.insts[1].reg == "msf")

    no_mask = harden(listing1, cfg=NO_CALL_MASK)
    call = next(
        i for b in no_mask.blocks for i in b.insts if isinstance(i, Call)
    )
    assert call.target == Reg("fun")  # unmasked


def test_rejects_reserved_register_clash():
    p = parse_program("entry a:\n  msf <- 1\n  ret\n")
    with pytest.raises(HardenError, match="msf"):
        harden(p)
    # a different reserved name sidesteps the clash
    hp = harden(p, ReservedRegs("flag", "target"))
    assert wf_program(hp, mode="hardened") == []


def test_rejects_ill_formed_and_prehardened_sources():
    with pytest.raises(HardenError):
        harden(Program((Block((CTARGET, RET), is_entry=True),)))
    with pytest.raises(HardenError):
        harden(Program(()))


def test_sequential_transparency():
    # Hardening must not change sequential observable behavior.
    rng = random.Random(13)
    checked = 0
    while checked < 150:
        p = gen_program(rng, GenConfig())
        s = gen_safe_input(rng, p, fuel=2000)
        if s is None:
            continue
        checked += 1
        hp = harden(p)
        r_src = run_seq(p, s, 5000)
        regs = dict(s.regs)
        regs["msf"], regs["callee"] = 0, FP(0)
        r_tgt = run_seq(hp, State(s.pc, regs, s.mem, s.stk), 10000)
        assert r_tgt.status == r_src.status == "term"
        assert r_tgt.trace == r_src.trace


HARDEN_PINNED = pathlib.Path(__file__).parent / "data" / "harden_outputs.json"


def _harden_digests(seed: int, programs: int) -> dict[str, str]:
    """SHA-256 of the printed hardened programs, one digest per variant
    and reserved-register naming, over `programs` generated programs."""
    rng = random.Random(seed)
    sources = [gen_program(rng) for _ in range(programs)]
    digests = {}
    for name, cfg in sorted(VARIANTS.items()):
        for regs in (ReservedRegs(), ReservedRegs("flag", "target")):
            h = hashlib.sha256()
            for p in sources:
                h.update(print_program(harden(p, regs, cfg)).encode())
            digests[f"{name}/{regs.msf}/{regs.callee}"] = h.hexdigest()
    return digests


def test_hardened_outputs_are_pinned():
    pinned = json.loads(HARDEN_PINNED.read_text())
    assert _harden_digests(pinned["seed"], pinned["programs"]) == pinned["sha256"]
