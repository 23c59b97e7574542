"""The hardening pass: load/store/branch/call masking against a reserved
misspeculation-flag register, branch edge-splitting, call-target
registration in a reserved callee register, and entry-block preludes that
mark valid call targets and detect mispredicted call targets precisely.

`PassConfig` exposes the individual protections so that weakened variants
(masking-only baselines, deliberately broken mutants for checker
sensitivity tests) share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import (
    Asgn,
    BinOp,
    Block,
    Branch,
    Call,
    Cond,
    Const,
    CTARGET,
    CTarget,
    Expr,
    FpConst,
    Inst,
    Jump,
    Load,
    Program,
    Reg,
    Store,
    used_registers,
    wf_program,
)


@dataclass(frozen=True)
class ReservedRegs:
    msf: str = "msf"
    callee: str = "callee"


@dataclass(frozen=True)
class PassConfig:
    edge_split: bool = True  # taken-edge flag update via a fresh block
    insert_ctarget: bool = True  # mark entry blocks as valid call targets
    entry_check: bool = True  # compare callee register in entry preludes
    set_callee: bool = True  # record intended target before each call
    mask_call_target: bool = True


FULL = PassConfig()
# Masking-only baseline: flag tracking and masking, but no call-target
# registration and no entry-block marking/checking.
MASK_ONLY = PassConfig(insert_ctarget=False, entry_check=False, set_callee=False)
# Deliberately weakened variants, used to validate checker sensitivity.
NO_EDGE_SPLIT = PassConfig(edge_split=False)
NO_ENTRY_CHECK = PassConfig(entry_check=False)
NO_CALL_MASK = PassConfig(mask_call_target=False)


class HardenError(ValueError):
    """A precondition of the hardening pass was violated."""


@dataclass(frozen=True)
class TransformResult:
    hardened: Program
    added_block_count: int
    # Original labels keep their indices; fresh edge-split labels start at
    # the original block count and are assigned in instruction order.


def _mask(msf: str, e: Expr) -> Cond:
    return Cond(Reg(msf), Const(0), e)


def tr_inst(
    i: Inst,
    fresh: int,
    r: ReservedRegs = ReservedRegs(),
    cfg: PassConfig = FULL,
) -> tuple[list[Inst], list[Block], int]:
    """Translate one instruction; returns emitted code, added blocks and the
    next free label."""
    msf = Reg(r.msf)
    if isinstance(i, CTarget):
        raise HardenError("source program must not contain ctarget")
    if isinstance(i, Load):
        return [Load(i.reg, _mask(r.msf, i.addr))], [], fresh
    if isinstance(i, Store):
        return [Store(_mask(r.msf, i.addr), i.value)], [], fresh
    if isinstance(i, Branch):
        cond = _mask(r.msf, i.cond)
        fallthrough_update = Asgn(r.msf, Cond(cond, Const(1), msf))
        if not cfg.edge_split:
            return [Branch(cond, i.target), fallthrough_update], [], fresh
        taken_update = Asgn(r.msf, Cond(BinOp("=", cond, Const(0)), Const(1), msf))
        split = Block((taken_update, Jump(i.target)), is_entry=False)
        return [Branch(cond, fresh), fallthrough_update], [split], fresh + 1
    if isinstance(i, Call):
        target = Cond(msf, FpConst(0), i.target) if cfg.mask_call_target else i.target
        insts: list[Inst] = []
        if cfg.set_callee:
            insts.append(Asgn(r.callee, target))
        insts.append(Call(target))
        return insts, [], fresh
    return [i], [], fresh


def entry_prelude(
    label: int, r: ReservedRegs = ReservedRegs(), cfg: PassConfig = FULL
) -> list[Inst]:
    pre: list[Inst] = []
    if cfg.insert_ctarget:
        pre.append(CTARGET)
    if cfg.entry_check:
        check = BinOp("=", Reg(r.callee), FpConst(label))
        pre.append(Asgn(r.msf, Cond(check, Reg(r.msf), Const(1))))
    return pre


def tr_block(
    label: int,
    b: Block,
    fresh: int,
    r: ReservedRegs = ReservedRegs(),
    cfg: PassConfig = FULL,
) -> tuple[Block, list[Block], int]:
    body: list[Inst] = []
    added: list[Block] = []
    for i in b.insts:
        insts, blocks, fresh = tr_inst(i, fresh, r, cfg)
        body.extend(insts)
        added.extend(blocks)
    if b.is_entry:
        body = entry_prelude(label, r, cfg) + body
    return Block(tuple(body), is_entry=b.is_entry), added, fresh


def harden(
    p: Program,
    r: ReservedRegs = ReservedRegs(),
    cfg: PassConfig = FULL,
) -> TransformResult:
    """Harden a well-formed source program. Fresh edge-split blocks are
    appended after the originals, one per branch, in instruction order."""
    issues = wf_program(p, mode="source")
    if issues:
        raise HardenError("source program is not well-formed: " + "; ".join(issues))
    used = used_registers(p)
    clashes = sorted({r.msf, r.callee} & used)
    if clashes:
        raise HardenError(
            "source program uses reserved registers: " + ", ".join(clashes)
        )
    fresh = len(p.blocks)
    out: list[Block] = []
    added: list[Block] = []
    for label, b in enumerate(p.blocks):
        nb, blocks, fresh = tr_block(label, b, fresh, r, cfg)
        out.append(nb)
        added.extend(blocks)
    return TransformResult(
        hardened=Program(tuple(out) + tuple(added)),
        added_block_count=len(added),
    )
