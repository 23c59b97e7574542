"""The hardening pass: load/store/branch/call masking against a reserved
misspeculation-flag register, branch edge-splitting, call-target
registration in a reserved callee register, and entry-block preludes that
mark valid call targets and detect mispredicted call targets precisely.

`PassConfig` exposes the individual protections so that weakened variants
(masking-only baselines, deliberately broken mutants for checker
sensitivity tests) share one code path.
"""

from __future__ import annotations

from .ir import (
    Asgn,
    BinOp,
    Block,
    Branch,
    Call,
    Cond,
    Const,
    CTARGET,
    FpConst,
    Inst,
    Jump,
    Load,
    Program,
    Record,
    Reg,
    Store,
    used_registers,
    wf_program,
)


class ReservedRegs(Record):
    msf: str = "msf"
    callee: str = "callee"


class PassConfig(Record):
    edge_split: bool = True  # taken-edge flag update via a fresh block
    insert_ctarget: bool = True  # mark entry blocks as call targets, set callee at calls
    entry_check: bool = True  # compare callee register in entry preludes
    mask_call_target: bool = True


FULL = PassConfig()
# Masking-only baseline: flag tracking and masking, but no call-target
# registration and no entry-block marking/checking.
MASK_ONLY = PassConfig(insert_ctarget=False, entry_check=False)
# Deliberately weakened variants, used to validate checker sensitivity.
NO_EDGE_SPLIT = PassConfig(edge_split=False)
NO_ENTRY_CHECK = PassConfig(entry_check=False)
NO_CALL_MASK = PassConfig(mask_call_target=False)


class HardenError(ValueError):
    """A precondition of the hardening pass was violated."""


def harden(
    p: Program,
    r: ReservedRegs = ReservedRegs(),
    cfg: PassConfig = FULL,
) -> Program:
    """Harden a well-formed source program. Original labels keep their
    indices; fresh edge-split blocks are appended after the originals, one
    per branch, in instruction order."""
    issues = wf_program(p, mode="source")
    if issues:
        raise HardenError("source program is not well-formed: " + "; ".join(issues))
    used = used_registers(p)
    clashes = sorted({r.msf, r.callee} & used)
    if clashes:
        raise HardenError(
            "source program uses reserved registers: " + ", ".join(clashes)
        )
    msf = Reg(r.msf)
    out: list[Block] = []
    added: list[Block] = []
    for label, b in enumerate(p.blocks):
        body: list[Inst] = []
        if b.is_entry and cfg.insert_ctarget:
            body.append(CTARGET)
        if b.is_entry and cfg.entry_check:
            check = BinOp("=", Reg(r.callee), FpConst(label))
            body.append(Asgn(r.msf, Cond(check, msf, Const(1))))
        for i in b.insts:
            if isinstance(i, Load):
                body.append(Load(i.reg, Cond(msf, Const(0), i.addr)))
            elif isinstance(i, Store):
                body.append(Store(Cond(msf, Const(0), i.addr), i.value))
            elif isinstance(i, Branch):
                cond = Cond(msf, Const(0), i.cond)
                if cfg.edge_split:
                    taken = Asgn(r.msf, Cond(BinOp("=", cond, Const(0)), Const(1), msf))
                    body.append(Branch(cond, len(p.blocks) + len(added)))
                    added.append(Block((taken, Jump(i.target)), False))
                else:
                    body.append(Branch(cond, i.target))
                body.append(Asgn(r.msf, Cond(cond, Const(1), msf)))
            elif isinstance(i, Call):
                target = (Cond(msf, FpConst(0), i.target)
                          if cfg.mask_call_target else i.target)
                if cfg.insert_ctarget:
                    body.append(Asgn(r.callee, target))
                body.append(Call(target))
            else:
                body.append(i)
        out.append(Block(tuple(body), b.is_entry))
    return Program(tuple(out) + tuple(added))
