"""Expression evaluation and the three block-structured semantics:
sequential, speculative with a CET-style ctarget model, and ideal
(masking enforced in the semantics).

The semantics are layered as in the paper: the speculative semantics is
the sequential one plus attacker directives at branches and calls, and the
ideal semantics is the speculative one plus masking and call-target
validation. One step function, `_step`, implements every rule once and
takes the layers as policy flags; `step_seq`, `step_spec` and `step_ideal`
select them. One run loop, `run`, drives any step function, the machine
semantics' included.

All step functions are pure; states are immutable snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Sequence, Union

from .ir import (
    UV,
    Asgn,
    BinOp,
    Branch,
    Call,
    Cond,
    Const,
    CTarget,
    Expr,
    FP,
    FpConst,
    Jump,
    Load,
    PC,
    Program,
    Reg,
    Ret,
    Skip,
    Store,
    Value,
    fetch,
    is_nat,
)

# --------------------------------------------------------------------------
# Observations and directives


@dataclass(frozen=True, slots=True)
class OLoad:
    addr: int


@dataclass(frozen=True, slots=True)
class OStore:
    addr: int


@dataclass(frozen=True, slots=True)
class OBranch:
    taken: bool


@dataclass(frozen=True, slots=True)
class OCall:
    # Block label in MiniMIR observations, absolute address in machine ones.
    target: int


Obs = Union[OLoad, OStore, OBranch, OCall]


@dataclass(frozen=True, slots=True)
class DBranch:
    taken: bool


@dataclass(frozen=True, slots=True)
class DCallMir:
    target: PC


@dataclass(frozen=True, slots=True)
class DCallMc:
    addr: int


Directive = Union[DBranch, DCallMir, DCallMc]


# --------------------------------------------------------------------------
# States and step outcomes


@dataclass(frozen=True, slots=True)
class State:
    """A block-level state of any of the three semantics. `ct` is the armed
    ctarget check and `ms` the misspeculation flag; `_step` decides which
    of them a semantics reads."""

    pc: PC
    regs: dict[str, Value]
    mem: tuple[Value, ...]
    stk: tuple[PC, ...] = ()
    ct: bool = False
    ms: bool = False


# Each outcome names the run status it ends a run with.


@dataclass(frozen=True, slots=True)
class Next:
    state: State
    obs: Optional[Obs] = None
    status: ClassVar[str] = "next"


@dataclass(frozen=True, slots=True)
class Term:
    status: ClassVar[str] = "term"


@dataclass(frozen=True, slots=True)
class Fault:
    # Ideal call faults carry the call observation of the faulting step.
    obs: Optional[Obs] = None
    status: ClassVar[str] = "fault"


@dataclass(frozen=True, slots=True)
class Stuck:
    reason: str
    status: ClassVar[str] = "stuck"


@dataclass(frozen=True, slots=True)
class OutOfDirectives:
    # A prediction point reached without a directive. `correct` is the
    # directive that follows the program there: the branch outcome or call
    # target the step computed, masked as the semantics masks it.
    correct: Directive
    status: ClassVar[str] = "out-of-directives"


@dataclass(frozen=True, slots=True)
class DirectiveMismatch:
    # Harness-level error: the supplied directive kind has no rule for the
    # fetched instruction. Distinct from undefined behavior (Stuck).
    reason: str
    status: ClassVar[str] = "directive-mismatch"


Outcome = Union[Next, Term, Fault, Stuck, OutOfDirectives, DirectiveMismatch]

TERM = Term()
# The prediction point of a branch, indexed by the outcome the program
# computes; built once, since every spec, ideal and mc run reaches it.
BRANCH_POINTS = (OutOfDirectives(DBranch(False)), OutOfDirectives(DBranch(True)))


# --------------------------------------------------------------------------
# Expression evaluation


def nat_op(op: str, a: int, b: int) -> int:
    """The binary operators on naturals, shared by the block-structured and
    the machine value domains."""
    if op == "+":
        return a + b
    if op == "-":
        # Truncated subtraction: naturals never go below zero.
        return a - b if a >= b else 0
    if op == "*":
        return a * b
    if op == "=":
        return 1 if a == b else 0
    if op == "<=":
        return 1 if a <= b else 0
    if op == "&&":
        return 1 if a != 0 and b != 0 else 0
    if op == "->":
        return 1 if a == 0 or b != 0 else 0
    raise ValueError(f"unknown operator {op!r}")


def _binop(op: str, v1: Value, v2: Value) -> Value:
    if isinstance(v1, FP) and isinstance(v2, FP) and op == "=":
        return 1 if v1.label == v2.label else 0
    if is_nat(v1) and is_nat(v2):
        return nat_op(op, v1, v2)
    return UV


def eval_expr(e: Expr, regs: dict[str, Value]) -> Value:
    """Total evaluation; never fails, unresolvable results are UV."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, FpConst):
        return FP(e.label)
    if isinstance(e, Reg):
        return regs.get(e.name, UV)
    if isinstance(e, BinOp):
        return _binop(e.op, eval_expr(e.lhs, regs), eval_expr(e.rhs, regs))
    if isinstance(e, Cond):
        c = eval_expr(e.cond, regs)
        if not is_nat(c):
            return UV
        return eval_expr(e.then if c != 0 else e.els, regs)
    raise TypeError(f"not an expression: {e!r}")


def with_reg(regs: dict[str, Value], name: str, v: Value) -> dict[str, Value]:
    out = dict(regs)
    out[name] = v
    return out


def _nat_addr(v: Value, mem: tuple[Value, ...], what: str) -> Union[int, Stuck]:
    if not is_nat(v):
        return Stuck(f"{what} address is not a number")
    if not 0 <= v < len(mem):
        return Stuck(f"{what} address {v} out of bounds")
    return v


# --------------------------------------------------------------------------
# The block-structured semantics


def _step(
    p: Program,
    s: State,
    d: Optional[Directive],
    spec: bool,
    ideal: bool,
    cet: bool,
) -> Outcome:
    """One step under the semantics the policy selects. `spec` makes
    branches and calls follow the directive `d` and track misspeculation;
    `ideal` adds masking (under misspeculation, branch conditions read 0,
    addresses 0 and call targets &0) and faults calls whose directive is not
    a function entry; `cet` makes calls arm the ctarget check and faults
    any other instruction while it is armed. Every state carries both
    flags, but only the speculative semantics reads `ct`, and the
    sequential one reads neither; a flag a semantics does not read is
    clear in every successor.
    """
    inst = fetch(p, s.pc)
    if inst is None:
        return Stuck("pc out of range")
    pc, regs, mem, stk = s.pc, s.regs, s.mem, s.stk
    ms = spec and s.ms
    ct = spec and not ideal and s.ct
    if cet and ct and not isinstance(inst, CTarget):
        return Fault()
    masked = ideal and ms
    if isinstance(inst, CTarget):
        return Next(State(pc.next(), regs, mem, stk, False, ms))
    if isinstance(inst, Skip):
        return Next(State(pc.next(), regs, mem, stk, ct, ms))
    if isinstance(inst, Asgn):
        regs = with_reg(regs, inst.reg, eval_expr(inst.expr, regs))
        return Next(State(pc.next(), regs, mem, stk, ct, ms))
    if isinstance(inst, Branch):
        v = 0 if masked else eval_expr(inst.cond, regs)
        if not is_nat(v):
            return Stuck("branch condition is not a number")
        b = v != 0
        taken = b
        if spec:
            if d is None:
                return BRANCH_POINTS[b]
            if not isinstance(d, DBranch):
                return DirectiveMismatch("branch instruction needs a branch directive")
            taken = d.taken
            ms = ms or b != taken
        pc2 = PC(inst.target, 0) if taken else pc.next()
        return Next(State(pc2, regs, mem, stk, ct, ms), OBranch(b))
    if isinstance(inst, Jump):
        return Next(State(PC(inst.target, 0), regs, mem, stk, ct, ms))
    if isinstance(inst, Load):
        a = _nat_addr(0 if masked else eval_expr(inst.addr, regs), mem, "load")
        if isinstance(a, Stuck):
            return a
        regs = with_reg(regs, inst.reg, mem[a])
        return Next(State(pc.next(), regs, mem, stk, ct, ms), OLoad(a))
    if isinstance(inst, Store):
        a = _nat_addr(0 if masked else eval_expr(inst.addr, regs), mem, "store")
        if isinstance(a, Stuck):
            return a
        mem = mem[:a] + (eval_expr(inst.value, regs),) + mem[a + 1 :]
        return Next(State(pc.next(), regs, mem, stk, ct, ms), OStore(a))
    if isinstance(inst, Call):
        v = FP(0) if masked else eval_expr(inst.target, regs)
        if not isinstance(v, FP):
            return Stuck("call target is not a function pointer")
        if spec:
            if d is None:
                return OutOfDirectives(DCallMir(PC(v.label, 0)))
            if not isinstance(d, DCallMir):
                return DirectiveMismatch("call instruction needs a call directive")
            pc2 = d.target
            if ideal and not (
                pc2.offset == 0
                and 0 <= pc2.label < len(p.blocks)
                and len(p.blocks[pc2.label].insts) > 0
                and p.blocks[pc2.label].is_entry
            ):
                return Fault(OCall(v.label))
            ms = ms or pc2 != PC(v.label, 0)
            ct = cet
        else:
            if not (0 <= v.label < len(p.blocks) and p.blocks[v.label].is_entry):
                return Stuck(f"call target &{v.label} is not a function entry")
            pc2 = PC(v.label, 0)
        stk = (pc.next(),) + stk
        return Next(State(pc2, regs, mem, stk, ct, ms), OCall(v.label))
    if isinstance(inst, Ret):
        if not stk:
            return TERM
        return Next(State(stk[0], regs, mem, stk[1:], ct, ms))
    raise TypeError(f"not an instruction: {inst!r}")


def step_seq(p: Program, s: State) -> Outcome:
    return _step(p, s, None, False, False, False)


def step_spec(
    p: Program,
    s: State,
    d: Optional[Directive] = None,
    cet: bool = True,
) -> Outcome:
    """One speculative step. A directive is consumed only at branch and call
    instructions. With `cet` disabled, calls do not arm the ctarget check,
    modeling hardware without indirect-branch tracking.
    """
    return _step(p, s, d, True, False, cet)


def step_ideal(p: Program, s: State, d: Optional[Directive] = None) -> Outcome:
    return _step(p, s, d, True, True, False)


# --------------------------------------------------------------------------
# Bounded multi-step execution


@dataclass
class RunResult:
    trace: list[Obs]
    # One of: term, fault, stuck, out-of-directives, directive-mismatch, fuel
    status: str
    reason: Optional[str] = None
    state: Optional[State] = None


def result(trace: list[Obs], out: Optional[Outcome], s) -> RunResult:
    """The result of a run that stopped in state `s` with the terminal
    outcome `out` or, when `out` is None, out of fuel. An outcome that
    carries an observation (an ideal call fault, a lockstep divergence) adds
    it to the trace."""
    obs = getattr(out, "obs", None)
    if obs is not None:
        trace.append(obs)
    status = "fuel" if out is None else out.status
    return RunResult(trace, status, getattr(out, "reason", None), s)


Step = Callable[[State, Optional[Directive]], Outcome]


def run(step: Step, s, directives: Sequence[Directive], fuel: int) -> RunResult:
    """At most `fuel` steps from `s`, supplying `directives` in order at the
    prediction points, where `step(s, None)` reports out-of-directives."""
    trace: list[Obs] = []
    used = 0
    for _ in range(fuel):
        out = step(s, None)
        if isinstance(out, OutOfDirectives):
            if used >= len(directives):
                return result(trace, out, s)
            out = step(s, directives[used])
            used += 1
        if isinstance(out, Next):
            if out.obs is not None:
                trace.append(out.obs)
            s = out.state
            continue
        return result(trace, out, s)
    return result(trace, None, s)


def run_seq(p: Program, s: State, fuel: int) -> RunResult:
    return run(lambda s, d: step_seq(p, s), s, (), fuel)


def run_spec(
    p: Program,
    s: State,
    directives: Sequence[Directive],
    fuel: int,
    cet: bool = True,
) -> RunResult:
    return run(lambda s, d: step_spec(p, s, d, cet), s, directives, fuel)


def run_ideal(
    p: Program, s: State, directives: Sequence[Directive], fuel: int
) -> RunResult:
    return run(lambda s, d: step_ideal(p, s, d), s, directives, fuel)


def wf_directives_mir(p: Program, directives: Sequence[Directive]) -> bool:
    """Call directives use valid labels and in-range offsets; no machine-level
    call directives appear."""
    for d in directives:
        if isinstance(d, DCallMc):
            return False
        if isinstance(d, DCallMir):
            t = d.target
            if not 0 <= t.label < len(p.blocks):
                return False
            if not 0 <= t.offset < len(p.blocks[t.label].insts):
                return False
    return True
