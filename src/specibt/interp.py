"""Expression evaluation and the three block-structured semantics:
sequential, speculative with a CET-style ctarget model, and ideal
(masking enforced in the semantics).

The semantics are layered as in the paper: the speculative semantics is
the sequential one plus attacker directives at branches and calls, and the
ideal semantics is the speculative one plus masking and call-target
validation. Every rule is implemented once and takes the layers as policy
flags; `step_seq`, `step_spec` and `step_ideal` select them. The machine
semantics is the speculative one, with cet on or off as `step_spec` takes
it, over code addresses, where an unset register reads 0: `compile_rule`
compiles every instruction, and `_compile_expr` every expression, for both
levels. A level supplies what a call target value names (`_calls`), and a
load or store past the end of memory is stuck at both levels, with a
reason that differs in one phrase.
A run compiles each instruction it reaches to a closure once per program
(Feeley and Lapalme, "Using closures for code generation", 1987). A closure
builds its successor `State`, its `Next` and its observation by
`tuple.__new__` (`new`), one C call each, since a step builds them every
time: the classes' own constructors are Python calls, which check the
number of fields and fill the defaults. One run
loop, `advance`, drives any step function, the machine semantics' included,
for `run`, for the walk of the directive tree, for the lockstep of a program
and its machine code (`Lockstep` states) and for the generator's
termination test. A run that provably repeats (`repeats`), after any step
and with or without directives in its period, takes its whole periods up
to the fuel at once, with the results of the run stepped throughout; the
termination test stops there.

All step functions are pure; states are immutable snapshots.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Collection, Optional, Sequence, Union

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
    Inst,
    Jump,
    Load,
    PC,
    Program,
    Record,
    Reg,
    Ret,
    Skip,
    Store,
    Value,
)

# --------------------------------------------------------------------------
# Observations and directives


class OLoad(Record):
    addr: int


class OStore(Record):
    addr: int


class OBranch(Record):
    taken: bool


class OCall(Record):
    # Block label in MiniMIR observations, absolute address in machine ones.
    target: int


Obs = Union[OLoad, OStore, OBranch, OCall]


class DBranch(Record):
    taken: bool


class DCallMir(Record):
    target: PC


class DCallMc(Record):
    addr: int


Directive = Union[DBranch, DCallMir, DCallMc]


# --------------------------------------------------------------------------
# States and step outcomes


class State(Record):
    """A state of any of the three block-level semantics, or of the machine
    semantics, where the pc and the return stack hold code addresses and
    values are naturals. `ct` is the armed ctarget check and `ms` the
    misspeculation flag; `_step` decides which of them a block-level
    semantics reads. A rule builds one at every step, with all six fields,
    by `new`, a C call; the constructor, which checks the fields and fills
    the defaults, is for states built once per run or input."""

    pc: Union[PC, int]
    regs: dict[str, Value]
    mem: tuple[Value, ...]
    stk: tuple[Union[PC, int], ...] = ()
    ct: bool = False
    ms: bool = False


class Lockstep(Record):
    """A run state of a program and its machine code in lockstep: the state
    of each level. The levels relate (`relate.state_rel`) at every state a
    lockstep run reaches: at its start, which `concretize_state` builds
    from the source's, and after each step, which checks it
    (`checks._lockstep_driver`) or ends the run. Related states have stacks
    of equal length, so a checkpoint reads both levels' pcs as `pc` and
    either level's stack as `stk`: the source's."""

    source: State
    machine: State

    @property
    def pc(self) -> tuple:
        return self.source.pc, self.machine.pc

    @property
    def stk(self) -> tuple:
        return self.source.stk


# Each outcome names the run status it ends a run with.


class Next(Record):
    """A step that goes on to `state`, observing `obs`; a rule builds it by `new`."""

    state: Union[State, Lockstep]
    obs: Optional[Obs] = None
    status = "next"


class Term(Record):
    status = "term"


class Fault(Record):
    # Ideal call faults carry the call observation of the faulting step.
    obs: Optional[Obs] = None
    status = "fault"


class Stuck(Record):
    reason: str
    status = "stuck"


class OutOfDirectives(Record):
    # A prediction point reached without a directive. `correct` is the
    # directive that follows the program there: the branch outcome or call
    # target the step computed, masked as the semantics masks it.
    correct: Directive
    status = "out-of-directives"


class DirectiveMismatch(Record):
    # Harness-level error: the supplied directive kind has no rule for the
    # fetched instruction. Distinct from undefined behavior (Stuck).
    reason: str
    status = "directive-mismatch"


Outcome = Union[Next, Term, Fault, Stuck, OutOfDirectives, DirectiveMismatch]

# `new(cls, fields)` builds a record of a rule's outcome (see the module
# docstring); a step must give every field.
new = tuple.__new__

TERM, FAULT, NO_PC = Term(), Fault(), Stuck("pc out of range")
# The prediction point and the observation of a branch, indexed by the
# outcome the program computes; built once, since every run reaches them.
BRANCH_POINTS = (OutOfDirectives(DBranch(False)), OutOfDirectives(DBranch(True)))
OBRANCH = (OBranch(False), OBranch(True))


# --------------------------------------------------------------------------
# Expressions, compiled to closures over the registers

# The binary operators on naturals, shared by the block-structured and the
# machine value domains.
NAT_OPS: dict[str, Callable[[int, int], int]] = {
    "+": operator.add,
    "-": lambda a, b: a - b if a >= b else 0,  # naturals never go below zero
    "*": operator.mul,
    "=": lambda a, b: 1 if a == b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    "&&": lambda a, b: 1 if a != 0 and b != 0 else 0,
    "->": lambda a, b: 1 if a == 0 or b != 0 else 0,
}


def nat_op(op: str) -> Callable[[int, int], int]:
    """`NAT_OPS[op]`; an unknown operator raises ValueError when it is
    applied, not when its expression is compiled."""
    def unknown(a: int, b: int) -> int:
        raise ValueError(f"unknown operator {op!r}")
    return NAT_OPS.get(op, unknown)


def _compile_expr(e: Expr, unset: Value) -> Callable[[dict[str, Value]], Value]:
    """`e` as a closure from registers to its value, where an unset register
    reads `unset`: UV at block level, 0 in machine code. Evaluation is
    total: unresolvable results are UV."""
    if isinstance(e, (Const, FpConst)):
        v = e.value if isinstance(e, Const) else FP(e.label)
        return lambda regs: v
    if isinstance(e, Reg):
        name = e.name
        return lambda regs: regs.get(name, unset)
    if isinstance(e, BinOp):
        f, lhs, rhs = nat_op(e.op), _compile_expr(e.lhs, unset), _compile_expr(e.rhs, unset)
        eq = e.op == "="
        def binop(regs):
            v1, v2 = lhs(regs), rhs(regs)
            if isinstance(v1, int) and isinstance(v2, int):
                return f(v1, v2)
            if eq and isinstance(v1, FP) and isinstance(v2, FP):
                return 1 if v1.label == v2.label else 0
            return UV
        return binop
    if isinstance(e, Cond):
        c, then, els = (_compile_expr(x, unset) for x in (e.cond, e.then, e.els))
        def cond(regs):
            v = c(regs)
            if not isinstance(v, int):
                return UV
            return then(regs) if v != 0 else els(regs)
        return cond
    raise TypeError(f"not an expression: {e!r}")


def with_reg(regs: dict[str, Value], name: str, v: Value) -> dict[str, Value]:
    out = dict(regs)
    out[name] = v
    return out


def _bad_addr(v: Value, what: str, outside: str) -> Stuck:
    """The stuck outcome of a `what` access at `v`, where `outside` names an
    address past the end of memory."""
    if not isinstance(v, int):
        return Stuck(f"{what} address is not a number")
    return Stuck(f"{what} address {v} {outside}")


# --------------------------------------------------------------------------
# The block-structured semantics, compiled to closures

# A semantics is a policy (spec, ideal, cet). `spec` makes branches and
# calls follow the directive `d` and track misspeculation; `ideal` adds
# masking (under misspeculation, branch conditions read 0, addresses 0 and
# call targets &0) and faults calls whose directive is not a function entry;
# `cet` makes calls arm the ctarget check and faults any other instruction
# while it is armed. Every state carries both flags, but only the
# speculative semantics reads `ct`, and the sequential one reads neither; a
# flag a semantics does not read is clear in every successor.
Sem = tuple[bool, bool, bool]
SEQ, SPEC = (False, False, False), (True, False, False)
SPEC_CET, IDEAL = (True, False, True), (True, True, False)

# The rule of an instruction: (state at its pc, directive or None) -> outcome
Rule = Callable[[State, Optional[Directive]], Outcome]


def compile_rule(inst: Inst, nxt: Union[PC, int], to: Optional[Union[PC, int]],
                 sem: Sem, unset: Value, outside: str,
                 callee: Callable[[Value], Any], entries: Collection) -> Rule:
    """The rule of `inst` under `sem`, at either level: `nxt` is its
    fall-through pc, `to` its jump or branch target pc, an unset register
    reads `unset`, and `outside` names, in a stuck reason, a load or store
    address past the end of memory. A call asks `callee` what its target
    value names: the call's prediction point and `OCall` observation, or the
    `Stuck` outcome of a call to it. `entries` are the pcs of the function
    entries, which a sequential or ideal call must take: those semantics,
    whose masked call target is &0, exist at block level only."""
    spec, ideal, cet = sem
    rct = spec and not ideal  # the semantics reads `ct`
    if isinstance(inst, (Skip, Jump, CTarget)):
        to = to if isinstance(inst, Jump) else nxt
        keep = rct and not isinstance(inst, CTarget)  # a ctarget clears `ct`
        def rule(s, d):
            return new(Next, (new(State, (to, s.regs, s.mem, s.stk, keep and s.ct,
                                          spec and s.ms)), None))
    elif isinstance(inst, Asgn):
        reg, expr = inst.reg, _compile_expr(inst.expr, unset)
        def rule(s, d):
            regs = with_reg(s.regs, reg, expr(s.regs))
            return new(Next, (new(State, (nxt, regs, s.mem, s.stk, rct and s.ct,
                                          spec and s.ms)), None))
    elif isinstance(inst, Branch):
        cond = _compile_expr(inst.cond, unset)
        def rule(s, d):
            ms = spec and s.ms
            v = 0 if ideal and ms else cond(s.regs)
            if not isinstance(v, int):
                return Stuck("branch condition is not a number")
            b = taken = v != 0
            if spec:
                if d is None:
                    return BRANCH_POINTS[b]
                if not isinstance(d, DBranch):
                    return DirectiveMismatch("branch instruction needs a branch directive")
                taken = d.taken
                ms = ms or b != taken
            pc2 = to if taken else nxt
            return new(Next, (new(State, (pc2, s.regs, s.mem, s.stk, rct and s.ct, ms)),
                              OBRANCH[b]))
    elif isinstance(inst, Load):
        reg, addr = inst.reg, _compile_expr(inst.addr, unset)
        def rule(s, d):
            ms, mem = spec and s.ms, s.mem
            a = 0 if ideal and ms else addr(s.regs)
            if not (isinstance(a, int) and 0 <= a < len(mem)):
                return _bad_addr(a, "load", outside)
            regs = with_reg(s.regs, reg, mem[a])
            return new(Next, (new(State, (nxt, regs, mem, s.stk, rct and s.ct, ms)),
                              new(OLoad, (a,))))
    elif isinstance(inst, Store):
        addr, value = _compile_expr(inst.addr, unset), _compile_expr(inst.value, unset)
        def rule(s, d):
            ms, regs, mem = spec and s.ms, s.regs, s.mem
            a = 0 if ideal and ms else addr(regs)
            if not (isinstance(a, int) and 0 <= a < len(mem)):
                return _bad_addr(a, "store", outside)
            mem = mem[:a] + (value(regs),) + mem[a + 1 :]
            return new(Next, (new(State, (nxt, regs, mem, s.stk, rct and s.ct, ms)),
                              new(OStore, (a,))))
    elif isinstance(inst, Call):
        target, fp0 = _compile_expr(inst.target, unset), FP(0)
        def rule(s, d):
            ms, ct = spec and s.ms, rct and s.ct
            named = callee(fp0 if ideal and ms else target(s.regs))
            if type(named) is Stuck:
                return named
            point, obs = named
            pc2 = point.correct[0]
            if spec:
                if d is None:
                    return point
                if type(d) is not type(point.correct):
                    return DirectiveMismatch("call instruction needs a call directive")
                if ideal and d[0] not in entries:
                    return Fault(obs)
                ms, ct, pc2 = ms or d[0] != pc2, cet, d[0]
            elif pc2 not in entries:
                return Stuck(f"call target &{obs[0]} is not a function entry")
            return new(Next, (new(State, (pc2, s.regs, s.mem, (nxt,) + s.stk, ct, ms)), obs))
    elif isinstance(inst, Ret):
        def rule(s, d):
            stk = s.stk
            if not stk:
                return TERM
            ct, ms = rct and s.ct, spec and s.ms
            return new(Next, (new(State, (stk[0], s.regs, s.mem, stk[1:], ct, ms)), None))
    else:
        raise TypeError(f"not an instruction: {inst!r}")
    return rule


def _calls(p: Program) -> tuple[Callable[[Value], Any], set[PC]]:
    """What a call target value names at block level, and the function
    entries: a function pointer, even past the last block, names the
    prediction point and observation of a call to its label, built the first
    time a call reaches it; any other value is stuck."""
    named: dict[int, tuple[OutOfDirectives, OCall]] = {}
    def callee(v):
        if not isinstance(v, FP):
            return Stuck("call target is not a function pointer")
        t = v.label
        return named.get(t) or named.setdefault(
            t, (OutOfDirectives(DCallMir(PC(t, 0))), OCall(t)))
    return callee, {PC(t, 0) for t, b in enumerate(p.blocks) if b.insts and b.is_entry}


def _step(p: Program, s: State, d: Optional[Directive], sem: Sem) -> Outcome:
    """One step under `sem`: the rule of the instruction at the pc, compiled
    the first time a run reaches it and kept on the program."""
    code = p.compiled.get(sem)
    if code is None:
        code = p.compiled[sem] = [[None] * len(b.insts) for b in p.blocks]
    l, o = s.pc
    if l < 0 or o < 0:  # would index from the end
        return NO_PC
    try:
        rule = code[l][o]
    except IndexError:
        return NO_PC
    if sem is SPEC_CET and s.ct and not isinstance(p.blocks[l].insts[o], CTarget):
        return FAULT
    if rule is None:
        inst, nxt = p.blocks[l].insts[o], PC(l, o + 1)
        to = PC(inst.target, 0) if isinstance(inst, (Jump, Branch)) else None
        calls = p.compiled.get("calls") or p.compiled.setdefault("calls", _calls(p))
        rule = code[l][o] = compile_rule(inst, nxt, to, sem, UV, "out of bounds", *calls)
    return rule(s, d)


def step_seq(p: Program, s: State) -> Outcome:
    return _step(p, s, None, SEQ)


def step_spec(
    p: Program, s: State, d: Optional[Directive] = None, cet: bool = True
) -> Outcome:
    """One speculative step. A directive is consumed only at branch and call
    instructions. With `cet` disabled, calls do not arm the ctarget check,
    modeling hardware without indirect-branch tracking.
    """
    return _step(p, s, d, SPEC_CET if cet else SPEC)


def step_ideal(p: Program, s: State, d: Optional[Directive] = None) -> Outcome:
    return _step(p, s, d, IDEAL)


# --------------------------------------------------------------------------
# Bounded multi-step execution


class RunResult(Record):
    trace: list[Obs]
    # One of: term, fault, stuck, out-of-directives, directive-mismatch, fuel
    status: str
    reason: Optional[str] = None
    state: Optional[State] = None
    steps: int = 0  # the steps taken, each of which used one unit of fuel


def result(trace: list[Obs], out: Optional[Outcome], s, steps: int) -> RunResult:
    """The result of a run that stopped in state `s` after `steps` steps,
    with the terminal outcome `out` or, when `out` is None, out of fuel. An
    outcome that carries an observation (an ideal call fault, a lockstep
    divergence) adds it to the trace."""
    obs = getattr(out, "obs", None)
    if obs is not None:
        trace.append(obs)
    status = "fuel" if out is None else out.status
    return RunResult(trace, status, getattr(out, "reason", None), s, steps)


Step = Callable[[State, Optional[Directive]], Outcome]


def levels(s) -> tuple[State, ...]:
    """The `State`s of a run state: a `State` is its own one level, and a
    `Lockstep` state holds two."""
    return (s,) if isinstance(s, State) else s


def repeats(c, low: int, s) -> bool:
    """Whether a run that went from the checkpoint `c` to `s`, its stack
    never shorter than `low` entries in between, repeats from `s` forever."""
    # Sound because a step is deterministic in its state and directive, and
    # reads a stack only at `ret`: whether it is empty, and its top entry.
    # If each level of `s` has its checkpoint's pc, registers, memory and
    # flags, and no stack got shorter than the checkpoint's in between,
    # every `ret` on the way popped an entry pushed after the checkpoint:
    # that stretch read only pc, registers, memory, flags and entries it
    # pushed itself. From `s`, given the same directives, it repeats step
    # for step, with the same observations, and pushes the same entries
    # onto `s`'s stacks; the correct directives, computed from the state,
    # repeat with it.
    # A `Lockstep` step also reads both whole stacks: it checks the relation
    # of the levels it makes, which holds at every state of the run (see
    # `Lockstep`), `c` and `s` among them. So both levels' stacks are of one
    # length throughout, and neither got shorter than at `c`, as `stk` did
    # not; and the entries a period pushes above `c`'s relate, as many on
    # each level. Every later check reads the first period's stacks with
    # such related entries inserted above `c`'s, and holds as that one did.
    return low >= len(c.stk) and s.pc == c.pc and all(
        y.regs == x.regs and y.mem == x.mem and y.ct == x.ct and y.ms == x.ms
        for x, y in zip(levels(c), levels(s)))


def advance(step: Step, s, dirs: Sequence[Directive], fuel: int, trace: list,
            steps: int = 0, follow: bool = False,
            endless: Optional[Callable[[State, State, int], bool]] = None,
            ) -> tuple[Optional[Outcome], Any, int]:
    """Steps from `s`, after `steps` taken, until the fuel runs out or a step
    ends the run: the outcome that ended it (None at the fuel), the last
    state and the steps taken. Observations extend `trace`. At prediction
    points the run takes the directives of `dirs` in order; past its end it
    stops out of directives or, with `follow`, appends the correct one to
    `dirs` and takes it.

    The run is checked after every step against a checkpoint (Brent's cycle
    detection), taken at the first run state and re-taken after 1, 2, 4, ...
    more steps. When it `repeats`, the run takes at once as many whole
    periods as the fuel allows and, without `follow`, as the next directives
    of `dirs` repeat the period's, if it holds any: q periods add q times
    the period's steps, observations and directives, and push onto each
    level's stack q times the entries the period pushed there. Then it steps
    on, so every result is that of the run stepped throughout. A run given
    `endless` only asks whether it ends: it ends as at the fuel when it
    repeats, and when `endless(c, s, steps)` holds for a state `s` that is
    back at the checkpoint `c`'s pc, its stack never shorter in between, but
    does not repeat it."""
    used, n, power = 0, steps, 0
    while True:
        if steps - n >= power:
            # the checkpoint, its steps, trace length and directives used,
            # the shortest stack since it, the steps it is kept for and its
            # pc's hash
            c, n, t, u, low, power, h = (s, steps, len(trace), used, len(s.stk),
                                         2 * power or 1, hash(s.pc))
        if steps >= fuel:
            return None, s, steps
        out = step(s, None)
        if isinstance(out, OutOfDirectives):
            if used >= len(dirs) and not follow:
                return out, s, steps
            if used == len(dirs):
                dirs.append(out.correct)
            out = step(s, dirs[used])
            used += 1
        if not isinstance(out, Next):
            return out, s, steps
        s, obs = out
        if obs is not None:
            trace.append(obs)
        steps += 1
        if len(s.stk) < low:
            low = len(s.stk)
        if hash(s.pc) == h and low >= len(c.stk) and s.pc == c.pc:
            if repeats(c, low, s):
                if endless is not None:
                    return None, s, steps
                p, period = steps - n, dirs[u:used]
                k, q = len(period), (fuel - steps) // p
                if follow:
                    dirs.extend(period * q)
                elif k:
                    q = min(q, (len(dirs) - used) // k)
                    if dirs[used : used + q * k] != period * q:
                        q = next(i for i in range(q)
                                 if dirs[used + i * k : used + i * k + k] != period)
                trace += trace[t:] * q
                xs = [x._replace(stk=x.stk[: len(x.stk) - len(y.stk)] * q + x.stk)
                      for x, y in zip(levels(s), levels(c))]
                s = xs[0] if isinstance(s, State) else Lockstep(*xs)
                steps, used = steps + q * p, used + q * k
            elif endless is not None and endless(c, s, steps):
                return None, s, steps


def run(step: Step, s, directives: Sequence[Directive], fuel: int) -> RunResult:
    """At most `fuel` steps from `s`, supplying `directives` in order at the
    prediction points, where `step(s, None)` reports out-of-directives. A
    run that provably repeats takes its whole periods at once (`advance`),
    with the result of the run stepped throughout."""
    trace: list[Obs] = []
    out, s, steps = advance(step, s, directives, fuel, trace)
    return result(trace, out, s, steps)


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

