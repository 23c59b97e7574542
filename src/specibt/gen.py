"""Random generation of well-formed programs and initial states, and
rejection sampling of sequentially-equivalent state pairs for the leakage
checks.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import islice, repeat
from typing import Iterator, Optional

from .ir import (
    BINOPS,
    Asgn,
    BinOp,
    Block,
    Branch,
    Call,
    Cond,
    Const,
    Expr,
    FpConst,
    Inst,
    Jump,
    Load,
    PC,
    Program,
    Record,
    Reg,
    RET,
    SKIP,
    UV,
    Store,
    wf_program,
)
from .interp import Next, State, Term, advance, run_seq, step_seq


class GenConfig(Record):
    min_blocks: int = 2
    max_blocks: int = 5
    min_insts: int = 1
    max_insts: int = 5
    reg_pool: tuple[str, ...] = ("r0", "r1", "r2", "r3")
    mem_len: int = 8
    max_const: int = 16
    entry_fraction: float = 0.4
    fp_fraction: float = 0.1  # chance an assignment source is a code pointer
    max_expr_depth: int = 2


def _gen_expr(rng: random.Random, cfg: GenConfig, depth: int) -> Expr:
    if depth <= 0 or rng.random() < 0.5:
        roll = rng.random()
        if roll < 0.5:
            return Const(rng.randrange(cfg.max_const + 1))
        return Reg(rng.choice(cfg.reg_pool))
    if rng.random() < 0.8:
        op = rng.choice(BINOPS)
        # keep one factor constant: a loop squaring a register every
        # iteration produces numbers too large to compute with
        rhs = (
            Const(rng.randrange(cfg.max_const + 1))
            if op == "*"
            else _gen_expr(rng, cfg, depth - 1)
        )
        return BinOp(op, _gen_expr(rng, cfg, depth - 1), rhs)
    return Cond(
        _gen_expr(rng, cfg, depth - 1),
        _gen_expr(rng, cfg, depth - 1),
        _gen_expr(rng, cfg, depth - 1),
    )


def _gen_addr(rng: random.Random, cfg: GenConfig) -> Expr:
    """Address expressions are bounds-checked against the memory length so
    generated runs mostly stay in range."""
    if rng.random() < 0.5:
        return Const(rng.randrange(cfg.mem_len))
    r = Reg(rng.choice(cfg.reg_pool))
    return Cond(BinOp("<=", r, Const(cfg.mem_len - 1)), r, Const(0))


def _gen_inst(
    rng: random.Random,
    cfg: GenConfig,
    entries: list[int],
    non_entries: list[int],
) -> Inst:
    roll = rng.random()
    if roll < 0.30:
        src: Expr
        if entries and rng.random() < cfg.fp_fraction:
            src = FpConst(rng.choice(entries))
        else:
            src = _gen_expr(rng, cfg, cfg.max_expr_depth)
        return Asgn(rng.choice(cfg.reg_pool), src)
    if roll < 0.50:
        return Load(rng.choice(cfg.reg_pool), _gen_addr(rng, cfg))
    if roll < 0.65:
        return Store(
            _gen_addr(rng, cfg), _gen_expr(rng, cfg, cfg.max_expr_depth)
        )
    if roll < 0.80 and non_entries:
        return Branch(
            _gen_expr(rng, cfg, cfg.max_expr_depth), rng.choice(non_entries)
        )
    if roll < 0.90 and entries:
        return Call(FpConst(rng.choice(entries)))
    return SKIP


def gen_program(rng: random.Random, cfg: GenConfig = GenConfig()) -> Program:
    """A random program, well-formed by construction."""
    n = rng.randint(cfg.min_blocks, cfg.max_blocks)
    flags = [True] + [rng.random() < cfg.entry_fraction for _ in range(n - 1)]
    entries = [l for l, f in enumerate(flags) if f]
    non_entries = [l for l, f in enumerate(flags) if not f]
    blocks: list[Block] = []
    for l in range(n):
        k = rng.randint(cfg.min_insts, cfg.max_insts)
        body = [_gen_inst(rng, cfg, entries, non_entries) for _ in range(k - 1)]
        if non_entries and rng.random() < 0.3:
            body.append(Jump(rng.choice(non_entries)))
        else:
            body.append(RET)
        blocks.append(Block(tuple(body), flags[l]))
    p = Program(tuple(blocks))
    errors = wf_program(p, mode="source")
    if errors:
        raise RuntimeError(f"generated an ill-formed program: {errors}")
    return p


def _draws(rng: random.Random, cfg: GenConfig) -> Iterator[int]:
    """The values `rng.randrange(cfg.max_const + 1)` would draw one after
    another, by the rule it applies: `getrandbits(k)`, for the bit length
    `k` of the range's size, until the result falls below that size. A
    value is drawn only when it is asked for."""
    n = cfg.max_const + 1
    return filter(n.__gt__, map(rng.getrandbits, repeat(n.bit_length())))


def gen_state(rng: random.Random, cfg: GenConfig = GenConfig()) -> State:
    """A random initial state: a value below `max_const + 1` in each
    register of the pool, in order, then in each memory cell. The values,
    and the rng's state after them, are those of drawing each one by
    `rng.randrange(cfg.max_const + 1)`, on every CPython from 3.10, so a
    seed gives the same inputs as it always has."""
    draws = _draws(rng, cfg)
    regs = {r: next(draws) for r in cfg.reg_pool}
    mem = tuple(islice(draws, cfg.mem_len))
    return State(PC(0, 0), regs, mem, (), False, False)  # all six: no defaults to fill


def spec_of(s: State, ct: bool = False, ms: bool = False) -> State:
    """`s` with its flags set to `ct` and `ms`. States are never written
    into, so the copy shares the register file."""
    return State(s.pc, s.regs, s.mem, s.stk, ct, ms)


def _terminates(p: Program, s: State, fuel: int) -> bool:
    """`run_seq(p, s, fuel).status == "term"`: `advance` plus widening.

    A run that `repeats` its checkpoint never terminates, so it ends there,
    with nothing built for the fuel left. A return to the checkpoint's pc
    with other values is tried once per checkpoint as a loop that changes
    them forever, by widening those values to UV (`_loops_widened`), and
    ends the run if it is one; the abstract steps of all tries together
    never outnumber the concrete steps taken.
    """
    spent, tried = 0, None  # abstract steps; the checkpoint last widened

    def endless(c: State, s: State, steps: int) -> bool:
        nonlocal spent, tried
        if c is tried:
            return False
        tried = c
        loops, used = _loops_widened(p, _join(c, s), steps - spent)
        spent += used
        return loops

    out = advance(lambda s, d: step_seq(p, s), s, (), fuel, [], endless=endless)[0]
    return isinstance(out, Term)


def _join(w: State, s: State) -> State:
    """`w` with UV in every register and memory cell where `s` differs (a
    register missing from a state reads as UV)."""
    regs = {}
    for r in dict.fromkeys([*w.regs, *s.regs]):
        v = w.regs.get(r, UV)
        regs[r] = v if v == s.regs.get(r, UV) else UV
    mem = tuple(v if v == u else UV for v, u in zip(w.mem, s.mem))
    return State(w.pc, regs, mem, w.stk, False, False)


def _loops_widened(p: Program, w: State, budget: int) -> tuple[bool, int]:
    """Whether every state below `w` at `w`'s pc runs forever, proved within
    `budget` abstract steps from `w`, and the steps taken. A state is below
    `w` when each of its registers and memory cells equals `w`'s or is UV
    in `w`, that is, when joining it into `w` changes nothing.

    Each time the run from `w` is back at its pc, it is done if the state is
    below `w`; else that state is joined into `w` (one more UV at least) and
    the run restarts from there. Any outcome but `Next`, such as a UV branch
    condition, gives up, and so does a `ret` that pops an entry of `w`'s
    stack.
    """
    # Sound by the monotonicity that makes the all-UV check sound (see
    # `no_input_terminates`): a value computed from `w` that is not UV is
    # computed alike from every state below `w`, whose control decisions
    # and addresses are thus `w`'s, and whose successor is below that of
    # `w`. If the run from `w` comes back to `w`'s pc below `w`, popping
    # only entries it pushed, then from every state below `w` the run comes
    # back to that pc below `w` with any stack, and so forever; the
    # checkpoint is below `w`, so its run never terminates.
    s = w
    for used in range(1, budget + 1):
        out = step_seq(p, s)
        if not isinstance(out, Next) or len(out.state.stk) < len(w.stk):
            return False, used
        s = out.state
        if s.pc == w.pc:
            joined = _join(w, s)
            if joined.regs == w.regs and joined.mem == w.mem:
                return True, used
            w = s = joined
    return False, budget


def no_input_terminates(p: Program, cfg: GenConfig, fuel: int) -> bool:
    """True if the run from the all-UV state (every register and memory cell
    undefined) runs out of fuel: then no input terminates within `fuel`."""
    # Sound because evaluation is monotone in UV: operators and `Cond` give
    # UV on any UV operand or condition, so a value the all-UV run computes
    # is computed alike by every input. A step is stuck on a UV branch
    # condition, call target or address, so an all-UV run that reaches fuel
    # took every control decision and bounds check on such values, and every
    # input repeats it step for step into the same fuel-out.
    all_uv = State(PC(0, 0), {}, (UV,) * cfg.mem_len)
    return run_seq(p, all_uv, fuel).status == "fuel"


def gen_safe_input(
    rng: random.Random,
    p: Program,
    cfg: GenConfig = GenConfig(),
    fuel: int = 10_000,
    attempts: int = 50,
    hopeless: Optional[bool] = None,
) -> Optional[State]:
    """A random initial state whose sequential run terminates cleanly within
    `fuel` steps, or None if rejection sampling runs out of attempts.

    Early rejection: if `no_input_terminates(p, cfg, fuel)` (passed in as
    `hopeless` by a caller that samples the same program again), the
    attempts' states are drawn and discarded and the result is None. Each
    attempt's run (`_terminates`) stops at its first repeated state, and at
    a loop whose changing values, widened to UV, keep it going forever; it
    does not step on to `fuel`. The result and the rng's position are those
    of the plain loop that runs each attempt to `fuel`.
    """
    if hopeless is None:
        hopeless = no_input_terminates(p, cfg, fuel)
    if hopeless:  # draw the attempts' values, and build no state
        deque(islice(_draws(rng, cfg), attempts * (len(cfg.reg_pool) + cfg.mem_len)), 0)
        return None
    for _ in range(attempts):
        s = gen_state(rng, cfg)
        if _terminates(p, s, fuel):
            return s
    return None


class EquivPair(Record):
    program: Program
    s1: State
    s2: State
    secret_cell: int


def gen_seq_equiv_pair(
    rng: random.Random,
    cfg: GenConfig = GenConfig(),
    fuel: int = 10_000,
) -> EquivPair:
    """A program with two safe initial states differing in exactly one
    memory cell whose sequential traces coincide."""
    for _ in range(200):
        p = gen_program(rng, cfg)
        s1 = gen_safe_input(rng, p, cfg, fuel, attempts=5)
        if s1 is None:
            continue
        cell = rng.randrange(cfg.mem_len)
        alt = (s1.mem[cell] + 1 + rng.randrange(cfg.max_const)) % (cfg.max_const + 1)
        if alt == s1.mem[cell]:
            alt = s1.mem[cell] + 1
        mem2 = s1.mem[:cell] + (alt,) + s1.mem[cell + 1 :]
        s2 = State(s1.pc, s1.regs, mem2, s1.stk)
        r1 = run_seq(p, s1, fuel)
        r2 = run_seq(p, s2, fuel)
        if r1.status == "term" and r2.status == "term" and r1.trace == r2.trace:
            return EquivPair(p, s1, s2, cell)
    raise RuntimeError("could not sample a sequentially equivalent pair")
