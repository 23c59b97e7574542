"""Random generation of well-formed programs and initial states, and
rejection sampling of sequentially-equivalent state pairs for the leakage
checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .ir import (
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
    Reg,
    RET,
    SKIP,
    UV,
    Store,
    wf_program,
)
from .interp import IdealState, SeqState, SpecState, run_seq


@dataclass(frozen=True)
class GenConfig:
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


def _gen_expr(rng: random.Random, cfg: GenConfig, entries: list[int], depth: int) -> Expr:
    if depth <= 0 or rng.random() < 0.5:
        roll = rng.random()
        if roll < 0.5:
            return Const(rng.randrange(cfg.max_const + 1))
        return Reg(rng.choice(cfg.reg_pool))
    if rng.random() < 0.8:
        op = rng.choice(("+", "-", "*", "=", "<=", "&&", "->"))
        # keep one factor constant: a loop squaring a register every
        # iteration produces numbers too large to compute with
        rhs = (
            Const(rng.randrange(cfg.max_const + 1))
            if op == "*"
            else _gen_expr(rng, cfg, entries, depth - 1)
        )
        return BinOp(op, _gen_expr(rng, cfg, entries, depth - 1), rhs)
    return Cond(
        _gen_expr(rng, cfg, entries, depth - 1),
        _gen_expr(rng, cfg, entries, depth - 1),
        _gen_expr(rng, cfg, entries, depth - 1),
    )


def _gen_addr(rng: random.Random, cfg: GenConfig, entries: list[int]) -> Expr:
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
            src = _gen_expr(rng, cfg, entries, cfg.max_expr_depth)
        return Asgn(rng.choice(cfg.reg_pool), src)
    if roll < 0.50:
        return Load(rng.choice(cfg.reg_pool), _gen_addr(rng, cfg, entries))
    if roll < 0.65:
        return Store(
            _gen_addr(rng, cfg, entries), _gen_expr(rng, cfg, entries, cfg.max_expr_depth)
        )
    if roll < 0.80 and non_entries:
        return Branch(
            _gen_expr(rng, cfg, entries, cfg.max_expr_depth), rng.choice(non_entries)
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
        blocks.append(Block(tuple(body), is_entry=flags[l]))
    p = Program(tuple(blocks))
    errors = wf_program(p, mode="source")
    if errors:
        raise RuntimeError(f"generated an ill-formed program: {errors}")
    return p


def gen_state(rng: random.Random, cfg: GenConfig = GenConfig()) -> SeqState:
    regs = {r: rng.randrange(cfg.max_const + 1) for r in cfg.reg_pool}
    mem = tuple(rng.randrange(cfg.max_const + 1) for _ in range(cfg.mem_len))
    return SeqState(PC(0, 0), regs, mem)


def spec_of(s: SeqState, ct: bool = False, ms: bool = False) -> SpecState:
    return SpecState(s.pc, dict(s.regs), s.mem, s.stk, ct, ms)


def ideal_of(s: SeqState, ms: bool = False) -> IdealState:
    return IdealState(s.pc, dict(s.regs), s.mem, s.stk, ms)


def gen_safe_input(
    rng: random.Random,
    p: Program,
    cfg: GenConfig = GenConfig(),
    fuel: int = 10_000,
    attempts: int = 50,
) -> Optional[SeqState]:
    """A random initial state whose sequential run terminates cleanly, or
    None if rejection sampling runs out of attempts.

    Early rejection: if the run from the all-UV state (every register and
    memory cell undefined) runs out of fuel, no input can terminate, so the
    attempts' states are drawn and discarded and the result is None. The
    result and the rng's position are those of `attempts` failed attempts.
    """
    # Sound because evaluation is monotone in UV: `_binop` and `Cond` give
    # UV on any UV operand or condition, so a value the all-UV run computes
    # is computed alike by every input. `_step` is stuck on a UV branch
    # condition, call target or address, so an all-UV run that reaches fuel
    # took every control decision and bounds check on such values, and every
    # input repeats it step for step into the same fuel-out.
    if run_seq(p, SeqState(PC(0, 0), {}, (UV,) * cfg.mem_len), fuel).status == "fuel":
        for _ in range(attempts):
            gen_state(rng, cfg)
        return None
    for _ in range(attempts):
        s = gen_state(rng, cfg)
        if run_seq(p, s, fuel).status == "term":
            return s
    return None


@dataclass(frozen=True)
class EquivPair:
    program: Program
    s1: SeqState
    s2: SeqState
    secret_cell: int


def gen_seq_equiv_pair(
    rng: random.Random,
    cfg: GenConfig = GenConfig(),
    fuel: int = 10_000,
    attempts: int = 200,
) -> EquivPair:
    """A program with two safe initial states differing in exactly one
    memory cell whose sequential traces coincide."""
    for _ in range(attempts):
        p = gen_program(rng, cfg)
        s1 = gen_safe_input(rng, p, cfg, fuel, attempts=5)
        if s1 is None:
            continue
        cell = rng.randrange(cfg.mem_len)
        alt = (s1.mem[cell] + 1 + rng.randrange(cfg.max_const)) % (cfg.max_const + 1)
        if alt == s1.mem[cell]:
            alt = s1.mem[cell] + 1
        mem2 = s1.mem[:cell] + (alt,) + s1.mem[cell + 1 :]
        s2 = SeqState(s1.pc, dict(s1.regs), mem2, s1.stk)
        r1 = run_seq(p, s1, fuel)
        r2 = run_seq(p, s2, fuel)
        if r1.status == "term" and r2.status == "term" and r1.trace == r2.trace:
            return EquivPair(p, s1, s2, cell)
    raise RuntimeError("could not sample a sequentially equivalent pair")
