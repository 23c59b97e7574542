"""Random generation of well-formed programs and initial states, and
rejection sampling of sequentially-equivalent state pairs for the leakage
checks.
"""

from __future__ import annotations

import random
from collections import deque
from functools import reduce
from itertools import islice, product, repeat
from math import prod
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
    RET,
    SKIP,
    UV,
    Store,
    _subterms,
    wf_program,
)
from .interp import State, Term, advance, run_seq, step_seq


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
    """`run_seq(p, s, fuel).status == "term"`: `advance` plus the interval run.

    A run that `repeats` its checkpoint never terminates, so it ends there,
    with nothing built for the fuel left. A return to the checkpoint's pc
    with other values is tried once per checkpoint as a loop that changes
    them forever: `_never_terminates` runs from that state, its stack
    exact and each value widened against the checkpoint's, and ends the run
    if it proves that no state it stands for terminates. The abstract steps
    of all tries together never outnumber the concrete steps taken.
    """
    spent, tried = 0, None  # abstract steps; the checkpoint last tried

    def endless(c: State, s: State, steps: int) -> bool:
        nonlocal spent, tried
        if c is tried:
            return False
        tried = c
        regs, mem = _over(lambda a, b: _awiden(_point(a), _point(b)), c.regs, c.mem,
                          s.regs, s.mem)
        loops, used = _never_terminates(p, (s.pc, regs, mem, s.stk), steps - spent)
        spent += used
        return loops

    out = advance(lambda s, d: step_seq(p, s), s, (), fuel, [], endless=endless)[0]
    return isinstance(out, Term)


# --------------------------------------------------------------------------
# Abstract sequential runs over intervals

# An abstract value stands for a set of values: a plain pair `(lo, hi)` for
# the naturals from `lo` to `hi` (`hi` may be `_INF`), an `FP` or `UV` for
# itself alone, and `_TOP` for every value.
_INF = float("inf")
_TOP = object()
_ABSTRACT_STEPS = 2_000  # the budget of a hopeless program's proof, over all its paths


def _iv_bool(true: bool, false: bool) -> tuple:
    """The truth value that is 1 if `true` holds, 0 if `false` does, else either."""
    return (1, 1) if true else (0, 0) if false else (0, 1)


# `interp.NAT_OPS` over intervals: an arithmetic result's bounds are the
# operator at the operands' bounds (`-` saturates at 0), and a comparison or
# connective is 0 or 1 where the intervals decide it, else either.
_IV_OPS = {
    "+": lambda a, b: (a[0] + b[0], a[1] + b[1]),
    "-": lambda a, b: (max(a[0] - b[1], 0), max(a[1] - b[0], 0)),
    "*": lambda a, b: (a[0] * b[0], 0 if a[1] == 0 or b[1] == 0 else a[1] * b[1]),
    "=": lambda a, b: _iv_bool(a[0] == a[1] == b[0] == b[1], a[1] < b[0] or b[1] < a[0]),
    "<=": lambda a, b: _iv_bool(a[1] <= b[0], a[0] > b[1]),
    "&&": lambda a, b: _iv_bool(a[0] > 0 and b[0] > 0, a[1] == 0 or b[1] == 0),
    "->": lambda a, b: _iv_bool(a[1] == 0 or b[0] > 0, a[0] > 0 and b[1] == 0),
}


def _ajoin(a, b):
    """The least abstract value above `a` and `b`."""
    if a == b:
        return a
    if type(a) is tuple and type(b) is tuple:
        return min(a[0], b[0]), max(a[1], b[1])
    return _TOP


def _aleq(a, b) -> bool:
    """Whether every value `a` stands for is one `b` stands for."""
    return b is _TOP or a == b or (type(a) is tuple and type(b) is tuple
                                   and b[0] <= a[0] and a[1] <= b[1])


def _point(v):
    """The abstract value that stands for the value `v` alone."""
    return (v, v) if type(v) is int else v


def _awiden(a, b):
    """`a`, widened to stand for `b` too: a bound that `b` passes goes to
    the end of its range, so a chain of widenings is short."""
    if type(a) is tuple and type(b) is tuple:
        return a[0] if b[0] >= a[0] else 0, a[1] if b[1] <= a[1] else _INF
    return a if a == b else _TOP


def _aeval(e: Expr, regs: dict):
    """The abstract value of `e`, as `interp._compile_expr` evaluates it at
    block level, over the abstract registers `regs`."""
    t = type(e)
    if t is Const:
        return e.value, e.value
    if t is Reg:
        return regs.get(e.name, UV)
    if t is FpConst:
        return FP(e.label)
    if t is BinOp:
        a, b = _aeval(e.lhs, regs), _aeval(e.rhs, regs)
        if type(a) is tuple and type(b) is tuple:
            return _IV_OPS[e.op](a, b)
        if e.op == "=" and type(a) is FP and type(b) is FP:
            return (1, 1) if a == b else (0, 0)
        return _TOP if a is _TOP or b is _TOP else UV
    c = _aeval(e.cond, regs)
    if type(c) is not tuple:
        return _TOP if c is _TOP else UV
    if c[0] > 0:
        return _aeval(e.then, regs)
    if c[1] == 0:
        return _aeval(e.els, regs)
    return _ajoin(_aeval(e.then, regs), _aeval(e.els, regs))


def _cells(a, n: int) -> range:
    """The cells of a memory of `n` that the abstract address `a` may name."""
    if a is _TOP:
        return range(n)
    if type(a) is not tuple:
        return range(0)
    return range(a[0], min(a[1], n - 1) + 1)


def _box(inst: Inst, regs: dict, n: int) -> Optional[list]:
    """The register files of single values that together stand for `regs`
    at the registers `inst` reads, if each of those is a finite range, an
    `FP` or a `UV` and the files are at most `n`; else None."""
    names = {x.name for x in _subterms(inst) if type(x) is Reg}
    vals = [regs.get(r, UV) for r in names]
    if any(v is _TOP or type(v) is tuple and v[1] == _INF for v in vals) or prod(
            v[1] - v[0] + 1 if type(v) is tuple else 1 for v in vals) > n:
        return None
    axes = [map(_point, range(v[0], v[1] + 1)) if type(v) is tuple else (v,) for v in vals]
    return [dict(zip(names, pt)) for pt in product(*axes)]


def _over(f, r1: dict, m1: tuple, r2: dict, m2: tuple) -> tuple:
    """`f` applied to each register (a missing one is UV) and each memory
    cell of two abstract states, in pairs."""
    regs = {r: f(r1.get(r, UV), r2.get(r, UV)) for r in {**r1, **r2}}
    return regs, tuple(map(f, m1, m2))


def _never_terminates(p: Program, root: tuple, budget: int) -> tuple[bool, int]:
    """Whether no state that `root` stands for ever terminates, proved by an
    abstract sequential run from it within `budget` steps, and the steps
    taken. `root` is a pc, abstract registers (a missing one is UV) and
    memory, and a concrete stack.

    The run is a tree. A branch whose condition may be zero and may not is
    settled point by point, one step a point, where the steps left cover
    the box of the registers it reads (`_box`); if it still may be either,
    it forks both ways, and no value is refined by the way taken. A path
    ends where the step is surely stuck (a condition, address or call target
    that surely is not a valid one); it gives the proof up at a call target
    that may be a function pointer but is not one for sure, and at a `ret`
    on the empty stack. At a block entry, a path that is back at the pc of
    the nearest such ancestor on it ends there if its registers and memory
    are below the ancestor's and no `ret` in the ancestor's subtree yet has
    popped an entry of the ancestor's stack; else it goes on from that
    state widened against the ancestor's. A `ret` that pops an entry of the
    stack of an ancestor a path ended at gives the proof up.
    """
    # Sound by a simulation. An abstract state stands for the concrete
    # states at its pc whose registers and memory it stands for. Each value
    # a step computes, and each value a step that is not stuck loads, is one
    # the abstract step's stands for, and each branch decision is a way the
    # tree takes (a condition reads only registers, and `_aeval` is exact on
    # points, so the join of its values over their box stands for each value
    # it takes); so a run from a state the root stands for, with the root's
    # stack, follows a path of the tree from the root, with the same stack,
    # until the path ends. The root's stack is exact, so a path may pop
    # entries below the root: it returns where the run does. Where the path
    # is surely stuck, so is the run, and stuck is not a termination. Where
    # the path ended at an ancestor, the run's state is one the ancestor
    # stands for, but for its stack. No `ret` in the ancestor's subtree pops
    # an entry of the ancestor's stack, so the subtree reads only entries
    # pushed within it, and the run follows it on with its own stack beneath
    # them. The one step that terminates, a `ret` at the empty stack, gives
    # the proof up, so no run reaches it. The values, stacks and pcs are
    # those of `interp.compile_rule` under the sequential semantics.
    blocks, left = p.blocks, budget
    # states to run, each with the length its path is cut back to
    todo = [(*root, 0)]
    # the block-entry states on the current path: [label, registers, memory,
    # stack length, a ret in the subtree popped below it, a path ended here]
    path: list[list] = []
    while todo:
        (l, o), regs, mem, stk, cut = todo.pop()
        del path[cut:]
        while left:
            left -= 1
            if not (0 <= l < len(blocks) and 0 <= o < len(blocks[l].insts)):
                break  # stuck
            if o == 0:
                node = next((n for n in reversed(path) if n[0] == l), None)
                if node is not None:
                    below, cells_below = _over(_aleq, regs, mem, node[1], node[2])
                    if not node[4] and all(below.values()) and all(cells_below):
                        node[5] = True
                        break
                    regs, mem = _over(_awiden, node[1], node[2], regs, mem)
                path.append([l, regs, mem, len(stk), False, False])
            inst = blocks[l].insts[o]
            t = type(inst)
            if t is Asgn:
                regs = {**regs, inst.reg: _aeval(inst.expr, regs)}
            elif t is Jump:
                l, o = inst.target, 0
                continue
            elif t is Branch:
                c = _aeval(inst.cond, regs)
                if c == (0, 1) and (points := _box(inst, regs, left)) is not None:
                    left -= len(points)
                    c = reduce(_ajoin, [_aeval(inst.cond, pt) for pt in points])
                if c is not _TOP and type(c) is not tuple:
                    break  # stuck
                taken, falls = (True, True) if c is _TOP else (c[1] > 0, c[0] == 0)
                if taken and falls:
                    todo.append(((l, o + 1), regs, mem, stk, len(path)))
                if taken:
                    l, o = inst.target, 0
                    continue
            elif t is Load or t is Store:
                cells = _cells(_aeval(inst.addr, regs), len(mem))
                if not cells:
                    break  # stuck
                if t is Load:
                    v = mem[cells[0]]
                    for i in cells:
                        v = _ajoin(v, mem[i])
                    regs = {**regs, inst.reg: v}
                else:
                    v, i = _aeval(inst.value, regs), cells[0]
                    mem = (mem[:i] + (v,) + mem[i + 1:] if len(cells) == 1 else
                           tuple(_ajoin(m, v) if i in cells else m for i, m in enumerate(mem)))
            elif t is Call:
                v = _aeval(inst.target, regs)
                if v is _TOP:
                    return False, budget - left
                if type(v) is not FP or not (0 <= v.label < len(blocks)
                                             and blocks[v.label].is_entry):
                    break  # stuck
                l, o, stk = v.label, 0, ((l, o + 1),) + stk
                continue
            elif t is Ret:
                if not stk:
                    return False, budget - left
                for n in path:
                    if n[3] >= len(stk):
                        if n[5]:
                            return False, budget - left
                        n[4] = True
                (l, o), stk = stk[0], stk[1:]
                continue
            o += 1
        else:
            return False, budget
    return True, budget - left


def _drawn(cfg: GenConfig) -> tuple:
    """The root that stands for every state `gen_state` may draw: a pool
    register or a memory cell is any natural up to `cfg.max_const`, any
    other register UV."""
    drawn = (0, cfg.max_const)
    return PC(0, 0), dict.fromkeys(cfg.reg_pool, drawn), (drawn,) * cfg.mem_len, ()


def no_input_terminates(p: Program, cfg: GenConfig) -> bool:
    """True if no state `gen_state` may draw ever terminates, as
    `_never_terminates` proves from the root that stands for them all."""
    return _never_terminates(p, _drawn(cfg), _ABSTRACT_STEPS)[0]


def gen_safe_input(
    rng: random.Random,
    p: Program,
    cfg: GenConfig = GenConfig(),
    fuel: int = 10_000,
    attempts: int = 50,
) -> Optional[State]:
    """A random initial state whose sequential run terminates cleanly within
    `fuel` steps, or None if rejection sampling runs out of attempts.

    Early rejection: if `no_input_terminates(p, cfg)`, worked out once per
    program and config and kept in `p.compiled`, the attempts' states are
    drawn and discarded and the result is None; a program it does not prove
    only has its draws run, with the same stream. Each attempt's run
    (`_terminates`) stops at its first repeated state, and at a loop that
    the range run `_never_terminates` proves endless; it does not step on
    to `fuel`. The result and the rng's position are those of the plain
    loop that runs each attempt to `fuel`.
    """
    hopeless = p.compiled.get(("hopeless", cfg))
    if hopeless is None:
        hopeless = p.compiled[("hopeless", cfg)] = no_input_terminates(p, cfg)
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
