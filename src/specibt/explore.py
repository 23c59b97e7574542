"""Bounded enumeration of attacker directive sequences.

The semantics mark each prediction point (a branch or a call) with
`OutOfDirectives`, which carries the directive that follows the program
there. Exploration forks every prediction point within the first `depth`
predictions, over both outcomes at a branch and over the driver's call
candidates at a call; beyond the depth, it supplies the correct directive
so runs still finish. Call candidates are every block head plus one
mid-block offset per multi-instruction block: correct calls, wrong-function
calls and mid-function injection are all covered without exponential
blowup.

`walk` is the one walk of this tree, and every check takes it: `explore`
yields each sequence it reaches, and the relational checks walk a second
run down the same directives beside it.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional, Sequence

from .ir import PC, Program, Record
from .interp import (
    DBranch,
    DCallMc,
    DCallMir,
    Directive,
    Next,
    Outcome,
    OutOfDirectives,
    RunResult,
    advance,
    result,
    step_ideal,
    step_spec,
)
from .machine import McProgram, step_mc


class ExploreBudget(Record):
    depth: int = 3
    max_sequences: int = 200
    fuel: int = 1000


class Driver(Record):
    """Execution of a program under one semantics, as exploration needs
    it: `step` takes a step with an optional directive, and `calls` are the
    directives the attacker may pick at a call."""

    step: Callable[[Any, Optional[Directive]], Outcome]
    calls: tuple[Directive, ...]

    def choices(self, out: OutOfDirectives) -> tuple[Directive, ...]:
        """The directives a fork at prediction point `out` tries, in order."""
        return _BRANCHES if isinstance(out.correct, DBranch) else self.calls


_BRANCHES = (DBranch(True), DBranch(False))


def _call_pcs(sizes: Sequence[int]) -> list[PC]:
    """The pc of every block head, then of offset 1 of every block with
    more than one instruction."""
    heads = [PC(l, 0) for l in range(len(sizes))]
    return heads + [PC(l, 1) for l, n in enumerate(sizes) if n > 1]


def _mir_calls(p: Program) -> tuple[Directive, ...]:
    return tuple(map(DCallMir, _call_pcs([len(b.insts) for b in p.blocks])))


def SpecDriver(p: Program, cet: bool = True) -> Driver:
    """Speculative block-structured execution of `p`."""
    return Driver(lambda s, d: step_spec(p, s, d, cet), _mir_calls(p))


def IdealDriver(p: Program) -> Driver:
    """Ideal-semantics execution, with masking applied when predicting."""
    return Driver(lambda s, d: step_ideal(p, s, d), _mir_calls(p))


def McDriver(mc: McProgram) -> Driver:
    """Speculative flat-machine execution."""
    lay = mc.lay
    calls = tuple(DCallMc(lay.pc_addr(pc)) for pc in _call_pcs(lay.sizes))
    return Driver(lambda s, d: step_mc(mc, s, d), calls)


def explore(
    driver: Driver, s0, budget: ExploreBudget
) -> Iterator[tuple[tuple[Directive, ...], RunResult]]:
    """All bounded runs from `s0`, as (directive sequence, result) pairs, in
    deterministic depth-first order. Stops after max_sequences results."""
    for _, dirs, res, _ in walk(driver, s0, budget):
        yield dirs, res


# (sequences covered, directives, result, side 2's result)
Walked = tuple[int, Optional[tuple], Optional[RunResult], Optional[RunResult]]


def walk(
    driver: Driver, s0, budget: ExploreBudget, pair: Optional[tuple[Any, Callable]] = None
) -> Iterator[Walked]:
    """The directive tree from `s0`, depth first, with an explicit stack: one
    item per sequence, until max_sequences are covered.

    With `pair`, (side 2's start state, its `run(state, directives, fuel)`),
    side 2 follows the same directives, in a leg at each fork node and at
    each end of side 1, resumed where the last leg ran out of directives.
    Each fork node is keyed on side 1's state and steps, the forks taken,
    side 2's state and steps (its status alone once it has ended), and the
    observations one side has made past the other's, with the side that made
    them. A subtree walked in full within the cap, with the traces agreeing
    above it, is stored under its key with its sequence count; when the key
    comes up again, the subtree is covered by one item (count, None, None,
    None) instead, unless that would cross the cap.

    This is sound for a consumer that decides each sequence by both results'
    statuses and traces alone, and stops at the first one it rejects, so a
    subtree it did not finish is never stored. Steps are deterministic, so
    side 1's state, fuel left and forks left fix its directive sequences,
    observations and ends; side 2 follows the same directives, so its state
    and fuel fix its own, and once it has ended only its status bears on a
    comparison. The traces agree up to the key's observations, so every
    verdict below a fork node, and their count, depend on its key alone.

    Side 1 steps in `advance`, which past the depth follows the correct
    directives; a stretch that repeats (`interp.repeats`) is taken in whole
    periods at once, up to the fuel, adding its observations, steps, return
    addresses and correct directives as stepping would. Side 2's legs run
    in `run`, which does the same within the directives it is given.
    """
    step, choices = driver.step, driver.choices
    depth, cap, fuel = budget.depth, budget.max_sequences, budget.fuel
    s2, run = pair or (None, None)
    # side 2's last leg, as if out of directives at its start state
    r2 = RunResult([], "out-of-directives", None, s2, 0)
    n2 = 0  # the steps of all side 2's legs
    t1: list = []  # side 1's observations
    t2: list = []  # side 2's observations
    path: list = []  # the directive taken at each open fork node
    stack: list = []  # the open fork nodes
    clean: dict = {}  # key of a fork node -> sequences of its clean subtree
    runs = 0
    s, n1, going = s0, 0, True
    while runs < cap:
        # from `s`, below len(stack) forks, to the next fork node or the end
        tail: list = []  # the correct directives taken past the depth
        if going:
            out, s, n1 = advance(step, s, tail, fuel, t1, n1, len(stack) >= depth)
        if run and r2.status == "out-of-directives":
            r2 = run(r2.state, path[-1:] + tail, fuel - n2)  # from the last fork node
            t2 += r2.trace
            n2 += r2.steps
        if isinstance(out, OutOfDirectives):
            key = None
            m = min(len(t1), len(t2))
            if run and t1[:m] == t2[:m]:
                ended = r2.status != "out-of-directives"
                key = (_frozen(s), n1, len(stack),
                       r2.status if ended else (_frozen(r2.state), n2),
                       len(t1) > m, tuple(t1[m:] + t2[m:]))
            count = clean.get(key)
            if count is not None and runs + count <= cap:
                runs += count
                yield count, None, None, None
            else:
                stack.append((s, n1, len(t1), r2, n2, len(t2), iter(choices(out)),
                              key, runs))
        else:
            runs += 1
            r = RunResult(list(t2), r2.status, r2.reason, r2.state, n2) if run else None
            yield 1, (*path, *tail), result(list(t1), out, s, n1), r
        # the next directive at the innermost open fork node
        while stack and runs < cap:
            s, n1, l1, r2, n2, l2, left, key, before = stack[-1]
            del path[len(stack) - 1 :], t1[l1:], t2[l2:]
            d = next(left, None)
            if d is None:
                stack.pop()
                if key is not None:
                    clean[key] = runs - before
                continue
            path.append(d)
            out = step(s, d)
            going = isinstance(out, Next)
            if going:
                s, obs = out
                if obs is not None:
                    t1.append(obs)
                n1 += 1
            break
        else:
            return


def _frozen(s) -> tuple:
    """A block-level or machine `State` as a hashable plain tuple, its registers
    a frozen set of items: a key `tuple.__eq__` compares, faster than a `Record`."""
    return (s.pc, frozenset(s.regs.items()), *s[2:])
