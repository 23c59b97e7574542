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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence

from .ir import PC, Program
from .interp import (
    DBranch,
    DCallMc,
    DCallMir,
    Directive,
    Next,
    Obs,
    Outcome,
    OutOfDirectives,
    RunResult,
    result,
    step_ideal,
    step_spec,
)
from .machine import LayoutMap, McProgram, step_mc


@dataclass(frozen=True)
class ExploreBudget:
    depth: int = 3
    max_sequences: int = 200
    fuel: int = 1000


@dataclass(frozen=True)
class Driver:
    """Execution of a program under one semantics, as exploration needs
    it: `step` takes a step with an optional directive, and `calls` are the
    directives the attacker may pick at a call."""

    step: Callable[[Any, Optional[Directive]], Outcome]
    calls: tuple[Directive, ...]

    def choices(self, out: OutOfDirectives) -> tuple[Directive, ...]:
        """The directives a fork at prediction point `out` tries, in order."""
        return _BRANCHES if isinstance(out.correct, DBranch) else self.calls


_BRANCHES = (DBranch(True), DBranch(False))


def _call_pcs(sizes: Sequence[int]) -> list[tuple[int, int]]:
    """(label, offset) of every block head, then of offset 1 of every
    block with more than one instruction."""
    heads = [(l, 0) for l in range(len(sizes))]
    return heads + [(l, 1) for l, n in enumerate(sizes) if n > 1]


def _mir_calls(p: Program) -> tuple[Directive, ...]:
    pcs = _call_pcs([len(b.insts) for b in p.blocks])
    return tuple(DCallMir(PC(l, o)) for l, o in pcs)


def SpecDriver(p: Program, cet: bool = True) -> Driver:
    """Speculative block-structured execution of `p`."""
    return Driver(lambda s, d: step_spec(p, s, d, cet), _mir_calls(p))


def IdealDriver(p: Program) -> Driver:
    """Ideal-semantics execution, with masking applied when predicting."""
    return Driver(lambda s, d: step_ideal(p, s, d), _mir_calls(p))


def McDriver(mc: McProgram, lay: LayoutMap) -> Driver:
    """Speculative flat-machine execution."""
    calls = tuple(DCallMc(lay.addr(l) + o) for l, o in _call_pcs(lay.sizes))
    return Driver(lambda s, d: step_mc(mc, lay, s, d), calls)


def explore(
    driver: Driver, s0, budget: ExploreBudget
) -> Iterator[tuple[tuple[Directive, ...], RunResult]]:
    """All bounded runs from `s0`, as (directive sequence, result) pairs, in
    deterministic depth-first order. Stops after max_sequences results."""
    emitted = 0

    def walk(
        s, dirs: tuple[Directive, ...], trace: tuple[Obs, ...], steps: int, forks: int
    ) -> Iterator[tuple[tuple[Directive, ...], RunResult]]:
        nonlocal emitted
        while True:
            if emitted >= budget.max_sequences:
                return
            if steps >= budget.fuel:
                emitted += 1
                yield dirs, result(list(trace), None, s, steps)
                return
            out = driver.step(s, None)
            if isinstance(out, OutOfDirectives):
                if forks < budget.depth:
                    for d in driver.choices(out):
                        if emitted >= budget.max_sequences:
                            return
                        out2 = driver.step(s, d)
                        if isinstance(out2, Next):
                            t2 = trace if out2.obs is None else trace + (out2.obs,)
                            yield from walk(
                                out2.state, dirs + (d,), t2, steps + 1, forks + 1
                            )
                        else:
                            emitted += 1
                            yield dirs + (d,), result(list(trace), out2, s, steps)
                    return
                d = out.correct
                out = driver.step(s, d)
                dirs = dirs + (d,)
            if isinstance(out, Next):
                if out.obs is not None:
                    trace = trace + (out.obs,)
                s = out.state
                steps += 1
                continue
            emitted += 1
            yield dirs, result(list(trace), out, s, steps)
            return

    yield from walk(s0, (), (), 0, 0)
