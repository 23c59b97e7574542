"""Bounded enumeration of attacker directive sequences.

Exploration forks every prediction point (branch outcome, call target)
within the first `depth` predictions; beyond the depth, the correct
prediction is supplied so runs still finish. Call-target candidates are
every block head plus one mid-block offset per multi-instruction block:
correct calls, wrong-function calls and mid-function injection are all
covered without exponential blowup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from .ir import Branch, FP, PC, Inst, Program, fetch
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
    eval_expr,
    is_nat,
    result,
    step_ideal,
    step_spec,
)
from .machine import LayoutMap, McProgram, McState, eval_mc, step_mc


@dataclass(frozen=True)
class ExploreBudget:
    depth: int = 3
    max_sequences: int = 200
    fuel: int = 1000


@dataclass(frozen=True)
class Driver:
    """Execution of a program under one semantics, as exploration needs
    it: `step` takes a step with an optional directive, `candidates` are
    the directives the attacker may pick at a prediction point, and
    `correct` is the directive that follows the program there."""

    step: Callable[[Any, Optional[Directive]], Outcome]
    candidates: Callable[[Any], list[Directive]]
    correct: Callable[[Any], Directive]


def _choices(
    fetch: Callable[[Any], Inst], calls: list[Directive]
) -> Callable[[Any], list[Directive]]:
    """Both outcomes at a branch, every call candidate at a call."""

    def candidates(s) -> list[Directive]:
        if isinstance(fetch(s), Branch):
            return [DBranch(True), DBranch(False)]
        return list(calls)

    return candidates


def _mir_driver(p: Program, step, masked: bool) -> Driver:
    def correct(s) -> Directive:
        # Under the ideal semantics' masking, a misspeculating state's
        # conditions read 0 and its call targets &0.
        mask = masked and s.ms
        inst = fetch(p, s.pc)
        if isinstance(inst, Branch):
            v = 0 if mask else eval_expr(inst.cond, s.regs)
            return DBranch(is_nat(v) and v != 0)
        v = FP(0) if mask else eval_expr(inst.target, s.regs)
        return DCallMir(PC(v.label, 0))

    cands: list[Directive] = [DCallMir(PC(l, 0)) for l in range(len(p.blocks))]
    cands.extend(
        DCallMir(PC(l, 1)) for l, b in enumerate(p.blocks) if len(b.insts) > 1
    )
    return Driver(step, _choices(lambda s: fetch(p, s.pc), cands), correct)


def SpecDriver(p: Program, cet: bool = True) -> Driver:
    """Speculative block-structured execution of `p`."""
    return _mir_driver(p, lambda s, d: step_spec(p, s, d, cet), False)


def IdealDriver(p: Program) -> Driver:
    """Ideal-semantics execution, with masking applied when predicting."""
    return _mir_driver(p, lambda s, d: step_ideal(p, s, d), True)


def McDriver(mc: McProgram, lay: LayoutMap) -> Driver:
    """Speculative flat-machine execution."""

    def inst(s: McState) -> Inst:
        return mc.code[s.pc - lay.data_len]

    def correct(s: McState) -> Directive:
        i = inst(s)
        if isinstance(i, Branch):
            return DBranch(eval_mc(i.cond, s.regs) != 0)
        return DCallMc(eval_mc(i.target, s.regs))

    cands: list[Directive] = [DCallMc(lay.addr(l)) for l in range(len(lay.starts))]
    cands.extend(
        DCallMc(lay.addr(l) + 1) for l in range(len(lay.starts)) if lay.sizes[l] > 1
    )
    return Driver(lambda s, d: step_mc(mc, lay, s, d), _choices(inst, cands), correct)


def explore(
    driver: Driver, s0, budget: ExploreBudget
) -> Iterator[tuple[tuple[Directive, ...], RunResult]]:
    """All bounded runs from `s0`, as (directive sequence, result) pairs, in
    deterministic depth-first order. Stops after max_sequences results."""
    emitted = 0

    def walk(
        s, dirs: tuple[Directive, ...], trace: tuple[Obs, ...], fuel: int, forks: int
    ) -> Iterator[tuple[tuple[Directive, ...], RunResult]]:
        nonlocal emitted
        while True:
            if emitted >= budget.max_sequences:
                return
            if fuel <= 0:
                emitted += 1
                yield dirs, result(list(trace), None, s)
                return
            out = driver.step(s, None)
            if isinstance(out, OutOfDirectives):
                if forks < budget.depth:
                    for d in driver.candidates(s):
                        if emitted >= budget.max_sequences:
                            return
                        out2 = driver.step(s, d)
                        if isinstance(out2, Next):
                            t2 = (
                                trace + (out2.obs,) if out2.obs is not None else trace
                            )
                            yield from walk(
                                out2.state, dirs + (d,), t2, fuel - 1, forks + 1
                            )
                        else:
                            emitted += 1
                            yield dirs + (d,), result(list(trace), out2, s)
                    return
                d = driver.correct(s)
                out = driver.step(s, d)
                dirs = dirs + (d,)
            if isinstance(out, Next):
                if out.obs is not None:
                    trace = trace + (out.obs,)
                s = out.state
                fuel -= 1
                continue
            emitted += 1
            yield dirs, result(list(trace), out, s)
            return

    yield from walk(s0, (), (), budget.fuel, 0)
