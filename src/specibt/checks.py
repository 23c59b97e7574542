"""Differential checkers: correctness of the hardening pass against the
ideal semantics, safety preservation, relative security (leakage), and
correctness of linearization, all bounded by an exploration budget.

Verdicts are three-valued. A counterexample carries the directive
sequence and both traces so it can be replayed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .ir import FP, Program
from .interp import (
    Directive,
    Next,
    Obs,
    OutOfDirectives,
    RunResult,
    SeqState,
    SpecState,
    Stuck,
    run_ideal,
    run_seq,
    run_spec,
    step_spec,
)
from .explore import Driver, ExploreBudget, McDriver, SpecDriver, explore
from .gen import ideal_of
from .hardening import FULL, PassConfig, ReservedRegs, harden
from .machine import (
    LayoutMap,
    McProgram,
    concretize_state,
    layout,
    linearize,
    run_mc,
    step_mc,
)
from .relate import (
    map_directive_mc_to_mir,
    map_obs_mir_to_mc,
    state_rel,
    trace_cmp,
)


@dataclass
class Verdict:
    status: str  # "pass" | "counterexample" | "inconclusive"
    runs: int = 0
    reason: Optional[str] = None
    directives: Optional[list[Directive]] = None
    trace1: Optional[list[Obs]] = None
    trace2: Optional[list[Obs]] = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def _counterexample(
    reason: str, dirs: Sequence[Directive], r1: RunResult, r2: RunResult, runs: int
) -> Verdict:
    return Verdict(
        "counterexample",
        runs=runs,
        reason=reason,
        directives=list(dirs),
        trace1=list(r1.trace),
        trace2=list(r2.trace),
    )


def _traces_match(r1: RunResult, r2: RunResult) -> bool:
    """Exact equality, weakened to mutual prefix only when a run was cut
    off by fuel."""
    if r1.status == "fuel" or r2.status == "fuel":
        return trace_cmp(r1.trace, r2.trace)
    return r1.trace == r2.trace


Divergence = tuple[list[Directive], RunResult, RunResult]


def _diverge(
    driver: Driver, s0, replay: Callable, budget: ExploreBudget
) -> tuple[int, Optional[Divergence]]:
    """Explore `driver` from `s0` and replay every directive sequence with
    `replay`. Returns the number of sequences run, and the first one whose
    two traces do not match, with both results, if there is one."""
    runs = 0
    for dirs, r1 in explore(driver, s0, budget):
        runs += 1
        r2 = replay(dirs)
        if not _traces_match(r1, r2):
            return runs, (list(dirs), r1, r2)
    return runs, None


def _verdict(runs: int, found: Optional[Divergence], reason: str) -> Verdict:
    if found is None:
        return Verdict("pass", runs=runs)
    return _counterexample(reason, *found, runs)


def _hardened_init(s: SeqState, r: ReservedRegs) -> SpecState:
    """The theorems' initial target state: misspeculation flag clear, callee
    register pointing at the entry, ctarget check armed."""
    regs = dict(s.regs)
    regs[r.msf] = 0
    regs[r.callee] = FP(0)
    return SpecState(s.pc, regs, s.mem, s.stk, ct=True, ms=False)


def check_bcc_specibt(
    p: Program,
    s0: SeqState,
    budget: ExploreBudget,
    r: ReservedRegs = ReservedRegs(),
    cfg: PassConfig = FULL,
) -> Verdict:
    """Every speculative behavior of the hardened program is an ideal
    behavior of the source program under the same directives."""
    hp = harden(p, r, cfg).hardened
    ideal = ideal_of(s0)
    runs, found = _diverge(
        SpecDriver(hp, cet=True),
        _hardened_init(s0, r),
        lambda dirs: run_ideal(p, ideal, dirs, budget.fuel),
        budget,
    )
    return _verdict(
        runs, found, "hardened speculative trace diverges from ideal trace"
    )


def check_safety_preservation(
    p: Program,
    s0: SeqState,
    budget: ExploreBudget,
    r: ReservedRegs = ReservedRegs(),
    cfg: PassConfig = FULL,
) -> Verdict:
    """Hardened speculative execution never reaches undefined behavior from
    a sequentially safe input."""
    seq = run_seq(p, s0, budget.fuel)
    if seq.status == "stuck":
        return Verdict("inconclusive", reason="sequential run is not safe")
    hp = harden(p, r, cfg).hardened
    runs = 0
    for dirs, res in explore(SpecDriver(hp, cet=True), _hardened_init(s0, r), budget):
        runs += 1
        if res.status == "stuck":
            return _counterexample(
                f"hardened speculative run is stuck: {res.reason}",
                dirs, res, res, runs,
            )
    return Verdict("pass", runs=runs)


def attack_search(
    p: Program,
    sp1: SpecState,
    sp2: SpecState,
    budget: ExploreBudget,
    cet: bool = True,
) -> Optional[Divergence]:
    """A directive sequence whose traces distinguish the two states, if one
    exists within the budget. Operates on `p` as given (no hardening)."""
    _, found = _diverge(
        SpecDriver(p, cet=cet),
        sp1,
        lambda dirs: run_spec(p, sp2, dirs, budget.fuel, cet=cet),
        budget,
    )
    return found


def check_relative_security(
    p: Program,
    s1: SeqState,
    s2: SeqState,
    budget: ExploreBudget,
    pipeline: str = "hardened-only",
    r: ReservedRegs = ReservedRegs(),
    cfg: PassConfig = FULL,
) -> Verdict:
    """Sequentially indistinguishable inputs stay indistinguishable under
    speculation of the hardened (and optionally linearized) program."""
    if pipeline not in ("hardened-only", "end-to-end"):
        raise ValueError(f"unknown pipeline {pipeline!r}")
    if len(s1.mem) != len(s2.mem):
        raise ValueError("the two states' memories differ in length")
    q1 = run_seq(p, s1, budget.fuel)
    q2 = run_seq(p, s2, budget.fuel)
    if q1.status == "stuck" or q2.status == "stuck":
        return Verdict("inconclusive", reason="sequential run is not safe")
    if q1.trace != q2.trace:
        return Verdict(
            "inconclusive", reason="inputs are sequentially distinguishable"
        )
    hp = harden(p, r, cfg).hardened
    h1, h2 = _hardened_init(s1, r), _hardened_init(s2, r)
    if pipeline == "hardened-only":
        runs, found = _diverge(
            SpecDriver(hp, cet=True),
            h1,
            lambda dirs: run_spec(hp, h2, dirs, budget.fuel, cet=True),
            budget,
        )
        return _verdict(runs, found, "speculative traces distinguish the inputs")
    data_len = len(s1.mem)
    mc = linearize(hp, data_len)
    lay = layout(hp, data_len)
    m2 = concretize_state(h2, lay)
    runs, found = _diverge(
        McDriver(mc, lay),
        concretize_state(h1, lay),
        lambda dirs: run_mc(mc, lay, m2, dirs, budget.fuel),
        budget,
    )
    return _verdict(runs, found, "machine-level traces distinguish the inputs")


def check_bcc_linearize(
    p: Program,
    s0: SpecState,
    data_len: int,
    budget: ExploreBudget,
    sample_every: int = 5,
) -> Verdict:
    """Every machine behavior corresponds, observation by observation and
    state by state, to a speculative behavior of `p` under the mapped
    directives. `p` runs as given; it need not be hardened."""
    if len(s0.mem) != data_len:
        raise ValueError("initial memory length must equal data_len")
    mc = linearize(p, data_len)
    lay = layout(p, data_len)
    m0 = concretize_state(s0, lay)
    runs = 0
    for dirs, _ in explore(McDriver(mc, lay), m0, budget):
        runs += 1
        v = _lockstep(p, s0, mc, lay, m0, dirs, budget.fuel, sample_every)
        if v is not None:
            v.runs = runs
            v.directives = list(dirs)
            return v
    return Verdict("pass", runs=runs)


def _lockstep(
    p: Program,
    sp: SpecState,
    mc: McProgram,
    lay: LayoutMap,
    sc,
    dirs: Sequence[Directive],
    fuel: int,
    sample_every: int,
) -> Optional[Verdict]:
    """Run both levels one instruction at a time; None means the pair is in
    full agreement for this directive sequence. A machine directive with no
    block-level counterpart (a call into the data section) is inconclusive."""
    trace_mir: list[Obs] = []
    trace_mc: list[Obs] = []
    used = 0

    def ce(reason: str) -> Verdict:
        return Verdict(
            "counterexample",
            reason=reason,
            trace1=list(map(lambda o: map_obs_mir_to_mc(o, lay), trace_mir)),
            trace2=list(trace_mc),
        )

    for step_i in range(fuel):
        out_mc = step_mc(mc, lay, sc, None)
        out_mir = step_spec(p, sp, None, cet=True)
        if isinstance(out_mc, OutOfDirectives) != isinstance(out_mir, OutOfDirectives):
            if isinstance(out_mir, Stuck):
                return Verdict("inconclusive", reason="source speculative run is stuck")
            return ce("prediction points do not line up")
        if isinstance(out_mc, OutOfDirectives):
            if used >= len(dirs):
                return None
            d_mc = dirs[used]
            used += 1
            d_mir = map_directive_mc_to_mir(d_mc, lay)
            if d_mir is None:
                return Verdict(
                    "inconclusive", reason="machine directive has no source counterpart"
                )
            out_mc = step_mc(mc, lay, sc, d_mc)
            out_mir = step_spec(p, sp, d_mir, cet=True)
        if isinstance(out_mir, Next) and isinstance(out_mc, Next):
            o1 = map_obs_mir_to_mc(out_mir.obs, lay) if out_mir.obs is not None else None
            if out_mir.obs is not None:
                trace_mir.append(out_mir.obs)
            if out_mc.obs is not None:
                trace_mc.append(out_mc.obs)
            if o1 != out_mc.obs:
                return ce("observations diverge")
            sp = out_mir.state
            sc = out_mc.state
            if step_i % sample_every == 0 and not state_rel(sp, sc, lay):
                return ce("state relation broken")
            continue
        if isinstance(out_mir, Stuck):
            return Verdict("inconclusive", reason="source speculative run is stuck")
        if out_mir.status != out_mc.status:
            return ce(f"outcomes diverge: source {out_mir.status}, machine {out_mc.status}")
        return None
    return None
