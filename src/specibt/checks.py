"""Differential checkers: correctness of the hardening pass against the
ideal semantics, safety preservation, relative security (leakage), and
correctness of linearization, all bounded by an exploration budget.

Verdicts are three-valued. A counterexample carries the directive
sequence and both traces so it can be replayed.

The relational checks walk two runs down one directive tree, `explore.walk`,
which counts a subtree that came out clean once per key instead of walking
it again; they compare the two traces of each sequence (`_diverge`). The
other checks take the sequences `explore` yields up to the first whose
result they reject (`_explored`).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Optional

from .ir import FP, Program, Record
from .interp import (
    Directive,
    Lockstep,
    Next,
    Obs,
    OutOfDirectives,
    RunResult,
    State,
    Stuck,
    new,
    run_ideal,
    run_seq,
    run_spec,
    step_spec,
)
from .explore import Driver, ExploreBudget, McDriver, SpecDriver, explore, walk
from .gen import spec_of
from .hardening import FULL, PassConfig, ReservedRegs, harden
from .machine import McProgram, concretize_state, linearize, run_mc, step_mc
from .relate import (
    map_directive_mc_to_mir,
    map_obs_mir_to_mc,
    state_rel,
    trace_cmp,
)


class Verdict(Record):
    status: str  # "pass" | "counterexample" | "inconclusive"
    runs: int = 0
    reason: Optional[str] = None
    directives: Optional[list[Directive]] = None
    trace1: Optional[list[Obs]] = None
    trace2: Optional[list[Obs]] = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"


# The verdict on an input whose sequential run is stuck: the hardening
# theorems assume a sequentially safe input.
UNSAFE = Verdict("inconclusive", reason="sequential run is not safe")


def _traces_match(r1: RunResult, r2: RunResult) -> bool:
    """Exact equality, weakened to mutual prefix only when a run was cut
    off by fuel."""
    if r1.status == "fuel" or r2.status == "fuel":
        return trace_cmp(r1.trace, r2.trace)
    return r1.trace == r2.trace


Divergence = tuple[list[Directive], RunResult, RunResult]


def _diverge(
    driver: Driver, s0, run: Callable, r0, budget: ExploreBudget
) -> tuple[int, Optional[Divergence]]:
    """The paired walk of `driver` from `s0` and `run` from `r0`: the number
    of sequences covered, and the first one whose two traces do not match,
    with both results, if there is one."""
    runs = 0
    for n, dirs, r1, r2 in walk(driver, s0, budget, (r0, run)):
        runs += n
        if r1 is not None and not _traces_match(r1, r2):
            return runs, (list(dirs), r1, r2)
    return runs, None


def _verdict(runs: int, found: Optional[Divergence], reason: str) -> Verdict:
    if found is None:
        return Verdict("pass", runs=runs)
    dirs, r1, r2 = found
    return Verdict("counterexample", runs, reason, dirs, list(r1.trace), list(r2.trace))


def _explored(results: Iterable, reject: Callable[[RunResult], Optional[Verdict]]) -> Verdict:
    """The verdict REJECT gives the first of `explore`'s RESULTS it rejects,
    with the sequences explored up to it and its directives, else a pass."""
    runs = 0
    for runs, (dirs, res) in enumerate(results, 1):
        v = reject(res)
        if v is not None:
            return v._replace(runs=runs, directives=list(dirs))
    return Verdict("pass", runs=runs)


def _hardened_init(s: State, cet: bool = True) -> State:
    """The theorems' initial target state: misspeculation flag clear, callee
    register pointing at the entry, ctarget check armed under `cet`, which a
    check models, as `attack` does, only where the pass inserted landing pads."""
    r = ReservedRegs()
    regs = {**s.regs, r.msf: 0, r.callee: FP(0)}
    return State(s.pc, regs, s.mem, s.stk, cet, False)


def check_bcc_specibt(
    p: Program,
    s0: State,
    budget: ExploreBudget,
    cfg: PassConfig = FULL,
) -> Verdict:
    """Every speculative behavior of the hardened program is an ideal
    behavior of the source program under the same directives, from a
    sequentially safe input."""
    if run_seq(p, s0, budget.fuel).status == "stuck":
        return UNSAFE
    hp, cet = harden(p, cfg=cfg), cfg.insert_ctarget
    ideal = spec_of(s0)  # not misspeculating, whatever `s0` carries
    runs, found = _diverge(
        SpecDriver(hp, cet),
        _hardened_init(s0, cet),
        partial(run_ideal, p),
        ideal,
        budget,
    )
    return _verdict(
        runs, found, "hardened speculative trace diverges from ideal trace"
    )


def _stuck(res: RunResult) -> Optional[Verdict]:
    """The counterexample of a stuck run, if it is, with its trace as both."""
    if res.status != "stuck":
        return None
    return Verdict("counterexample", reason=f"hardened speculative run is stuck: {res.reason}",
                   trace1=list(res.trace), trace2=list(res.trace))


def check_safety_preservation(
    p: Program,
    s0: State,
    budget: ExploreBudget,
    cfg: PassConfig = FULL,
) -> Verdict:
    """Hardened speculative execution never reaches undefined behavior from
    a sequentially safe input."""
    if run_seq(p, s0, budget.fuel).status == "stuck":
        return UNSAFE
    hp, cet = harden(p, cfg=cfg), cfg.insert_ctarget
    return _explored(explore(SpecDriver(hp, cet), _hardened_init(s0, cet), budget), _stuck)


def attack_search(
    p: Program,
    sp1: State,
    sp2: State,
    budget: ExploreBudget,
    cet: bool = True,
) -> Optional[Divergence]:
    """A directive sequence whose traces distinguish the two states, if one
    exists within the budget. Operates on `p` as given (no hardening)."""
    _, found = _diverge(
        SpecDriver(p, cet=cet), sp1, partial(run_spec, p, cet=cet), sp2, budget
    )
    return found


def check_relative_security(
    p: Program,
    s1: State,
    s2: State,
    budget: ExploreBudget,
    pipeline: str = "hardened-only",
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
        return UNSAFE
    if q1.trace != q2.trace:
        return Verdict(
            "inconclusive", reason="inputs are sequentially distinguishable"
        )
    hp, cet = harden(p, cfg=cfg), cfg.insert_ctarget
    h1, h2 = _hardened_init(s1, cet), _hardened_init(s2, cet)
    if pipeline == "hardened-only":
        runs, found = _diverge(
            SpecDriver(hp, cet), h1, partial(run_spec, hp, cet=cet), h2, budget
        )
        return _verdict(runs, found, "speculative traces distinguish the inputs")
    mc = linearize(hp, len(s1.mem))
    runs, found = _diverge(
        McDriver(mc),
        concretize_state(h1, mc.lay),
        partial(run_mc, mc),
        concretize_state(h2, mc.lay),
        budget,
    )
    return _verdict(runs, found, "machine-level traces distinguish the inputs")


def check_bcc_linearize(p: Program, s0: State, budget: ExploreBudget) -> Verdict:
    """Every machine behavior corresponds, observation by observation and
    state by state, to a speculative behavior of `p` under the mapped
    directives. `p` runs as given; it need not be hardened. The data
    section is as long as `s0`'s memory."""
    mc = linearize(p, len(s0.mem))
    return _lockstep(p, s0, mc, concretize_state(s0, mc.lay), budget)


class _Parted(Record):
    """The outcome of a lockstep step on which the two levels disagree. It
    ends the run with a verdict of `status`; `obs` is the step's pair of
    observations, if it made one."""

    status: str  # "counterexample" | "inconclusive"
    reason: str
    obs: Optional[tuple[Optional[Obs], Optional[Obs]]] = None


def _lockstep_driver(p: Program, mc: McProgram) -> Driver:
    """`p` under the speculative semantics and its linearization `mc` in
    lockstep, under machine directives mapped to the source level. A state
    is a `Lockstep` of both levels' states; an observation is the pair of
    both levels' observations, the source's mapped to machine addresses. A
    step on which the levels disagree ends the run with `_Parted`, and so
    does one after which they do not relate (`state_rel`), so they relate
    at every state a run reaches past its first. At a prediction point the
    machine's `OutOfDirectives` is returned, so the correct directive is
    the machine's."""
    lay = mc.lay

    def step(s, d: Optional[Directive]):
        sp, sc = s
        d_mir = None if d is None else map_directive_mc_to_mir(d, lay)
        if d is not None and d_mir is None:
            return _Parted("inconclusive", "machine directive has no source counterpart")
        out_mc = step_mc(mc, sc, d)
        out_mir = step_spec(p, sp, d_mir, cet=True)
        if isinstance(out_mir, Stuck):
            return _Parted("inconclusive", "source speculative run is stuck")
        if isinstance(out_mc, OutOfDirectives) != isinstance(out_mir, OutOfDirectives):
            return _Parted("counterexample", "prediction points do not line up")
        if not (isinstance(out_mc, Next) and isinstance(out_mir, Next)):
            if out_mir.status != out_mc.status:
                return _Parted("counterexample", "outcomes diverge: source "
                               f"{out_mir.status}, machine {out_mc.status}")
            return out_mc
        (sp, o1), (sc, o2) = out_mir, out_mc  # each level's next state and observation
        if o1 is not None:
            o1 = map_obs_mir_to_mc(o1, lay)
        obs = None if o1 is None and o2 is None else (o1, o2)
        if o1 != o2:
            return _Parted("counterexample", "observations diverge", obs)
        if not state_rel(sp, sc, lay):
            return _Parted("counterexample", "state relation broken", obs)
        return new(Next, (new(Lockstep, (sp, sc)), obs))

    return Driver(step, McDriver(mc).calls)


def _parted(res: RunResult) -> Optional[Verdict]:
    """The verdict of a lockstep run that ended with `_Parted`, if it did,
    with each level's trace up to that step."""
    if res.status not in ("counterexample", "inconclusive"):
        return None
    v = Verdict(res.status, reason=res.reason)
    if res.status == "counterexample":
        v = v._replace(trace1=[o for o, _ in res.trace if o is not None],
                       trace2=[o for _, o in res.trace if o is not None])
    return v


def _lockstep(
    p: Program, s0: State, mc: McProgram, m0: State, budget: ExploreBudget
) -> Verdict:
    """Explore `p` from `s0` and `mc` from `m0`, which relates to `s0`, in
    lockstep; the verdict of the first directive sequence on which the two
    levels disagree, else a pass. A machine directive with no block-level
    counterpart (a call into the data section) is inconclusive."""
    return _explored(explore(_lockstep_driver(p, mc), Lockstep(s0, m0), budget), _parted)
