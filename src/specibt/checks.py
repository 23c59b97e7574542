"""Differential checkers: correctness of the hardening pass against the
ideal semantics, safety preservation, relative security (leakage), and
correctness of linearization, all bounded by an exploration budget.

Verdicts are three-valued. A counterexample carries the directive
sequence and both traces so it can be replayed.

The relational checks walk two runs down one directive tree (`_diverge`). A
driver steps side 1; side 2 follows in legs of `run`, each resumed where the
last stopped out of directives. At each fork the walk keys the pair on side
1's state and steps, the forks taken, side 2's state and steps (its status
alone once it has ended), and the observations one side has made past the
other's, with the side that made them. A subtree walked in full, with no
divergence and within the cap, is stored under its key with its sequence
count; when the key comes up again the count is added instead of the walk,
unless that would cross the cap. This is sound because the key fixes the
subtree. Steps are deterministic, so side 1's state, fuel left and forks
left fix its directive sequences, observations and ends; side 2 follows the
same directives, so its state and fuel fix its own, and once it has ended
only its status bears on a comparison. The traces agree up to the key's
observations, so a sequence's verdict depends on the key alone, and a stored
subtree has the same count and verdict wherever its key comes up. A subtree
that diverged is never stored (the walk stops at its first divergence, the
first in depth-first order), nor one the cap cut short (its count is not its
own): `runs` still counts the sequences covered.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional, Sequence

from .ir import FP, Program
from .interp import (
    Directive,
    Next,
    Obs,
    OutOfDirectives,
    RunResult,
    State,
    Stuck,
    result,
    run_ideal,
    run_seq,
    run_spec,
    step_spec,
)
from .explore import Driver, ExploreBudget, McDriver, SpecDriver, explore
from .gen import spec_of
from .hardening import FULL, PassConfig, ReservedRegs, harden
from .machine import (
    LayoutMap,
    McProgram,
    McState,
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


def _traces_match(r1: RunResult, r2: RunResult) -> bool:
    """Exact equality, weakened to mutual prefix only when a run was cut
    off by fuel."""
    if r1.status == "fuel" or r2.status == "fuel":
        return trace_cmp(r1.trace, r2.trace)
    return r1.trace == r2.trace


Divergence = tuple[list[Directive], RunResult, RunResult]


def _first(
    driver: Driver, s0, budget: ExploreBudget, flag: Callable[..., Any]
) -> tuple[int, Any]:
    """Explore `driver` from `s0` until `flag`, called with each directive
    sequence and its result, returns something other than None. Returns the
    number of sequences run and that return value, or None."""
    runs = 0
    for dirs, res in explore(driver, s0, budget):
        runs += 1
        found = flag(dirs, res)
        if found is not None:
            return runs, found
    return runs, None


def _diverge(
    driver: Driver, s0, run: Callable, r0, budget: ExploreBudget
) -> tuple[int, Optional[Divergence]]:
    """The paired walk above: the number of sequences covered, and the first
    one whose two traces do not match, with both results, if there is one."""
    step, depth, cap, fuel = driver.step, budget.depth, budget.max_sequences, budget.fuel
    clean: dict = {}  # key of a fork node -> sequences of its clean subtree
    runs = 0

    def frozen(s):  # a state with its registers as a frozen set of items
        return s._replace(regs=frozenset(s.regs.items()))

    def leg(r2: RunResult, t2: tuple, n2: int, ds: tuple) -> tuple:
        """Side 2 (last leg, trace, steps) after following `ds` as well."""
        if not ds or r2.status != "out-of-directives":
            return r2, t2, n2
        r = run(r2.state, ds, fuel - n2)
        return r, t2 + tuple(r.trace), n2 + r.steps

    def end(dirs: tuple, r1: RunResult, side2: tuple) -> Optional[Divergence]:
        nonlocal runs
        runs += 1
        r, t2, n2 = side2
        r2 = RunResult(list(t2), r.status, r.reason, r.state, n2)
        return None if _traces_match(r1, r2) else (list(dirs), r1, r2)

    def walk(s, dirs, t1, n1, forks, side2) -> Optional[Divergence]:
        """The subtree below side 1 at `s` and side 2 at `side2`."""
        nonlocal runs
        if runs >= cap:
            return None
        tail: tuple = ()
        while True:
            out = None if n1 >= fuel else step(s, None)
            if isinstance(out, OutOfDirectives):
                if forks < depth:
                    break
                tail += (out.correct,)
                out = step(s, out.correct)
            if not isinstance(out, Next):
                return end(dirs + tail, result(list(t1), out, s, n1), leg(*side2, tail))
            if out.obs is not None:
                t1 += (out.obs,)
            s, n1 = out.state, n1 + 1
        r2, t2, n2 = side2
        n, key = min(len(t1), len(t2)), None
        if t1[:n] == t2[:n]:
            ended = r2.status != "out-of-directives"
            key = (frozen(s), n1, forks, r2.status if ended else (frozen(r2.state), n2),
                   len(t1) > n, t1[n:] + t2[n:])
            if key in clean and runs + clean[key] <= cap:
                runs += clean[key]
                return None
        before = runs
        for d in driver.choices(out):
            if runs >= cap:
                return None
            out2, side = step(s, d), leg(*side2, (d,))
            if isinstance(out2, Next):
                t = t1 if out2.obs is None else t1 + (out2.obs,)
                found = walk(out2.state, dirs + (d,), t, n1 + 1, forks + 1, side)
            else:
                found = end(dirs + (d,), result(list(t1), out2, s, n1), side)
            if found is not None:
                return found
        if key is not None and runs < cap:
            clean[key] = runs - before
        return None

    r = run(r0, (), fuel)
    found = walk(s0, (), (), 0, 0, (r, tuple(r.trace), r.steps))
    return runs, found


def _verdict(runs: int, found: Optional[Divergence], reason: str) -> Verdict:
    if found is None:
        return Verdict("pass", runs=runs)
    dirs, r1, r2 = found
    return Verdict("counterexample", runs, reason, dirs, list(r1.trace), list(r2.trace))


def _hardened_init(s: State) -> State:
    """The theorems' initial target state: misspeculation flag clear, callee
    register pointing at the entry, ctarget check armed."""
    r = ReservedRegs()
    regs = dict(s.regs)
    regs[r.msf] = 0
    regs[r.callee] = FP(0)
    return State(s.pc, regs, s.mem, s.stk, ct=True, ms=False)


def check_bcc_specibt(
    p: Program,
    s0: State,
    budget: ExploreBudget,
    cfg: PassConfig = FULL,
) -> Verdict:
    """Every speculative behavior of the hardened program is an ideal
    behavior of the source program under the same directives."""
    hp = harden(p, cfg=cfg)
    ideal = spec_of(s0)  # not misspeculating, whatever `s0` carries
    runs, found = _diverge(
        SpecDriver(hp, cet=True),
        _hardened_init(s0),
        partial(run_ideal, p),
        ideal,
        budget,
    )
    return _verdict(
        runs, found, "hardened speculative trace diverges from ideal trace"
    )


def check_safety_preservation(
    p: Program,
    s0: State,
    budget: ExploreBudget,
    cfg: PassConfig = FULL,
) -> Verdict:
    """Hardened speculative execution never reaches undefined behavior from
    a sequentially safe input."""
    seq = run_seq(p, s0, budget.fuel)
    if seq.status == "stuck":
        return Verdict("inconclusive", reason="sequential run is not safe")
    hp = harden(p, cfg=cfg)
    runs, stuck = _first(
        SpecDriver(hp, cet=True),
        _hardened_init(s0),
        budget,
        lambda dirs, res: (list(dirs), res, res) if res.status == "stuck" else None,
    )
    reason = f"hardened speculative run is stuck: {stuck[1].reason}" if stuck else ""
    return _verdict(runs, stuck, reason)


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
        return Verdict("inconclusive", reason="sequential run is not safe")
    if q1.trace != q2.trace:
        return Verdict(
            "inconclusive", reason="inputs are sequentially distinguishable"
        )
    hp = harden(p, cfg=cfg)
    h1, h2 = _hardened_init(s1), _hardened_init(s2)
    if pipeline == "hardened-only":
        runs, found = _diverge(
            SpecDriver(hp, cet=True), h1, partial(run_spec, hp, cet=True), h2, budget
        )
        return _verdict(runs, found, "speculative traces distinguish the inputs")
    data_len = len(s1.mem)
    mc = linearize(hp, data_len)
    lay = layout(hp, data_len)
    runs, found = _diverge(
        McDriver(mc, lay),
        concretize_state(h1, lay),
        partial(run_mc, mc, lay),
        concretize_state(h2, lay),
        budget,
    )
    return _verdict(runs, found, "machine-level traces distinguish the inputs")


def check_bcc_linearize(p: Program, s0: State, budget: ExploreBudget) -> Verdict:
    """Every machine behavior corresponds, observation by observation and
    state by state, to a speculative behavior of `p` under the mapped
    directives. `p` runs as given; it need not be hardened. The data
    section is as long as `s0`'s memory."""
    mc = linearize(p, len(s0.mem))
    lay = layout(p, len(s0.mem))
    return _lockstep(p, s0, mc, lay, concretize_state(s0, lay), budget)


@dataclass(frozen=True)
class _Parted:
    """The outcome of a lockstep step on which the two levels disagree. It
    ends the run with a verdict of `status`; `obs` is the step's pair of
    observations, if it made one."""

    status: str  # "counterexample" | "inconclusive"
    reason: str
    obs: Optional[tuple[Optional[Obs], Optional[Obs]]] = None


def _lockstep_driver(p: Program, mc: McProgram, lay: LayoutMap) -> Driver:
    """`p` under the speculative semantics and its linearization `mc` in
    lockstep, under machine directives mapped to the source level. A state
    is (source state, machine state, steps taken); an observation is the
    pair of both levels' observations, the source's mapped to machine
    addresses. A step on which the levels disagree ends the run with
    `_Parted`; the state relation is checked after every fifth step. At a
    prediction point the machine's `OutOfDirectives` is returned, so the
    correct directive is the machine's."""

    def step(s, d: Optional[Directive]):
        sp, sc, i = s
        d_mir = None if d is None else map_directive_mc_to_mir(d, lay)
        if d is not None and d_mir is None:
            return _Parted("inconclusive", "machine directive has no source counterpart")
        out_mc = step_mc(mc, lay, sc, d)
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
        o1 = None if out_mir.obs is None else map_obs_mir_to_mc(out_mir.obs, lay)
        obs = None if o1 is None and out_mc.obs is None else (o1, out_mc.obs)
        if o1 != out_mc.obs:
            return _Parted("counterexample", "observations diverge", obs)
        if i % 5 == 0 and not state_rel(out_mir.state, out_mc.state, lay):
            return _Parted("counterexample", "state relation broken", obs)
        return Next((out_mir.state, out_mc.state, i + 1), obs)

    return Driver(step, McDriver(mc, lay).calls)


def _parted(dirs: Sequence[Directive], res: RunResult) -> Optional[Verdict]:
    """The verdict of a lockstep run that ended with `_Parted`, if it did,
    with the directives consumed and each level's trace up to that step."""
    if res.status not in ("counterexample", "inconclusive"):
        return None
    v = Verdict(res.status, reason=res.reason, directives=list(dirs))
    if res.status == "counterexample":
        v.trace1 = [o for o, _ in res.trace if o is not None]
        v.trace2 = [o for _, o in res.trace if o is not None]
    return v


def _lockstep(
    p: Program,
    s0: State,
    mc: McProgram,
    lay: LayoutMap,
    m0: McState,
    budget: ExploreBudget,
) -> Verdict:
    """Explore `p` from `s0` and `mc` from `m0` in lockstep; the verdict of
    the first directive sequence on which the two levels disagree, else a
    pass. A machine directive with no block-level counterpart (a call into
    the data section) is inconclusive."""
    runs, v = _first(_lockstep_driver(p, mc, lay), (s0, m0, 0), budget, _parted)
    if v is None:
        return Verdict("pass", runs=runs)
    v.runs = runs
    return v
