"""In-process tracing of specibt's layers, from outside the program.

The tracer replaces each traced function with a timing wrapper in every
specibt module that binds it by name (`gen_safe_input` is bound in
`specibt.gen` and `specibt.cli`; `step_spec` in `specibt.interp`,
`specibt.explore` and `specibt.checks`), and puts the originals back on
`uninstall`. A layer is a module. Only each layer's entry points are traced;
helpers called once per expression node (`eval_expr`, `fetch`) are not, so
the tracing cost stays a modest share of a step.

Every wrapper is a span: self time is its duration minus the spans that ran
inside it. The `explore` generator is timed on each `__next__`, where its
work happens, not when it is created.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

# Layer (module) -> traced functions. `_lockstep` is private but is the whole
# of the lockstep phase of `check_bcc_linearize`, so it is traced as well.
TRACED = {
    "gen": ("gen_program", "gen_state", "gen_safe_input", "gen_seq_equiv_pair"),
    "interp": ("step_seq", "step_spec", "step_ideal",
               "run_seq", "run_spec", "run_ideal"),
    "machine": ("step_mc", "run_mc", "linearize", "layout", "concretize_state"),
    "hardening": ("harden",),
    "explore": ("explore",),
    "checks": ("check_bcc_specibt", "check_safety_preservation",
               "check_relative_security", "check_bcc_linearize",
               "attack_search", "_lockstep"),
    "relate": ("state_rel", "trace_cmp", "map_directive_mc_to_mir",
               "map_obs_mir_to_mc"),
    "textio": ("parse_program", "print_program", "decode_state",
               "encode_trace", "encode_directives"),
}
CHECK_ENTRIES = frozenset(TRACED["checks"]) - {"_lockstep"}
REPLAYS = frozenset({"run_spec", "run_ideal", "run_mc"})
STEPS = frozenset({"step_seq", "step_spec", "step_ideal", "step_mc"})
RUNNERS = frozenset({"run_seq", "run_spec", "run_ideal", "run_mc"})

clock = time.perf_counter


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0  # inclusive seconds
    self: float = 0.0  # seconds not covered by spans inside it


@dataclass
class Tracer:
    stats: dict[str, Stat] = field(default_factory=dict)
    layer_time: Counter = field(default_factory=Counter)  # outermost spans only
    events: Counter = field(default_factory=Counter)
    program_s: list[float] = field(default_factory=list)
    child: float = 0.0  # time of finished spans inside the open span
    depth: Counter = field(default_factory=Counter)  # open spans per layer
    open: Counter = field(default_factory=Counter)  # open spans per function
    _drawn: dict[int, Any] = field(default_factory=dict)
    _checked: set[int] = field(default_factory=set)
    _patched: list[tuple[Any, str, Any]] = field(default_factory=list)

    # -- spans -------------------------------------------------------------

    def span(self, name: str, layer: str, f: Callable, *a, **k):
        """Call f as a span named `name` in `layer`."""
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        outer, self.child = self.child, 0.0
        outermost = not self.depth[layer]
        self.depth[layer] += 1
        self.open[name] += 1
        t0 = clock()
        try:
            return f(*a, **k)
        finally:
            dt = clock() - t0
            self.depth[layer] -= 1
            self.open[name] -= 1
            stat.calls += 1
            stat.total += dt
            stat.self += dt - self.child
            self.child = outer + dt
            if outermost:
                self.layer_time[layer] += dt
            if name in REPLAYS and self.depth["checks"]:
                self.events["replay_runs"] += 1
                self.events["replay_s"] += dt
            elif name in STEPS and self.depth["explore"]:
                self.events["explore_steps"] += 1
            elif name in CHECK_ENTRIES and outermost:
                self.program_s.append(dt)

    def _wrap(self, layer: str, name: str, f: Callable) -> Callable:
        span = self.span
        after = (self._after_check if name in CHECK_ENTRIES
                 else self._after_run if name in RUNNERS
                 else getattr(self, "_after_" + name, None))
        if name == "explore":
            def wrapper(*a, **k):
                return _TimedIter(self, f(*a, **k))
        elif after is None:
            def wrapper(*a, **k):
                return span(name, layer, f, *a, **k)
        else:
            def wrapper(*a, **k):
                r = span(name, layer, f, *a, **k)
                after(r, *a)
                return r
        wrapper.__wrapped__ = f
        return wrapper

    # -- result hooks ------------------------------------------------------

    def _after_gen_program(self, p, *a) -> None:
        self._drawn[id(p)] = p  # the reference keeps the id unique
        self.events["pair_programs"] += self.open["gen_seq_equiv_pair"] > 0

    def _after_gen_safe_input(self, s, *a) -> None:
        self.events["safe_inputs"] += s is not None

    def _after_gen_seq_equiv_pair(self, pair, *a) -> None:
        self.events["pairs"] += 1

    def _after_check(self, v, p, *a) -> None:
        if self.depth["checks"]:
            return
        self.events["verdicts"] += 1
        self.events["inconclusive"] += v.status == "inconclusive"
        if id(p) in self._drawn:
            self._checked.add(id(p))

    def _after_run(self, r, *a) -> None:
        self.events["fuel_cut_runs"] += r.status == "fuel"

    def merge(self, other: "Tracer") -> None:
        for name, s in other.stats.items():
            mine = self.stats.setdefault(name, Stat())
            mine.calls += s.calls
            mine.total += s.total
            mine.self += s.self
        self.layer_time.update(other.layer_time)
        self.events.update(other.events)
        self.program_s += other.program_s

    def end_command(self) -> None:
        """Settle the per-command bookkeeping of drawn programs."""
        self.events["programs_drawn"] += len(self._drawn)
        self.events["programs_rejected"] += len(self._drawn) - len(self._checked)
        self._drawn.clear()
        self._checked.clear()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every traced function in every specibt module binding it."""
        mods = [m for n, m in sys.modules.items()
                if m is not None and (n == "specibt" or n.startswith("specibt."))]
        for layer, names in TRACED.items():
            home = sys.modules[f"specibt.{layer}"]
            for name in names:
                f = getattr(home, name)
                w = self._wrap(layer, name, f)
                for m in mods:
                    if getattr(m, name, None) is f:
                        self._patched.append((m, name, f))
                        setattr(m, name, w)

    def uninstall(self) -> None:
        for m, name, f in reversed(self._patched):
            setattr(m, name, f)
        self._patched.clear()


class _TimedIter:
    """The explore generator, with each `__next__` timed as a span."""

    def __init__(self, tracer: Tracer, gen):
        self.tracer = tracer
        self.gen = gen

    def __iter__(self):
        return self

    def __next__(self):
        item = self.tracer.span("explore", "explore", next, self.gen)
        self.tracer.events["sequences"] += 1
        self.tracer.events["fuel_cut_runs"] += item[1].status == "fuel"
        return item


def _q(xs: list[float], q: float) -> float:
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def _rate(n: float, s: float) -> float:
    return n / s if s > 0 else 0.0


def layer_metrics(tr: Tracer, traced_s: float, untraced_s: float,
                  commands: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as name -> (value, unit). Work counts are per
    verdict, so runs that fit a different number of rounds compare."""
    st = tr.stats.get
    ev = tr.events
    verdicts = ev["verdicts"]

    def calls(name: str) -> int:
        s = st(name)
        return s.calls if s else 0

    def total(*names: str) -> float:
        return sum(st(n).total for n in names if st(n))

    def self_s(name: str) -> float:
        return st(name).self if st(name) else 0.0

    def per_verdict(n: float) -> tuple[float, str]:
        return _rate(n, verdicts), "1/verdict"

    def per_call_us(name: str) -> tuple[float, str]:
        return _rate(total(name), calls(name)) * 1e6, "us"

    def per_s(n: float, *names: str) -> tuple[float, str]:
        return _rate(n, total(*names)), "1/s"

    checks_s = total(*CHECK_ENTRIES)
    program_s = tr.program_s or [0.0]
    return {
        "gen.safe_inputs_per_s": per_s(ev["safe_inputs"], "gen_safe_input"),
        "gen.attempts_per_accepted": (_rate(calls("gen_state"), ev["safe_inputs"]), "ratio"),
        "gen.programs_rejected_share": (_rate(ev["programs_rejected"],
                                              ev["programs_drawn"]), "share"),
        "gen.pair_programs_per_pair": (_rate(ev["pair_programs"], ev["pairs"]), "ratio"),
        "gen.share": (_rate(tr.layer_time["gen"], traced_s), "share"),
        "interp.seq_steps": per_verdict(calls("step_seq")),
        "interp.seq_steps_per_s": per_s(calls("step_seq"), "step_seq"),
        "interp.spec_steps": per_verdict(calls("step_spec")),
        "interp.spec_steps_per_s": per_s(calls("step_spec"), "step_spec"),
        "interp.ideal_steps": per_verdict(calls("step_ideal")),
        "interp.ideal_steps_per_s": per_s(calls("step_ideal"), "step_ideal"),
        "interp.fuel_cut_runs": per_verdict(ev["fuel_cut_runs"]),
        "machine.mc_steps": per_verdict(calls("step_mc")),
        "machine.mc_steps_per_s": per_s(calls("step_mc"), "step_mc"),
        "machine.linearize_us": per_call_us("linearize"),
        "machine.layout_us": per_call_us("layout"),
        "machine.concretize_us": per_call_us("concretize_state"),
        "hardening.calls": per_verdict(calls("harden")),
        "hardening.harden_us": per_call_us("harden"),
        "explore.sequences": per_verdict(ev["sequences"]),
        "explore.sequences_per_s": per_s(ev["sequences"], "explore"),
        "explore.self_s": (_rate(self_s("explore"), commands), "s/cmd"),
        "explore.steps_per_sequence": (_rate(ev["explore_steps"], ev["sequences"]), "ratio"),
        "checks.replay_runs": per_verdict(ev["replay_runs"]),
        "checks.replay_share": (_rate(ev["replay_s"], checks_s), "share"),
        "checks.lockstep_share": (_rate(total("_lockstep"), checks_s), "share"),
        "checks.inconclusive": per_verdict(ev["inconclusive"]),
        "checks.program_s_p50": (_q(program_s, 0.5), "s"),
        "checks.program_s_p90": (_q(program_s, 0.9), "s"),
        "checks.program_samples": (len(tr.program_s), "count"),
        "relate.state_rel_calls": per_verdict(calls("state_rel")),
        "relate.state_rel_us": per_call_us("state_rel"),
        "relate.trace_cmp_calls": per_verdict(calls("trace_cmp")),
        "textio.parse_us": per_call_us("parse_program"),
        "cli.self_s": (_rate(self_s("cli"), commands), "s/cmd"),
        "trace.overhead": (_rate(traced_s, untraced_s), "ratio"),
    }
