"""Command-line entry point: run programs under the four semantics,
harden, linearize, search for attacks, and drive the fuzzing checkers.

Exit codes: 0 success/pass, 1 IO or parse error or directives that do not
fit the run, 2 counterexample, 3 inconclusive, 4 stuck run, 5 violated side
conditions.
"""

from __future__ import annotations

import json
import pathlib
import random
import sys
from typing import Any, Callable, NoReturn, Optional

import click

from . import SEMANTICS_REVISION, __version__
from .checks import (
    Verdict,
    attack_search,
    check_bcc_linearize,
    check_bcc_specibt,
    check_relative_security,
    check_safety_preservation,
)
from .explore import ExploreBudget
from .gen import (
    GenConfig,
    gen_program,
    gen_safe_input,
    gen_seq_equiv_pair,
    no_input_terminates,
    spec_of,
)
from .hardening import (
    FULL,
    MASK_ONLY,
    NO_CALL_MASK,
    NO_EDGE_SPLIT,
    NO_ENTRY_CHECK,
    HardenError,
    PassConfig,
    ReservedRegs,
    harden,
)
from .ir import CTarget, FP, used_registers, wf_program
from .interp import RunResult, State, run_ideal, run_seq, run_spec, wf_directives_mir
from .machine import LayoutError, concretize_state, linearize, run_mc, wf_directives_mc
from .textio import (
    DocError,
    ParseError,
    decode_directives,
    decode_pair,
    decode_state,
    encode_directives,
    encode_layout,
    encode_trace,
    parse_program,
    print_mc_program,
    print_program,
)

VARIANTS: dict[str, PassConfig] = {
    "full": FULL,
    "mask-only": MASK_ONLY,
    "no-edge-split": NO_EDGE_SPLIT,
    "no-entry-check": NO_ENTRY_CHECK,
    "no-call-mask": NO_CALL_MASK,
}

EXIT_COUNTEREXAMPLE = 2
EXIT_INCONCLUSIVE = 3
EXIT_STUCK = 4
EXIT_SIDE_CONDITION = 5

# Budgets of check, attack and fuzz-*: a zero count would check nothing.
COUNT = click.IntRange(min=1)
DEPTH = click.IntRange(min=0)


def _print_version(ctx: click.Context, param: click.Parameter, value: bool) -> None:
    if not value or ctx.resilient_parsing:
        return
    click.echo(f"specibt {__version__} (semantics {SEMANTICS_REVISION})")
    ctx.exit()


@click.group()
@click.option(
    "--version",
    is_flag=True,
    callback=_print_version,
    expose_value=False,
    is_eager=True,
    help="Print version and semantics revision.",
)
def main() -> None:
    """Speculative control-flow integrity laboratory."""


def _load(path: str, decode: Callable, *args) -> Any:
    """Read PATH and decode it: `parse_program` takes the text, every other
    decoder the JSON document. Unreadable or malformed input exits 1."""
    try:
        text = pathlib.Path(path).read_text()
        return decode(text if decode is parse_program else json.loads(text), *args)
    except OSError as exc:
        raise click.ClickException(str(exc)) from exc
    except (ParseError, json.JSONDecodeError, DocError) as exc:
        raise click.ClickException(f"{path}: {exc}") from exc


def _violated(exc: Exception) -> NoReturn:
    click.echo(f"side condition violated: {exc}", err=True)
    sys.exit(EXIT_SIDE_CONDITION)


def _emit_run(res: RunResult) -> None:
    outcome = res.status if res.reason is None else f"{res.status}:{res.reason}"
    click.echo(json.dumps({"trace": encode_trace(res.trace), "outcome": outcome}))
    if res.status == "stuck":
        sys.exit(EXIT_STUCK)
    if res.status == "directive-mismatch":
        sys.exit(1)


@main.command("run")
@click.argument("program", type=click.Path(exists=True))
@click.argument("state", type=click.Path(exists=True))
@click.option("--sem", type=click.Choice(["seq", "spec", "ideal", "mc"]), default="seq")
@click.option("--dir", "directives_path", type=click.Path(exists=True), default=None,
              help="JSON directive sequence for spec/ideal/mc runs.")
@click.option("--fuel", type=COUNT, default=10_000, show_default=True)
@click.option("--ct/--no-ct", "ct", default=None,
              help="Override the initial ctarget-armed flag (spec, mc).")
@click.option("--ms", is_flag=True, default=False,
              help="Start with the misspeculation flag set (spec, ideal, mc).")
@click.option("--no-cet", is_flag=True, default=False,
              help="Model hardware without indirect-branch tracking (spec).")
def cmd_run(program, state, sem, directives_path, fuel, ct, ms, no_cet):
    """Execute PROGRAM from STATE and print the observation trace. Under
    --sem mc the data section is as long as the state's memory. Call
    directives name block labels and offsets of PROGRAM under spec and
    ideal, and code addresses under mc."""
    ignored = {"seq": "--ct --no-ct --ms --no-cet", "ideal": "--ct --no-ct --no-cet",
               "mc": "--no-cet", "spec": ""}[sem].split()
    given = {"--ct": ct is True, "--no-ct": ct is False, "--ms": ms, "--no-cet": no_cet}
    unread = [f for f in ignored if given[f]]
    if unread:
        raise click.UsageError(f"{', '.join(unread)}: no effect under --sem {sem}")
    p = _load(program, parse_program)
    directives = _load(directives_path, decode_directives) if directives_path else []
    misfit = f"{directives_path}: directives do not fit --sem {sem}"
    if sem == "seq":
        if directives:
            raise click.ClickException(misfit)
        _emit_run(run_seq(p, _load(state, decode_state), fuel))
        return
    if sem != "mc" and not wf_directives_mir(p, directives):
        raise click.ClickException(misfit)
    s = _load(state, decode_state)
    s = spec_of(s, s.ct if ct is None else ct, s.ms or ms)
    if sem == "ideal":
        _emit_run(run_ideal(p, s, directives, fuel))
        return
    if sem == "spec":
        _emit_run(run_spec(p, s, directives, fuel, cet=not no_cet))
        return
    try:
        mc = linearize(p, len(s.mem))
    except ValueError as exc:
        _violated(exc)
    try:
        m = concretize_state(s, mc.lay)
    except ValueError as exc:
        raise click.ClickException(f"{state}: {exc}") from exc
    if not wf_directives_mc(directives, mc):
        raise click.ClickException(misfit)
    _emit_run(run_mc(mc, m, directives, fuel))


@main.command("harden")
@click.argument("program", type=click.Path(exists=True))
@click.option("-o", "--output", type=click.Path(), default=None)
@click.option("--msf-reg", default="msf", show_default=True)
@click.option("--callee-reg", default="callee", show_default=True)
@click.option("--variant", type=click.Choice(sorted(VARIANTS)), default="full",
              show_default=True)
def cmd_harden(program, output, msf_reg, callee_reg, variant):
    """Apply the hardening pass and print the transformed program."""
    p = _load(program, parse_program)
    try:
        hp = harden(p, ReservedRegs(msf_reg, callee_reg), VARIANTS[variant])
    except HardenError as exc:
        _violated(exc)
    text = print_program(hp)
    if output:
        pathlib.Path(output).write_text(text)
    else:
        click.echo(text, nl=False)


@main.command("linearize")
@click.argument("program", type=click.Path(exists=True))
@click.option("--data-len", type=int, required=True)
@click.option("-o", "--output", type=click.Path(), default=None)
@click.option("--layout-out", type=click.Path(), default=None,
              help="Layout sidecar path (default: layout JSON on stderr).")
def cmd_linearize(program, data_len, output, layout_out):
    """Flatten PROGRAM to machine code and emit the layout sidecar."""
    p = _load(program, parse_program)
    try:
        mc = linearize(p, data_len)
    except ValueError as exc:
        _violated(exc)
    text = print_mc_program(mc)
    sidecar = json.dumps(encode_layout(mc.lay))
    if output:
        pathlib.Path(output).write_text(text)
    else:
        click.echo(text, nl=False)
    if layout_out:
        pathlib.Path(layout_out).write_text(sidecar + "\n")
    else:
        click.echo(sidecar, err=True)


_ENCODE = {"directives": encode_directives, "trace1": encode_trace, "trace2": encode_trace}


def _verdict_doc(v: Verdict) -> dict[str, Any]:
    """The fields of `v` that are set, in order, with directives and traces
    encoded."""
    return {k: _ENCODE[k](x) if k in _ENCODE else x
            for k, x in zip(v._fields, v) if x is not None}


def _finish_verdict(v: Verdict) -> None:
    click.echo(json.dumps(_verdict_doc(v)))
    if v.status == "counterexample":
        sys.exit(EXIT_COUNTEREXAMPLE)
    if v.status == "inconclusive":
        sys.exit(EXIT_INCONCLUSIVE)


@main.command("check")
@click.argument("property", type=click.Choice(["bcc", "safety", "rs", "linearize"]))
@click.argument("program", type=click.Path(exists=True))
@click.argument("state", type=click.Path(exists=True))
@click.option("--depth", type=DEPTH, default=3, show_default=True)
@click.option("--runs", type=COUNT, default=200, show_default=True,
              help="Maximum explored directive sequences.")
@click.option("--fuel", type=COUNT, default=1000, show_default=True)
@click.option("--pipeline", type=click.Choice(["hardened-only", "end-to-end"]),
              default="hardened-only", show_default=True, help="For rs only.")
@click.option("--variant", type=click.Choice(sorted(VARIANTS)), default="full",
              show_default=True)
def cmd_check(property, program, state, depth, runs, fuel, pipeline, variant):
    """Check one property of PROGRAM. STATE is a state JSON (bcc, safety,
    linearize) or a two-state pair JSON (rs)."""
    p = _load(program, parse_program)
    budget = ExploreBudget(depth, runs, fuel)
    cfg = VARIANTS[variant]
    try:
        if property == "bcc":
            v = check_bcc_specibt(p, _load(state, decode_state), budget, cfg=cfg)
        elif property == "safety":
            v = check_safety_preservation(p, _load(state, decode_state), budget, cfg=cfg)
        elif property == "rs":
            s1, s2 = _load(state, decode_pair)
            v = check_relative_security(p, s1, s2, budget, pipeline, cfg=cfg)
        else:
            v = check_bcc_linearize(p, _load(state, decode_state), budget)
    except LayoutError as exc:
        raise click.ClickException(f"{state}: {exc}") from exc
    except (HardenError, ValueError) as exc:
        _violated(exc)
    _finish_verdict(v)


@main.command("attack")
@click.argument("program", type=click.Path(exists=True))
@click.argument("pair", type=click.Path(exists=True))
@click.option("--target", type=click.Choice(["pht", "btb", "auto"]), default="auto",
              show_default=True)
@click.option("--depth", type=DEPTH, default=3, show_default=True)
@click.option("--runs", type=COUNT, default=500, show_default=True)
@click.option("--fuel", type=COUNT, default=1000, show_default=True)
@click.option("--cet/--no-cet", "cet", default=None,
              help="Force the indirect-branch-tracking model on or off "
                   "(default: on iff the attacked program contains ctarget).")
def cmd_attack(program, pair, target, depth, runs, fuel, cet):
    """Search for a directive sequence distinguishing the two states in
    PAIR. Target pht attacks the program as given; btb attacks its
    masking-only hardened variant on hardware without indirect-branch
    tracking, and exits 5 if the pass rejects the program."""
    p = _load(program, parse_program)
    s1, s2 = _load(pair, decode_pair)
    budget = ExploreBudget(depth, runs, fuel)
    candidates = []
    if target in ("pht", "auto"):
        candidates.append(("pht", p))
    if target in ("btb", "auto"):
        try:
            candidates.append(("btb", harden(p, cfg=MASK_ONLY)))
        except HardenError as exc:
            if target == "btb":
                _violated(exc)
            # auto: attack the program as given only
    r = ReservedRegs()
    for name, q in candidates:
        has_ibt = any(isinstance(i, CTarget) for b in q.blocks for i in b.insts)
        use_cet = has_ibt if cet is None else cet
        # reserved registers the program reads start as on entry, unless given
        used = used_registers(q)
        init = {k: v for k, v in ((r.msf, 0), (r.callee, FP(0))) if k in used}
        sp1, sp2 = (State(s.pc, {**init, **s.regs}, s.mem, s.stk, ct=use_cet)
                    for s in (s1, s2))
        found = attack_search(q, sp1, sp2, budget, cet=use_cet)
        if found:
            dirs, r1, r2 = found
            click.echo(json.dumps({
                "target": name,
                "directives": encode_directives(dirs),
                "trace1": encode_trace(r1.trace),
                "trace2": encode_trace(r2.trace),
            }))
            return
    click.echo("no distinguishing directives within budget", err=True)
    sys.exit(1)


def _fuzz_inputs(corpus: Optional[str], seed: int, runs: int, fuel: int):
    """Yield (program, safe state) pairs, from a corpus directory or the
    generator."""
    rng = random.Random(seed)
    cfg = GenConfig()
    if corpus:
        files = sorted(pathlib.Path(corpus).glob("*.mir"))
        if not files:
            raise click.ClickException(f"no .mir files in {corpus}")
        # Instrumented or ill-formed entries cannot be re-hardened; skip them.
        programs = [
            p for p in (_load(str(f), parse_program) for f in files)
            if not wf_program(p, mode="source")
        ]
        if not programs:
            raise click.ClickException(f"no source programs in {corpus}")
        # sample register values for the registers each program actually uses
        cfgs = [cfg._replace(reg_pool=tuple(sorted(used_registers(p))) or cfg.reg_pool)
                for p in programs]
        # the all-UV check's verdict depends on the program only
        hopeless = [no_input_terminates(p, c, fuel) for p, c in zip(programs, cfgs)]
        count = 0
        for round_ in range(10 * runs):
            progress = False
            for p, pcfg, skip in zip(programs, cfgs, hopeless):
                if count >= runs:
                    return
                s = gen_safe_input(rng, p, pcfg, fuel, hopeless=skip)
                if s is not None:
                    count += 1
                    progress = True
                    yield p, s
            if not progress:
                raise click.ClickException(
                    f"could not sample safe inputs for {corpus}"
                )
        return
    produced = 0
    for _ in range(50 * runs):
        if produced >= runs:
            return
        p = gen_program(rng, cfg)
        s = gen_safe_input(rng, p, cfg, fuel)
        if s is None:
            continue
        produced += 1
        yield p, s
    raise click.ClickException("could not sample enough safe inputs")


def _fuzz_options(f):
    f = click.option("--seed", type=int, default=0, show_default=True)(f)
    f = click.option("--depth", type=DEPTH, default=3, show_default=True)(f)
    f = click.option("--runs", type=COUNT, default=100, show_default=True,
                     help="Number of fuzzed programs.")(f)
    f = click.option("--fuel", type=COUNT, default=1000, show_default=True)(f)
    f = click.option("--sequences", type=COUNT, default=100, show_default=True,
                     help="Directive sequences explored per program.")(f)
    f = click.option("--corpus", type=click.Path(exists=True, file_okay=False),
                     default=None)(f)
    return f


def _fuzz_loop(cases, depth, sequences, fuel, one) -> None:
    """Check every case (a tuple of arguments to `one`, before the budget)
    and print the verdict: the first counterexample, with the sequences of
    all cases up to it, else a pass over all of them, or inconclusive if no
    case passed."""
    budget = ExploreBudget(depth, sequences, fuel)
    total = 0
    passed = False
    for case in cases:
        v = one(*case, budget)
        if v.status == "counterexample":
            _finish_verdict(v._replace(runs=total + v.runs))
            return
        total += v.runs
        passed = passed or v.ok
    _finish_verdict(Verdict("pass" if passed else "inconclusive", runs=total))


@main.command("fuzz-bcc")
@_fuzz_options
def cmd_fuzz_bcc(corpus, seed, depth, runs, fuel, sequences):
    """Fuzz hardened-speculative vs source-ideal trace equality."""
    _fuzz_loop(_fuzz_inputs(corpus, seed, runs, fuel), depth, sequences, fuel,
               check_bcc_specibt)


@main.command("fuzz-safety")
@_fuzz_options
def cmd_fuzz_safety(corpus, seed, depth, runs, fuel, sequences):
    """Fuzz for speculative undefined behavior in hardened programs."""
    _fuzz_loop(_fuzz_inputs(corpus, seed, runs, fuel), depth, sequences, fuel,
               check_safety_preservation)


@main.command("fuzz-rs")
@_fuzz_options
@click.option("--pipeline", type=click.Choice(["hardened-only", "end-to-end"]),
              default="hardened-only", show_default=True)
def cmd_fuzz_rs(corpus, seed, depth, runs, fuel, sequences, pipeline):
    """Fuzz relative security on sequentially equivalent state pairs."""
    if corpus:
        raise click.ClickException(
            "fuzz-rs needs generated state pairs; --corpus is unsupported here"
        )
    rng = random.Random(seed)
    pairs = (gen_seq_equiv_pair(rng, GenConfig(), fuel) for _ in range(runs))
    _fuzz_loop(((q.program, q.s1, q.s2) for q in pairs), depth, sequences, fuel,
               lambda p, s1, s2, b: check_relative_security(p, s1, s2, b, pipeline))


@main.command("fuzz-linearize")
@_fuzz_options
def cmd_fuzz_linearize(corpus, seed, depth, runs, fuel, sequences):
    """Fuzz machine-level vs block-level lockstep correspondence."""
    _fuzz_loop(_fuzz_inputs(corpus, seed, runs, fuel), depth, sequences, fuel,
               check_bcc_linearize)


if __name__ == "__main__":
    main()
