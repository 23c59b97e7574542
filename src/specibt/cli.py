"""Command-line entry point: run programs under the four semantics,
harden, linearize, search for attacks, and drive the fuzzing checkers.

Exit codes: 0 success/pass, 1 IO or parse error, 2 counterexample,
3 inconclusive, 4 stuck run, 5 violated side conditions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import random
import sys
from typing import Any, Optional

import click

from . import __version__
from .checks import (
    Verdict,
    attack_search,
    check_bcc_linearize,
    check_bcc_specibt,
    check_relative_security,
    check_safety_preservation,
)
from .explore import ExploreBudget
from .gen import GenConfig, gen_program, gen_safe_input, gen_seq_equiv_pair, spec_of
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
from .interp import (
    IdealState,
    RunResult,
    SeqState,
    SpecState,
    run_ideal,
    run_seq,
    run_spec,
)
from .machine import LayoutError, concretize_state, layout, linearize, run_mc
from .textio import (
    DocError,
    ParseError,
    decode_directives,
    decode_state,
    encode_directives,
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


def _semantics_revision() -> str:
    """Hash of the semantics-defining sources, so golden files can be
    invalidated deliberately."""
    here = pathlib.Path(__file__).parent
    h = hashlib.sha256()
    for name in ("ir.py", "interp.py", "hardening.py", "machine.py", "relate.py"):
        h.update((here / name).read_bytes())
    return h.hexdigest()[:12]


def _print_version(ctx: click.Context, param: click.Parameter, value: bool) -> None:
    if not value or ctx.resilient_parsing:
        return
    click.echo(f"specibt {__version__} (semantics {_semantics_revision()})")
    ctx.exit()


@click.group()
@click.option(
    "--version",
    is_flag=True,
    callback=_print_version,
    expose_value=False,
    is_eager=True,
    help="Print version and semantics revision hash.",
)
def main() -> None:
    """Speculative control-flow integrity laboratory."""


def _load_program(path: str):
    try:
        return parse_program(pathlib.Path(path).read_text())
    except OSError as exc:
        raise click.ClickException(str(exc)) from exc
    except ParseError as exc:
        raise click.ClickException(f"{path}: {exc}") from exc


def _load_json(path: str) -> Any:
    try:
        return json.loads(pathlib.Path(path).read_text())
    except OSError as exc:
        raise click.ClickException(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise click.ClickException(f"{path}: {exc}") from exc


def _load_state(path: str, kind: str) -> SeqState:
    try:
        return decode_state(_load_json(path), kind)
    except DocError as exc:
        raise click.ClickException(f"{path}: {exc}") from exc


def _load_directives(path: Optional[str]) -> list:
    if path is None:
        return []
    try:
        return decode_directives(_load_json(path))
    except DocError as exc:
        raise click.ClickException(f"{path}: {exc}") from exc


def _emit_run(res: RunResult) -> None:
    outcome = res.status if res.reason is None else f"{res.status}:{res.reason}"
    click.echo(json.dumps({"trace": encode_trace(res.trace), "outcome": outcome}))
    if res.status == "stuck":
        sys.exit(EXIT_STUCK)


@main.command("run")
@click.argument("program", type=click.Path(exists=True))
@click.argument("state", type=click.Path(exists=True))
@click.option("--sem", type=click.Choice(["seq", "spec", "ideal", "mc"]), default="seq")
@click.option("--dir", "directives_path", type=click.Path(exists=True), default=None,
              help="JSON directive sequence for spec/ideal/mc runs.")
@click.option("--fuel", type=int, default=10_000, show_default=True)
@click.option("--ct/--no-ct", "ct", default=None,
              help="Override the initial ctarget-armed flag.")
@click.option("--ms", is_flag=True, default=False,
              help="Start with the misspeculation flag set.")
@click.option("--no-cet", is_flag=True, default=False,
              help="Model hardware without indirect-branch tracking.")
def cmd_run(program, state, sem, directives_path, fuel, ct, ms, no_cet):
    """Execute PROGRAM from STATE and print the observation trace. Under
    --sem mc the data section is as long as the state's memory."""
    p = _load_program(program)
    directives = _load_directives(directives_path)
    if sem == "seq":
        s = _load_state(state, "seq")
        _emit_run(run_seq(p, s, fuel))
        return
    if sem == "ideal":
        s = _load_state(state, "ideal")
        if ms:
            s = IdealState(s.pc, s.regs, s.mem, s.stk, True)
        _emit_run(run_ideal(p, s, directives, fuel))
        return
    s = _load_state(state, "spec")
    if ct is not None or ms:
        s = SpecState(s.pc, s.regs, s.mem, s.stk,
                      s.ct if ct is None else ct, s.ms or ms)
    if sem == "spec":
        _emit_run(run_spec(p, s, directives, fuel, cet=not no_cet))
        return
    try:
        lay = layout(p, len(s.mem))
        m = concretize_state(s, lay)
    except ValueError as exc:
        raise click.ClickException(f"{state}: {exc}") from exc
    _emit_run(run_mc(linearize(p, len(s.mem)), lay, m, directives, fuel))


@main.command("harden")
@click.argument("program", type=click.Path(exists=True))
@click.option("-o", "--output", type=click.Path(), default=None)
@click.option("--msf-reg", default="msf", show_default=True)
@click.option("--callee-reg", default="callee", show_default=True)
@click.option("--variant", type=click.Choice(sorted(VARIANTS)), default="full",
              show_default=True)
def cmd_harden(program, output, msf_reg, callee_reg, variant):
    """Apply the hardening pass and print the transformed program."""
    p = _load_program(program)
    try:
        res = harden(p, ReservedRegs(msf_reg, callee_reg), VARIANTS[variant])
    except HardenError as exc:
        click.echo(f"side condition violated: {exc}", err=True)
        sys.exit(EXIT_SIDE_CONDITION)
    text = print_program(res.hardened)
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
    p = _load_program(program)
    try:
        lay = layout(p, data_len)
    except ValueError as exc:
        click.echo(f"side condition violated: {exc}", err=True)
        sys.exit(EXIT_SIDE_CONDITION)
    mc = linearize(p, data_len)
    text = print_mc_program(mc)
    sidecar = json.dumps(
        {"data_len": lay.data_len,
         "starts": {str(l): off for l, off in enumerate(lay.starts)}}
    )
    if output:
        pathlib.Path(output).write_text(text)
    else:
        click.echo(text, nl=False)
    if layout_out:
        pathlib.Path(layout_out).write_text(sidecar + "\n")
    else:
        click.echo(sidecar, err=True)


def _verdict_doc(v: Verdict) -> dict[str, Any]:
    doc: dict[str, Any] = {"status": v.status, "runs": v.runs}
    if v.reason is not None:
        doc["reason"] = v.reason
    if v.directives is not None:
        doc["directives"] = encode_directives(v.directives)
    if v.trace1 is not None:
        doc["trace1"] = encode_trace(v.trace1)
    if v.trace2 is not None:
        doc["trace2"] = encode_trace(v.trace2)
    return doc


def _finish_verdict(v: Verdict) -> None:
    click.echo(json.dumps(_verdict_doc(v)))
    if v.status == "counterexample":
        sys.exit(EXIT_COUNTEREXAMPLE)
    if v.status == "inconclusive":
        sys.exit(EXIT_INCONCLUSIVE)


def _budget(depth: int, runs: int, fuel: int) -> ExploreBudget:
    return ExploreBudget(depth=depth, max_sequences=runs, fuel=fuel)


def _load_pair(path: str) -> tuple[SeqState, SeqState]:
    doc = _load_json(path)
    try:
        return decode_state(doc["s1"], "seq", "/s1"), decode_state(doc["s2"], "seq", "/s2")
    except (KeyError, DocError) as exc:
        raise click.ClickException(f"{path}: {exc}") from exc


@main.command("check")
@click.argument("property", type=click.Choice(["bcc", "safety", "rs", "linearize"]))
@click.argument("program", type=click.Path(exists=True))
@click.argument("state", type=click.Path(exists=True))
@click.option("--depth", type=int, default=3, show_default=True)
@click.option("--runs", type=int, default=200, show_default=True,
              help="Maximum explored directive sequences.")
@click.option("--fuel", type=int, default=1000, show_default=True)
@click.option("--pipeline", type=click.Choice(["hardened-only", "end-to-end"]),
              default="hardened-only", show_default=True, help="For rs only.")
@click.option("--variant", type=click.Choice(sorted(VARIANTS)), default="full",
              show_default=True)
def cmd_check(property, program, state, depth, runs, fuel, pipeline, variant):
    """Check one property of PROGRAM. STATE is a state JSON (bcc, safety,
    linearize) or a two-state pair JSON (rs)."""
    p = _load_program(program)
    budget = _budget(depth, runs, fuel)
    cfg = VARIANTS[variant]
    try:
        if property == "bcc":
            v = check_bcc_specibt(p, _load_state(state, "seq"), budget, cfg=cfg)
        elif property == "safety":
            v = check_safety_preservation(p, _load_state(state, "seq"), budget, cfg=cfg)
        elif property == "rs":
            s1, s2 = _load_pair(state)
            v = check_relative_security(p, s1, s2, budget, pipeline, cfg=cfg)
        else:
            s = _load_state(state, "spec")
            v = check_bcc_linearize(p, s, len(s.mem), budget)
    except LayoutError as exc:
        raise click.ClickException(f"{state}: {exc}") from exc
    except (HardenError, ValueError) as exc:
        click.echo(f"side condition violated: {exc}", err=True)
        sys.exit(EXIT_SIDE_CONDITION)
    _finish_verdict(v)


@main.command("attack")
@click.argument("program", type=click.Path(exists=True))
@click.argument("pair", type=click.Path(exists=True))
@click.option("--target", type=click.Choice(["pht", "btb", "auto"]), default="auto",
              show_default=True)
@click.option("--depth", type=int, default=3, show_default=True)
@click.option("--runs", type=int, default=500, show_default=True)
@click.option("--fuel", type=int, default=1000, show_default=True)
@click.option("--cet/--no-cet", "cet", default=None,
              help="Force the indirect-branch-tracking model on or off "
                   "(default: on iff the attacked program contains ctarget).")
def cmd_attack(program, pair, target, depth, runs, fuel, cet):
    """Search for a directive sequence distinguishing the two states in
    PAIR. Target pht attacks the program as given; btb attacks its
    masking-only hardened variant on hardware without indirect-branch
    tracking."""
    p = _load_program(program)
    s1, s2 = _load_pair(pair)
    budget = _budget(depth, runs, fuel)
    candidates = []
    if target in ("pht", "auto"):
        candidates.append(("pht", p))
    if target in ("btb", "auto"):
        try:
            candidates.append(("btb", harden(p, cfg=MASK_ONLY).hardened))
        except HardenError:
            pass  # already-instrumented input: attack it as given only
    for name, q in candidates:
        has_ibt = any(isinstance(i, CTarget) for b in q.blocks for i in b.insts)
        use_cet = has_ibt if cet is None else cet
        used = used_registers(q)
        sp1, sp2 = spec_of(s1, ct=use_cet), spec_of(s2, ct=use_cet)
        for sp in (sp1, sp2):
            if "msf" in used:
                sp.regs.setdefault("msf", 0)
            if "callee" in used:
                sp.regs.setdefault("callee", FP(0))
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
            p for p in (_load_program(str(f)) for f in files)
            if not wf_program(p, mode="source")
        ]
        if not programs:
            raise click.ClickException(f"no source programs in {corpus}")
        # sample register values for the registers each program actually uses
        cfgs = [
            dataclasses.replace(
                cfg, reg_pool=tuple(sorted(used_registers(p))) or cfg.reg_pool
            )
            for p in programs
        ]
        count = 0
        for round_ in range(10 * runs):
            progress = False
            for p, pcfg in zip(programs, cfgs):
                if count >= runs:
                    return
                s = gen_safe_input(rng, p, pcfg, fuel)
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
    f = click.option("--depth", type=int, default=3, show_default=True)(f)
    f = click.option("--runs", type=int, default=100, show_default=True,
                     help="Number of fuzzed programs.")(f)
    f = click.option("--fuel", type=int, default=1000, show_default=True)(f)
    f = click.option("--sequences", type=int, default=100, show_default=True,
                     help="Directive sequences explored per program.")(f)
    f = click.option("--corpus", type=click.Path(exists=True, file_okay=False),
                     default=None)(f)
    return f


def _fuzz_loop(cases, depth, sequences, fuel, one) -> None:
    """Check every case (a tuple of arguments to `one`, before the budget)
    and print the verdict: the first counterexample, with the sequences of
    all cases up to it, or a pass over all of them."""
    budget = _budget(depth, sequences, fuel)
    total = 0
    for case in cases:
        v = one(*case, budget)
        if v.status == "counterexample":
            v.runs = total + v.runs
            _finish_verdict(v)
            return
        total += v.runs
    _finish_verdict(Verdict("pass", runs=total))


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
    def one(p, s, b):
        return check_bcc_linearize(p, spec_of(s), len(s.mem), b)

    _fuzz_loop(_fuzz_inputs(corpus, seed, runs, fuel), depth, sequences, fuel, one)


if __name__ == "__main__":
    main()
