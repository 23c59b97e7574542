"""Command-line entry point: run programs under the four semantics,
harden, linearize, search for attacks, and drive the fuzzing checkers.

Exit codes: 0 success/pass, 1 IO or parse error or directives that do not
fit the run, 2 counterexample or usage error, 3 inconclusive, 4 stuck run,
5 violated side conditions. A usage error prints nothing on standard output,
so a verdict's JSON line tells a counterexample from it.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import random
import sys
from functools import partial
from typing import Any, Callable, NoReturn, Optional

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
from .ir import CTarget, FP, PC, used_registers, wf_program
from .interp import DBranch, DCallMc, DCallMir, RunResult, State, run_ideal, run_seq, run_spec
from .machine import LayoutError, concretize_state, linearize, run_mc
from .textio import (DocError, ParseError, decode_directives, decode_pair, decode_state,
                     encode_directives, encode_layout, encode_trace, parse_program,
                     print_mc_program, print_program)

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


def _checked(test: Callable[[str], bool], fault: str, convert: Callable = str) -> Callable:
    """A `type=` function: its text converted, or a usage error unless TEST."""
    def check(text: str) -> Any:
        if not test(text):
            raise argparse.ArgumentTypeError(f"Invalid value: {text!r} {fault}")
        return convert(text)
    return check


# Budgets of check, attack and fuzz-*: a zero count would check nothing.
COUNT = _checked(lambda t: t.isdecimal() and int(t) > 0, "is not a positive integer", int)
DEPTH = _checked(str.isdecimal, "is not a natural number", int)
_existing = _checked(lambda t: pathlib.Path(t).exists(), "does not exist")
_directory = _checked(lambda t: pathlib.Path(t).is_dir(), "is not a directory")


def _fail(msg: str) -> NoReturn:
    print(f"Error: {msg}", file=sys.stderr)
    sys.exit(1)


def _load(path: str, decode: Callable) -> Any:
    """Read PATH and decode it: `parse_program` takes the text, every other
    decoder the JSON document. Unreadable or malformed input exits 1."""
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
        return decode(text if decode is parse_program else json.loads(text))
    except OSError as exc:
        _fail(str(exc))
    except (ParseError, json.JSONDecodeError, DocError, UnicodeDecodeError) as exc:
        _fail(f"{path}: {exc}")
    except RecursionError:
        _fail(f"{path}: nested too deeply")


def _no_effect(under: str, *flags: tuple[str, bool, bool]) -> None:
    """A usage error (exit 2) naming each flag given that UNDER does not
    read; FLAGS are (flag, given, read) triples."""
    unread = [f for f, given, read in flags if given and not read]
    if unread:
        raise argparse.ArgumentError(None, f"{', '.join(unread)}: no effect under {under}")


def _write(path: Optional[str], text: str, stream: Any = None) -> None:
    """Write TEXT to the file PATH if given, else to STREAM (stdout)."""
    if path:
        pathlib.Path(path).write_text(text)
    else:
        print(text, end="", file=stream)


def _violated(exc: Exception) -> NoReturn:
    print(f"side condition violated: {exc}", file=sys.stderr)
    sys.exit(EXIT_SIDE_CONDITION)


def _emit_run(res: RunResult) -> None:
    outcome = res.status if res.reason is None else f"{res.status}:{res.reason}"
    print(json.dumps({"trace": encode_trace(res.trace), "outcome": outcome}))
    if res.status == "stuck":
        sys.exit(EXIT_STUCK)
    if res.status == "directive-mismatch":
        sys.exit(1)


# The subcommands. Each one's help text is a string in `_parser`, which
# `python -OO` keeps, as it strips docstrings.


def cmd_run(program, state, sem, directives_path, fuel, ct, ms, no_cet):
    _no_effect(f"--sem {sem}", ("--ct", ct is True, sem in ("spec", "mc")),
               ("--no-ct", ct is False, sem in ("spec", "mc")),
               ("--ms", ms, sem != "seq"), ("--no-cet", no_cet, sem == "spec"))
    p = _load(program, parse_program)
    directives = _load(directives_path, decode_directives) if directives_path else []

    def fit(calls) -> None:
        """Exit 1 unless each directive is a branch one or in CALLS; seq takes none."""
        level = set() if sem == "seq" else {DBranch(True), DBranch(False), *calls}
        if not level.issuperset(directives):
            _fail(f"{directives_path}: directives do not fit --sem {sem}")

    if sem != "mc":
        fit(DCallMir(PC(l, o)) for l, b in enumerate(p.blocks) for o in range(len(b.insts)))
    if sem == "seq":
        _emit_run(run_seq(p, _load(state, decode_state), fuel))
        return
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
        _fail(f"{state}: {exc}")
    fit(map(DCallMc, range(mc.lay.data_len, mc.lay.data_len + len(mc.code))))
    _emit_run(run_mc(mc, m, directives, fuel))


def cmd_harden(program, output, msf_reg, callee_reg, variant):
    p = _load(program, parse_program)
    try:
        text = print_program(harden(p, ReservedRegs(msf_reg, callee_reg), VARIANTS[variant]))
        parse_program(text)
    except HardenError as exc:
        _violated(exc)
    except ParseError as exc:
        _violated(f"the hardened program does not parse: {exc}")
    _write(output, text)


def cmd_linearize(program, data_len, output, layout_out):
    p = _load(program, parse_program)
    try:
        mc = linearize(p, data_len)
    except ValueError as exc:
        _violated(exc)
    _write(output, print_mc_program(mc))
    _write(layout_out, json.dumps(encode_layout(mc.lay)) + "\n", sys.stderr)


_ENCODE = {"directives": encode_directives, "trace1": encode_trace, "trace2": encode_trace}


def _verdict_doc(v: Verdict) -> dict[str, Any]:
    """The fields of `v` that are set, in order, with directives and traces
    encoded."""
    return {k: _ENCODE[k](x) if k in _ENCODE else x
            for k, x in zip(v._fields, v) if x is not None}


def _finish_verdict(v: Verdict) -> None:
    print(json.dumps(_verdict_doc(v)))
    if v.status == "counterexample":
        sys.exit(EXIT_COUNTEREXAMPLE)
    if v.status == "inconclusive":
        sys.exit(EXIT_INCONCLUSIVE)


def _checker(property: str, pipeline: str, cfg: PassConfig = FULL) -> Callable:
    """The checker of PROPERTY, over (program, input states..., budget): one
    state, or two for rs. It is looked up as it is asked for, so a traced
    run gets the checker it wraps."""
    if property == "rs":
        return partial(check_relative_security, pipeline=pipeline, cfg=cfg)
    if property == "linearize":
        return check_bcc_linearize
    return partial(check_bcc_specibt if property == "bcc" else check_safety_preservation,
                   cfg=cfg)


def cmd_check(property, program, state, depth, runs, fuel, pipeline, variant):
    _no_effect(f"check {property}", ("--pipeline", pipeline is not None, property == "rs"),
               ("--variant", variant is not None, property != "linearize"))
    p = _load(program, parse_program)
    budget = ExploreBudget(depth, runs, fuel)
    states = _load(state, decode_pair) if property == "rs" else (_load(state, decode_state),)
    check = _checker(property, pipeline or "hardened-only", VARIANTS[variant or "full"])
    try:
        v = check(p, *states, budget)
    except LayoutError as exc:
        _fail(f"{state}: {exc}")
    except (HardenError, ValueError) as exc:
        _violated(exc)
    _finish_verdict(v)


def cmd_attack(program, pair, target, depth, runs, fuel, cet):
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
            print(json.dumps({
                "target": name,
                "directives": encode_directives(dirs),
                "trace1": encode_trace(r1.trace),
                "trace2": encode_trace(r2.trace),
            }))
            return
    print("no distinguishing directives within budget", file=sys.stderr)
    sys.exit(EXIT_INCONCLUSIVE)


def _fuzz_inputs(corpus: Optional[str], seed: int, runs: int, fuel: int):
    """Yield (program, safe state) pairs, from a corpus directory or the
    generator."""
    rng = random.Random(seed)
    cfg = GenConfig()
    if corpus:
        files = sorted(pathlib.Path(corpus).glob("*.mir"))
        if not files:
            _fail(f"no .mir files in {corpus}")
        # Instrumented or ill-formed entries cannot be re-hardened; skip them.
        programs = [
            p for p in (_load(str(f), parse_program) for f in files)
            if not wf_program(p, mode="source")
        ]
        if not programs:
            _fail(f"no source programs in {corpus}")
        # sample register values for the registers each program actually uses
        cfgs = [cfg._replace(reg_pool=tuple(sorted(used_registers(p))) or cfg.reg_pool)
                for p in programs]
        count = 0
        while True:
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
                _fail(f"could not sample safe inputs for {corpus}")
    produced = 0
    for _ in range(50 * runs):
        p = gen_program(rng, cfg)
        s = gen_safe_input(rng, p, cfg, fuel)
        if s is not None:
            yield p, s
            produced += 1
            if produced == runs:  # the last draw may give the last input
                return
    _fail("could not sample enough safe inputs")


def cmd_fuzz(property, seed, depth, runs, fuel, sequences, corpus=None,
             pipeline="hardened-only"):
    """Check PROPERTY on drawn cases and print the verdict: the first
    counterexample, with the sequences of all cases up to it, else a pass
    over all of them, or inconclusive if no case passed. The cases of rs are
    generated state pairs; those of the others are safe inputs to programs
    of the corpus or generated ones."""
    if property == "rs":
        rng = random.Random(seed)
        pairs = (gen_seq_equiv_pair(rng, GenConfig(), fuel) for _ in range(runs))
        cases = ((q.program, q.s1, q.s2) for q in pairs)
    else:
        cases = _fuzz_inputs(corpus, seed, runs, fuel)
    check, budget = _checker(property, pipeline), ExploreBudget(depth, sequences, fuel)
    total = 0
    passed = False
    for case in cases:
        v = check(*case, budget)
        if v.status == "counterexample":
            _finish_verdict(v._replace(runs=total + v.runs))
            return
        total += v.runs
        passed = passed or v.ok
    _finish_verdict(Verdict("pass" if passed else "inconclusive", runs=total))


def _parser(argv: list[str]) -> argparse.ArgumentParser:
    """The command line's parser. Every subcommand is listed with its help
    line, but only the one ARGV names, by its first token that is not an
    option, takes its arguments: the top level's options take no value."""
    parser = argparse.ArgumentParser(prog="specibt", allow_abbrev=False,
                                     description="Speculative control-flow integrity laboratory.")
    version = f"specibt {__version__} (semantics {SEMANTICS_REVISION})"
    parser.add_argument("--version", action="version", version=version,
                        help="Print version and semantics revision.")
    # given the subcommands' usage prefix, argparse builds no help formatter here
    commands = parser.add_subparsers(metavar="COMMAND", required=True, prog=parser.prog)
    named = next((a for a in argv if not a.startswith("-")), None)

    def command(name: str, cmd: Callable, *args, doc: str) -> Optional[argparse.ArgumentParser]:
        """Subcommand NAME runs CMD, described by DOC, whose first sentence
        is its help line. If ARGV names it, its parser, with ARGS: each names
        a positional path that must exist, or is a `(name, add_argument
        keywords)` pair; else None, as it is never parsed."""
        p = commands.add_parser(name, help=doc.split(".")[0] + ".", description=doc,
                                allow_abbrev=False, add_help=name == named)
        if name != named:
            return None
        p.set_defaults(cmd=cmd, parser=p)
        for a in args:
            a, kw = a if isinstance(a, tuple) else (a, {"type": _existing})
            p.add_argument(a, metavar=a.upper(), **kw)
        return p

    def opt(p, flag: str, default: Any = None, help: str = "", **kw) -> None:
        """Option FLAG, whose help shows its DEFAULT if it has one."""
        shown = "" if default is None else f" (default: {default})"
        p.add_argument(flag, default=default, help=(help + shown).lstrip() or None, **kw)

    def budget(p, runs: int, runs_help: str = "") -> None:
        opt(p, "--depth", 3, type=DEPTH)
        opt(p, "--runs", runs, type=COUNT, help=runs_help)
        opt(p, "--fuel", 1000, type=COUNT)

    pipelines, variants = ["hardened-only", "end-to-end"], sorted(VARIANTS)
    if p := command("run", cmd_run, "program", "state", doc=(
            "Execute PROGRAM from STATE and print the observation trace. Under --sem mc the "
            "data section is as long as the state's memory. Call directives name block "
            "labels and offsets of PROGRAM under spec and ideal, and code addresses under "
            "mc.")):
        opt(p, "--sem", "seq", choices=["seq", "spec", "ideal", "mc"])
        opt(p, "--dir", dest="directives_path", metavar="PATH", type=_existing,
            help="JSON directive sequence for spec/ideal/mc runs.")
        opt(p, "--fuel", 10_000, type=COUNT)
        opt(p, "--ct", action=argparse.BooleanOptionalAction,
            help="Override the initial ctarget-armed flag (spec, mc).")
        p.add_argument("--ms", action="store_true",
                       help="Start with the misspeculation flag set (spec, ideal, mc).")
        p.add_argument("--no-cet", action="store_true",
                       help="Model hardware without indirect-branch tracking (spec).")
    if p := command("harden", cmd_harden, "program", doc=(
            "Apply the hardening pass and print the transformed program. Exits 5, writing "
            "nothing, if the printed program would not parse again.")):
        p.add_argument("-o", "--output", metavar="PATH")
        opt(p, "--msf-reg", "msf")
        opt(p, "--callee-reg", "callee")
        opt(p, "--variant", "full", choices=variants)
    if p := command("linearize", cmd_linearize, "program",
                    doc="Flatten PROGRAM to machine code and emit the layout sidecar."):
        p.add_argument("--data-len", type=int, required=True)
        p.add_argument("-o", "--output", metavar="PATH")
        p.add_argument("--layout-out", metavar="PATH",
                       help="Layout sidecar path (default: layout JSON on stderr).")
    fuzzed = {"bcc": "Fuzz hardened-speculative vs source-ideal trace equality.",
              "safety": "Fuzz for speculative undefined behavior in hardened programs.",
              "rs": "Fuzz relative security on sequentially equivalent state pairs.",
              "linearize": "Fuzz machine-level vs block-level lockstep correspondence."}
    properties = {"choices": list(fuzzed)}
    if p := command("check", cmd_check, ("property", properties), "program", "state", doc=(
            "Check one property of PROGRAM. STATE is a state JSON (bcc, safety, linearize) "
            "or a two-state pair JSON (rs).")):
        budget(p, 200, "Maximum explored directive sequences.")
        opt(p, "--pipeline", choices=pipelines,
            help=f"For rs only (default: {pipelines[0]}).")
        opt(p, "--variant", choices=variants,
            help="For bcc, safety and rs (default: full).")
    if p := command("attack", cmd_attack, "program", "pair", doc=(
            "Search for a directive sequence distinguishing the two states in PAIR. Target "
            "pht attacks the program as given; btb attacks its masking-only hardened "
            "variant on hardware without indirect-branch tracking, and exits 5 if the pass "
            "rejects the program.")):
        opt(p, "--target", "auto", choices=["pht", "btb", "auto"])
        budget(p, 500)
        opt(p, "--cet", action=argparse.BooleanOptionalAction, help="Force the indirect-branch-"
            "tracking model on or off (default: on iff the attacked program contains ctarget).")
    for prop, doc in fuzzed.items():
        if not (p := command(f"fuzz-{prop}", cmd_fuzz, doc=doc)):
            continue
        p.set_defaults(property=prop)
        opt(p, "--seed", 0, type=int)
        budget(p, 100, "Number of fuzzed programs.")
        opt(p, "--sequences", 100, type=COUNT,
            help="Directive sequences explored per program.")
        if prop == "rs":  # generated state pairs only
            opt(p, "--pipeline", pipelines[0], choices=pipelines)
        else:
            opt(p, "--corpus", metavar="PATH", type=_directory)
    return parser


def main(argv: Optional[list[str]] = None, standalone_mode: bool = True) -> None:
    """Speculative control-flow integrity laboratory.

    Called with no argv, as the console script and `python -m specibt.cli`
    call it, `main` owns its process: it freezes the start-up heap (every
    layer is imported by now) into the collector's permanent generation, so
    no full collection walks it again, and neither do the collections at
    interpreter exit, which cost a fresh process several milliseconds. A
    caller that passes argv keeps its collector as it is.
    """
    # Every failure ends in SystemExit with its exit code. `standalone_mode`
    # is ignored: only the in-process runner of `bench/run.py` passes it.
    if argv is None:
        gc.freeze()
        argv = sys.argv[1:]
    else:
        argv = list(argv)
    args, extra = _parser(argv).parse_known_args(argv)
    kw = vars(args)
    cmd, parser = kw.pop("cmd"), kw.pop("parser")
    if extra:  # name the first unknown option, if there is one
        parser.error(next((f"No such option: {a}" for a in extra if a.startswith("-")),
                          f"unrecognized arguments: {' '.join(extra)}"))
    try:
        cmd(**kw)
    except argparse.ArgumentError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    main()
