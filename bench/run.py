"""Benchmark of the `specibt` command.

    python3 bench/run.py --workload fuzz-gen --seed 1 --seconds 60 --trace 0

Untraced (`--trace 0`), it runs the workload's rounds of `specibt` commands
one process at a time, in a closed loop with a single client, checks every
verdict against its known answer and reports the end-to-end metrics. Traced
(`--trace 1`), it runs the same rounds in this process through
`specibt.cli.main`, each round once plain and once under the tracer, and
reports the per-layer metrics. The last line of standard output is the
result; the line before it records the environment and the exact counts.

End-to-end times are scaled by the machine's speed, timed between commands
on a fixed piece of work (`calibrate.py`), so that drift in the speed of a
shared host does not read as a change in the program. The record line keeps
the raw times and the factors.

The program is the checkout's own `src/specibt`, run from source.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import tracer as tracing
from calibrate import Speed, pin_to_one_cpu
from workloads import WORKLOADS, Command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path("bench", ".work")  # relative to ROOT, the working directory

SETUP_REPS = 15  # timed runs of `specibt --version`; their median is setup_s
HARD_LIMIT_S = 165.0  # no run lasts longer than this, whatever happens
SLICE_S = 0.5  # a command runs this long between two samples of machine speed

# Functions each workload must reach; zero calls means the tracer lost them.
_COMMON = ("cli", "harden", "explore", "step_spec", "run_seq")
REQUIRED = {
    "fuzz-gen": _COMMON + ("gen_state", "gen_safe_input",
                           "step_seq", "step_ideal", "run_ideal", "step_mc",
                           "linearize", "layout", "concretize_state",
                           "check_bcc_specibt", "check_bcc_linearize",
                           "_lockstep", "state_rel"),
    "fuzz-relational": _COMMON + ("gen_program", "gen_seq_equiv_pair",
                                  "gen_safe_input", "step_seq", "run_spec",
                                  "step_mc", "run_mc", "linearize", "layout",
                                  "concretize_state", "check_relative_security"),
    "exhaustive-listing1": _COMMON + ("parse_program", "decode_state",
                                      "gen_safe_input", "run_spec", "run_ideal",
                                      "step_mc", "run_mc", "linearize",
                                      "check_relative_security",
                                      "check_bcc_specibt", "check_bcc_linearize",
                                      "_lockstep", "state_rel"),
}

clock = time.perf_counter


@dataclass
class Round:
    wall: float = 0.0
    attempted: int = 0
    verdicts: int = 0  # verdicts that met their known answer
    sequences: int = 0
    inconclusive: int = 0
    runs: list = field(default_factory=list)  # exact `runs` per command
    calls: dict = field(default_factory=dict)  # traced calls per function
    failures: list = field(default_factory=list)
    other_failures: int = 0  # failures that are not verdicts of this round


class Cut(BaseException):
    """The window closed while a round was still running."""


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(1)


def check_checkout() -> None:
    for need in (SRC / "specibt" / "cli.py", ROOT / "corpus" / "listing1.mir",
                 ROOT / "corpus" / "listing1_pair.json"):
        if not need.is_file():
            fail(f"{need.relative_to(ROOT)} is missing; run from a full checkout")


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
    digest = hashlib.sha256()
    for f in sorted((SRC / "specibt").glob("*.py")):
        digest.update(f.name.encode() + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


# -- running one command -------------------------------------------------------

def run_process(args, deadline: float,
                speed: Speed) -> tuple[Optional[int], str, str, float]:
    """Run `specibt ARGS` as its own process: (exit code, or None when the
    deadline passed; stdout; stderr; wall seconds). Bytecode caching stays
    on, as for an installed command, whatever the caller's environment.

    Every SLICE_S the process is stopped while SPEED times the kernel, so
    that the machine's speed is sampled all through a long command; the
    wall time returned leaves those pauses out."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    t0 = clock()
    paused = 0.0
    p = subprocess.Popen([sys.executable, "-m", "specibt.cli", *args], cwd=ROOT,
                         env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
    try:
        while True:
            resumed = clock()
            try:
                out, err = p.communicate(
                    timeout=max(0.0, min(SLICE_S, deadline - resumed)))
                break
            except subprocess.TimeoutExpired:
                if clock() >= deadline:
                    return None, "", "", clock() - t0 - paused
            p.send_signal(signal.SIGSTOP)  # reaps the process if it has ended
            if p.returncode is not None:
                continue
            _, status = os.waitpid(p.pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):  # it ended before the signal came
                p.returncode = os.waitstatus_to_exitcode(status)
                continue
            pause = clock()
            speed.after(pause - resumed)
            paused += clock() - pause
            p.send_signal(signal.SIGCONT)
    finally:
        if p.returncode is None:
            p.kill()  # SIGKILL ends a stopped process too
            p.communicate()
    wall = clock() - t0 - paused
    speed.after(clock() - resumed)
    return p.returncode, out, err, wall


def run_inprocess(args, tr: Optional[tracing.Tracer]) -> tuple[int, str, str, float]:
    """Run `specibt ARGS` through `specibt.cli.main` in this process, with
    the exit code a separate process would have had."""
    import click
    from specibt.cli import main
    out, err = io.StringIO(), io.StringIO()
    code = 0
    t0 = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tr is None:
                main(list(args), standalone_mode=False)
            else:
                tr.span("cli", "cli", main, list(args), standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        code = exc.exit_code
    except Exception:  # the command crashed: record it as its process would
        code = 1
        err.write(traceback.format_exc())
    finally:
        if tr is not None:
            tr.end_command()
    return code, out.getvalue(), err.getvalue(), clock() - t0


def last_json(stdout: str) -> Optional[dict]:
    lines = stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


def judge(rd: Round, cmd: Command, code: int, stdout: str,
          stderr: str, wall: float) -> None:
    """Add one command's outcome to its round."""
    doc = last_json(stdout)
    rd.attempted += cmd.verdicts
    rd.wall += wall
    rd.runs.append(doc.get("runs") if doc else None)
    why = cmd.judge(code, doc)
    if why is not None:
        tail = stderr.strip().splitlines()[-1:] or [""]
        rd.failures.append({"command": " ".join(cmd.args), "why": why,
                            "stderr": tail[0]})
        return
    rd.verdicts += cmd.verdicts
    rd.sequences += doc.get("runs", 0)
    rd.inconclusive += doc.get("status") == "inconclusive"


# -- the closed loop -----------------------------------------------------------

def rounds_in_window(workload: str, seed: int, seconds: float, start: float, run_round):
    """Start whole rounds while the next one is expected to end inside the
    window; return [(round index, round)] and the number of rounds cut. The
    first round may run up to the hard limit. A later round still running
    when the window closes is cut: it is neither attempted nor failed."""
    WORK.mkdir(parents=True, exist_ok=True)
    done: list = []
    walls: list[float] = []
    cut = 0
    window_end = clock() + seconds
    for i, cmds in enumerate(WORKLOADS[workload](seed, WORK)):
        now = clock()
        if done and now + statistics.median(walls) > window_end:
            break
        try:
            done.append((i, run_round(cmds, window_end if done else start + HARD_LIMIT_S)))
        except Cut:
            cut += 1
            break
        walls.append(clock() - now)
    if not done:
        fail(f"the first round of {workload} did not finish within {HARD_LIMIT_S:.0f} s")
    return done, cut


def measure_setup() -> tuple[float, Speed]:
    """Median wall time of `specibt --version`, after one untimed call that
    also proves the command runs, and the machine's speed around it."""
    code, out, err, _ = run_process(["--version"], clock() + 60, Speed())
    if code != 0 or "specibt" not in out:
        fail(f"`specibt --version` failed (exit {code}): {err.strip()[-500:]}")
    speed = Speed(share=0.4)  # start-up is short: more samples per run
    walls = [run_process(["--version"], clock() + 60, speed)[3]
             for _ in range(SETUP_REPS)]
    return statistics.median(walls), speed


def untraced(workload: str, seed: int, seconds: float, start: float):
    setup_raw, setup_speed = measure_setup()
    speed = Speed()

    def run_round(cmds, window_end):
        rd = Round()
        for cmd in cmds:
            code, out, err, wall = run_process(cmd.args, window_end, speed)
            if code is None:
                raise Cut
            judge(rd, cmd, code, out, err, wall)
        return rd

    done, cut = rounds_in_window(workload, seed, seconds, start, run_round)
    rounds = [rd for _, rd in done]
    raw = {"wall_s": sum(r.wall for r in rounds), "setup_s": setup_raw,
           "speed_factor": speed.factor(), "setup_speed_factor": setup_speed.factor(),
           "speed_samples": len(speed.samples)}
    wall = raw["wall_s"] / raw["speed_factor"]
    metrics = {
        "verdicts_per_s": (sum(r.verdicts for r in rounds) / wall, "1/s"),
        "sequences_per_s": (sum(r.sequences for r in rounds) / wall, "1/s"),
        "setup_s": (setup_raw / raw["setup_speed_factor"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                        / 1024, "MB"),
    }
    return rounds, cut, metrics, {str(i): rd.runs for i, rd in done}, raw


def traced(workload: str, seed: int, seconds: float, start: float):
    sys.path.insert(0, str(SRC))
    import specibt.cli  # noqa: F401  (loads every layer before wrapping)
    total = tracing.Tracer()
    walls = {"traced": 0.0, "plain": 0.0}
    finished: list = []

    def on_alarm(signum, frame):
        raise Cut

    def run_round(cmds, window_end):
        tr = tracing.Tracer()
        rd, plain = Round(), Round()
        # alternate which pass goes first, so drift does not bias the ratio
        order = ("traced", "plain") if len(finished) % 2 else ("plain", "traced")
        signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(1e-3, window_end - clock()))
        try:
            for mode in order:
                for cmd in cmds:
                    if mode == "plain":
                        judge(plain, cmd, *run_inprocess(cmd.args, None))
                        continue
                    tr.install()
                    result = run_inprocess(cmd.args, tr)
                    tr.uninstall()
                    judge(rd, cmd, *result)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            tr.uninstall()
        if rd.runs != plain.runs:
            plain.failures.append({"command": "round", "why": "sequences differ "
                                   f"between passes: {plain.runs} != {rd.runs}"})
        rd.failures += plain.failures
        rd.other_failures = len(plain.failures)
        total.merge(tr)
        walls["traced"] += rd.wall
        walls["plain"] += plain.wall
        rd.calls = {n: s.calls for n, s in sorted(tr.stats.items())}
        finished.append(rd)
        return rd

    # both passes of a round share one window, so a traced run lasts no
    # longer than an untraced one
    done, cut = rounds_in_window(workload, seed, seconds, start, run_round)
    missing = [f for f in REQUIRED[workload]
               if not (total.stats.get(f) and total.stats[f].calls)]
    if missing:
        fail(f"traced layers recorded no calls on {workload}: {', '.join(missing)}; "
             "a call site has moved and the tracer no longer sees it")
    commands = sum(len(rd.runs) for _, rd in done)
    metrics = tracing.layer_metrics(total, walls["traced"], walls["plain"], commands)
    return ([rd for _, rd in done], cut, metrics,
            {str(i): {"runs": rd.runs, "calls": rd.calls} for i, rd in done}, None)


# -- determinism across runs -----------------------------------------------------

def compare_with_earlier(key: str, exact: dict) -> Optional[str]:
    """Keep this run's exact counts per round index; a run of the same
    sources, benchmark, workload, seed and mode must agree on every round
    both ran."""
    bench = hashlib.sha256()
    for f in sorted(Path(__file__).resolve().parent.glob("*.py")):
        bench.update(f.read_bytes())
    path = WORK / "counts" / f"{key}-{bench.hexdigest()[:8]}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    earlier = json.loads(path.read_text()) if path.exists() else {}
    differ = sorted(int(i) for i in exact.keys() & earlier.keys() if exact[i] != earlier[i])
    path.write_text(json.dumps({**earlier, **exact}))
    if differ:
        return (f"exact counts of rounds {differ} differ from an earlier run "
                "with the same seed")
    return None


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    start = clock()
    # on SIGTERM, unwind, so the command running at the time is ended too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    check_checkout()
    os.chdir(ROOT)
    env = environment()
    env["pinned_cpu"] = pin_to_one_cpu()
    measure = traced if a.trace else untraced
    rounds, cut, metrics, exact, raw = measure(a.workload, a.seed, a.seconds, start)

    failures = [f for r in rounds for f in r.failures]
    mismatch = compare_with_earlier(
        f"{env['source_sha256']}-{a.workload}-{a.seed}-{a.trace}", exact)
    if mismatch:
        failures.append({"command": "determinism", "why": mismatch})
    attempted = sum(r.attempted for r in rounds)
    verdicts = sum(r.verdicts for r in rounds)
    failed = min(attempted, attempted - verdicts + bool(mismatch)
                 + sum(r.other_failures for r in rounds))
    if not a.trace:
        metrics["ok_share"] = (1 - failed / attempted, "share")
    print(json.dumps({
        "workload": a.workload, "seed": a.seed, "trace": a.trace,
        "environment": env,
        "rounds": len(rounds), "rounds_cut": cut,
        "round_wall_s": [round(r.wall, 4) for r in rounds],
        "unscaled": raw,
        "verdicts": verdicts,
        "sequences": sum(r.sequences for r in rounds),
        "inconclusive": sum(r.inconclusive for r in rounds),
        "failed_share": failed / attempted,
        "failures": failures,
        "exact": exact,
        "wall_s": clock() - start,
    }))
    for f in failures:
        print(f"bench: FAILED {f['command']}: {f['why']}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
