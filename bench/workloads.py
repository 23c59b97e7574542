"""The benchmark's workloads and the known answer to every command in them.

A workload is an endless sequence of rounds drawn from the run's seed. A
round is a short list of `specibt` commands, and all rounds of a workload
have the same make-up; the runner measures whole rounds only. Paths are
relative to the root of the checkout, where the commands run.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

# A sequence cap no program reaches, so exploration is exhaustive to depth.
UNCAPPED = str(10**9)

# The first 40 programs `gen_program` draws from `random.Random(0)` with the
# default `GenConfig`, as `print_program` wrote them. A fixed set keeps the
# share of programs that never get a safe input (13 of 40) the same in every
# run; drawing fresh programs made that share, and so the result, depend on
# the seed. Each fuzz-gen command asks for as many inputs as there are
# programs, so it passes over the whole set and then part of it again.
GEN_CORPUS = Path("bench", "gen_corpus")
GEN_INPUTS = 40
# Programs per fuzz-rs command: start-up stays a small part of a command.
REL_PROGRAMS = 10
# Seeded inputs per corpus command in exhaustive-listing1 (about 1 s each).
L1_INPUTS = 2

# Exit codes the CLI documents for a verdict, by status.
EXIT_BY_STATUS = {"pass": 0, "counterexample": 2, "inconclusive": 3}
DOCUMENTED_EXITS = {0, 1, 2, 3, 4, 5}


@dataclass(frozen=True)
class Command:
    """One `specibt` invocation and its known answer."""

    args: tuple[str, ...]
    verdicts: int  # fuzzed programs, or 1 for a `check`
    status: str  # expected verdict status
    runs: Optional[int] = None  # exact directive sequences, where known

    @property
    def exit_code(self) -> int:
        return EXIT_BY_STATUS[self.status]

    def judge(self, code: int, doc: Optional[dict]) -> Optional[str]:
        """Why this outcome fails its known answer, or None if it does not.

        An inconclusive verdict is not a failure; the runner counts it."""
        if code not in DOCUMENTED_EXITS:
            return f"exit code {code} is not documented"
        if doc is None:
            return f"exit code {code} without a verdict"
        status = doc.get("status")
        if status == "inconclusive" and code == EXIT_BY_STATUS["inconclusive"]:
            return None
        if status != self.status or code != self.exit_code:
            return (f"expected {self.status} (exit {self.exit_code}), "
                    f"got {status} (exit {code})")
        if self.runs is not None and doc.get("runs") != self.runs:
            return f"expected {self.runs} sequences, got {doc.get('runs')}"
        return None


def _seeds(seed: int) -> Iterator[str]:
    rng = random.Random(seed)
    while True:
        yield str(rng.getrandbits(31))


def fuzz_gen(seed: int, work: Path) -> Iterator[list[Command]]:
    """fuzz-bcc and fuzz-linearize at the CLI defaults (depth 3, 100
    sequences, fuel 1000) over generated programs, with seeded inputs."""
    seeds = _seeds(seed)
    n = str(GEN_INPUTS)
    while True:
        yield [
            Command((cmd, "--corpus", str(GEN_CORPUS), "--seed", next(seeds),
                     "--runs", n), GEN_INPUTS, "pass")
            for cmd in ("fuzz-bcc", "fuzz-linearize")
        ]


def fuzz_relational(seed: int, work: Path) -> Iterator[list[Command]]:
    """fuzz-rs at depth 6, uncapped, on the same programs at both
    pipelines."""
    seeds = _seeds(seed)
    while True:
        s = next(seeds)
        yield [
            Command(("fuzz-rs", "--seed", s, "--runs", str(REL_PROGRAMS),
                     "--depth", "6", "--sequences", UNCAPPED,
                     "--pipeline", pipeline),
                    REL_PROGRAMS, "pass")
            for pipeline in ("hardened-only", "end-to-end")
        ]


def exhaustive_listing1(seed: int, work: Path) -> Iterator[list[Command]]:
    """The paper's Listing 1, explored deeply: full-enumeration passes,
    early-exit counterexample searches against weakened passes, and seeded
    inputs over a corpus holding only Listing 1."""
    program = Path("corpus", "listing1.mir")
    pair = Path("corpus", "listing1_pair.json")
    corpus = work / "listing1_corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(program, corpus / "listing1.mir")
    state = work / "listing1_s1.json"
    state.write_text(json.dumps(json.loads(pair.read_text())["s1"]))
    prog, pair_, state_ = str(program), str(pair), str(state)
    seeds = _seeds(seed)
    n = str(L1_INPUTS)

    def check(prop, inputs, depth, variant, status, runs, *extra):
        return Command(("check", prop, prog, inputs, "--depth", str(depth),
                        "--runs", UNCAPPED, "--variant", variant, *extra),
                       1, status, runs)

    while True:
        yield [
            check("rs", pair_, 16, "full", "pass", 5866,
                  "--pipeline", "hardened-only"),
            check("rs", pair_, 16, "full", "pass", 5866,
                  "--pipeline", "end-to-end"),
            check("rs", pair_, 12, "no-edge-split", "counterexample", 594),
            check("rs", pair_, 12, "no-entry-check", "counterexample", 1388),
            check("bcc", state_, 12, "no-call-mask", "counterexample", 1),
            Command(("fuzz-bcc", "--corpus", str(corpus), "--seed", next(seeds),
                     "--runs", n, "--depth", "12", "--sequences", UNCAPPED),
                    L1_INPUTS, "pass", 1450 * L1_INPUTS),
            # Only 20 sequences per input: the lockstep ends as a silent pass
            # at the first directive it cannot map to the source level.
            Command(("fuzz-linearize", "--corpus", str(corpus), "--seed",
                     next(seeds), "--runs", n, "--depth", "12",
                     "--sequences", UNCAPPED),
                    L1_INPUTS, "pass", 20 * L1_INPUTS),
        ]


WORKLOADS = {
    "fuzz-gen": fuzz_gen,
    "fuzz-relational": fuzz_relational,
    "exhaustive-listing1": exhaustive_listing1,
}
