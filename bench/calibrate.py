"""The machine's speed, timed on a fixed piece of pure-Python work.

The host this benchmark runs on is shared: the same `specibt` command can
take half as long again a minute later, and its CPU time grows with its wall
time. So the runner keeps itself and its commands on one CPU
(`pin_to_one_cpu`), stops each command every half second to time `kernel()`
for about a tenth of the time the command ran, and divides each measured
time by the factor `Speed.factor()` gives: the mean kernel time over
`REFERENCE_S`. A time so scaled reads as it would on a machine running the
kernel in `REFERENCE_S`, and drift in machine speed cancels out of it. The
kernel uses nothing from `specibt`, so a change to the program moves the
scaled times as much as the raw ones.

Unpinned, a command may run on another CPU than the kernel timed next to
it, and sampled only between commands, the factor misses changes of speed
within a long command; bench/README.md gives the measurements.

The kernel does the kinds of work the command does: a small interpreter over
frozen dataclass states (the semantics), dict and tuple churn (exploration),
and compiling and running module source (start-up).
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, replace

# About the mean kernel time on the 2-CPU Intel Xeon the benchmark was built
# on, with Python 3.11, at that machine's faster speed; at its slower one the
# mean reached 0.030 s. Any constant would do for comparing runs.
REFERENCE_S = 0.0200

clock = time.perf_counter


@dataclass(frozen=True, slots=True)
class _State:
    pc: int
    regs: tuple
    mem: dict


# (opcode, destination, source, operand) of a loop summing a strided array
_PROGRAM = (
    ("const", 0, 0, 0),      # r0 = 0          accumulator
    ("const", 1, 0, 0),      # r1 = 0          index
    ("load", 2, 1, 0),       # r2 = mem[r1]
    ("add", 0, 2, 0),        # r0 += r2
    ("addi", 1, 1, 3),       # r1 += 3
    ("store", 1, 0, 0),      # mem[r1] = r0
    ("blt", 1, 2, 64),       # if r1 < 64: goto 2
    ("halt", 0, 0, 0),
)

_MODULE = '''
from dataclasses import dataclass
@dataclass(frozen=True)
class Node:
    label: int
    succs: tuple = ()
def build(n):
    return {i: Node(i, tuple(j for j in range(i + 1, min(n, i + 3)))) for i in range(n)}
GRAPH = build(40)
'''


def _step(s: _State) -> _State:
    op, d, a, b = _PROGRAM[s.pc]
    regs = list(s.regs)
    if op == "const":
        regs[d] = b
    elif op == "load":
        regs[d] = s.mem.get(regs[a], a)
    elif op == "add":
        regs[d] = (regs[d] + regs[a]) % 1_000_003
    elif op == "addi":
        regs[d] = regs[a] + b
    elif op == "store":
        return replace(s, pc=s.pc + 1, mem={**s.mem, regs[d]: regs[a]})
    elif op == "blt":
        if regs[d] < b:
            return _State(a, tuple(regs), s.mem)
    return _State(s.pc + 1, tuple(regs), s.mem)


def kernel() -> int:
    """A fixed amount of work; the result only keeps it from being skipped."""
    total = 0
    for k in range(40):
        s = _State(0, (0, 0, 0), {i: i * k for i in range(0, 64, 5)})
        while _PROGRAM[s.pc][0] != "halt":
            s = _step(s)
        total += s.regs[0]
    for _ in range(12):
        scope: dict = {}
        exec(compile(_MODULE, "<calibrate>", "exec"), scope)
        total += len(scope["GRAPH"])
    return total


def sample() -> float:
    t0 = clock()
    kernel()
    return clock() - t0


def pin_to_one_cpu() -> int:
    """Keep this process, and the processes it starts, on one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Speed:
    """Kernel times taken during and between a run's measured commands."""

    def __init__(self, share: float = 0.1) -> None:
        self.share = share  # of each measured time, spent timing the kernel after it
        self.samples: list[float] = []

    def after(self, measured_s: float) -> None:
        """Time the kernel for about `share` of MEASURED_S, at least once."""
        spent = 0.0
        while not spent or spent < self.share * measured_s:
            self.samples.append(sample())
            spent += self.samples[-1]

    def factor(self) -> float:
        """How much slower than the reference the machine ran: the mean
        kernel time, so that the factor weights each stretch of the run by
        its length, as the measured times do."""
        return statistics.fmean(self.samples) / REFERENCE_S
