"""The exact exploration of Listing 1 at depth 4, pinned.

Each driver must produce the same directive sequences, in the same order,
with the same outcomes and traces as recorded in
`data/listing1_explore_d4.json`. Counts alone would not notice a reordered
or swapped sequence.
"""

import json
import pathlib

import pytest

from specibt.explore import ExploreBudget, IdealDriver, McDriver, SpecDriver, explore
from specibt.gen import spec_of
from specibt.hardening import harden
from specibt.interp import State
from specibt.ir import FP
from specibt.machine import concretize_state, linearize
from specibt.textio import encode_directives, encode_trace

PINNED = pathlib.Path(__file__).parent / "data" / "listing1_explore_d4.json"
BUDGET = ExploreBudget(depth=4, max_sequences=10**9, fuel=100)


def explorations(listing1, s1):
    """Every (directives, status, trace) that each driver explores: the
    hardened program speculatively and at machine level, from the hardened
    initial state, and the source program under the ideal semantics."""
    hp = harden(listing1)
    hs = State(s1.pc, {**s1.regs, "msf": 0, "callee": FP(0)}, s1.mem, s1.stk, ct=True)
    mc = linearize(hp, len(s1.mem))
    runs = {
        "spec": explore(SpecDriver(hp, cet=True), hs, BUDGET),
        "ideal": explore(IdealDriver(listing1), spec_of(s1), BUDGET),
        "mc": explore(McDriver(mc), concretize_state(hs, mc.lay), BUDGET),
    }
    return {
        name: [[encode_directives(d), r.status, encode_trace(r.trace)] for d, r in rs]
        for name, rs in runs.items()
    }


@pytest.fixture(scope="module")
def explored(listing1, listing1_pair):
    return explorations(listing1, listing1_pair[0])


@pytest.mark.parametrize("driver", ["spec", "ideal", "mc"])
def test_listing1_exploration_is_pinned(explored, driver):
    pinned = json.loads(PINNED.read_text())[driver]
    got = explored[driver]
    assert len(got) == len(pinned)
    for k, (g, want) in enumerate(zip(got, pinned)):
        assert g == want, f"sequence {k} differs"
