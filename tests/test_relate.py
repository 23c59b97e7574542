"""Cross-language relation tests."""

import random

from specibt.gen import GenConfig, gen_state, spec_of
from specibt.interp import DBranch, DCallMc, OBranch, OCall, OLoad, State
from specibt.ir import FP, PC, UV
from specibt.machine import concretize_state, layout
from specibt.relate import (
    map_directive_mc_to_mir,
    map_obs_mir_to_mc,
    state_rel,
    trace_cmp,
    value_rel,
)


def test_trace_cmp_prefix_semantics():
    a = [OLoad(1), OBranch(True)]
    assert trace_cmp(a, a)
    assert trace_cmp(a, a + [OCall(0)])
    assert trace_cmp(a + [OCall(0)], a)
    assert not trace_cmp(a, [OLoad(2)])
    assert trace_cmp([], a)


def test_trace_cmp_is_not_transitive():
    # x ≶ [] and [] ≶ y does not imply x ≶ y.
    x, y = [OLoad(1)], [OLoad(2)]
    assert trace_cmp(x, []) and trace_cmp([], y)
    assert not trace_cmp(x, y)


def test_value_and_pc_relation(listing1):
    lay = layout(listing1, 8)
    assert value_rel(5, 5, lay)
    assert not value_rel(5, 6, lay)
    assert value_rel(FP(3), lay.addr(3), lay)
    assert not value_rel(FP(3), lay.addr(4), lay)
    assert value_rel(UV, 12345, lay)  # undefined refines to anything
    assert lay.pc_addr(PC(2, 1)) == lay.addr(2) + 1


def test_state_rel_on_concretized_states(listing1):
    lay = layout(listing1, 8)
    rng = random.Random(2)
    s = spec_of(gen_state(rng, GenConfig(mem_len=8)), ct=True)
    m = concretize_state(s, lay)
    assert state_rel(s, m, lay)
    assert not state_rel(s, m._replace(ms=not m.ms), lay)


def test_state_rel_compares_every_register(listing1):
    lay = layout(listing1, 8)
    g = gen_state(random.Random(4), GenConfig(mem_len=8))
    s = State(g.pc, {**g.regs, "msf": 0}, g.mem)
    m = concretize_state(s, lay)
    regs = dict(m.regs)
    regs["msf"] = 99
    m2 = m._replace(regs=regs)
    assert not state_rel(s, m2, lay)


def test_directive_mapping_round_trip(listing1):
    lay = layout(listing1, 8)
    assert map_directive_mc_to_mir(DBranch(True), lay) == DBranch(True)
    for l in range(len(listing1.blocks)):
        d = map_directive_mc_to_mir(DCallMc(lay.addr(l)), lay)
        assert d.target == PC(l, 0)
        assert lay.addr(d.target.label) + d.target.offset == lay.addr(l)
    assert map_directive_mc_to_mir(DCallMc(1), lay) is None


def test_obs_mapping(listing1):
    lay = layout(listing1, 8)
    assert map_obs_mir_to_mc(OCall(3), lay) == OCall(lay.addr(3))
    assert map_obs_mir_to_mc(OLoad(5), lay) == OLoad(5)
    assert map_obs_mir_to_mc(OBranch(True), lay) == OBranch(True)
