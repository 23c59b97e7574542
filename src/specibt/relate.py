"""Relations between executions and languages: trace prefix-equivalence,
the value/state refinement relation across linearization, and
directive/observation mappings between the block-structured and flat
machine levels.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .ir import UV, Value
from .interp import (
    DBranch,
    DCallMc,
    DCallMir,
    Directive,
    Obs,
    OCall,
    State,
    new,
)
from .machine import LayoutMap, concretize_value


def trace_cmp(o1: Sequence[Obs], o2: Sequence[Obs]) -> bool:
    """True iff one trace is a prefix of the other. Reflexive and symmetric,
    not transitive."""
    n = min(len(o1), len(o2))
    return list(o1[:n]) == list(o2[:n])


def value_rel(v: Value, n: int, lay: LayoutMap) -> bool:
    """Naturals relate to themselves, function pointers to their code
    addresses, UV to every natural."""
    return v is UV or concretize_value(v, lay) == n


def state_rel(s_mir: State, s_mc: State, lay: LayoutMap) -> bool:
    """Pointwise value relation between a block-level state and a machine
    state over pc, registers, memory and return stack, plus equality of the
    ct/ms flags."""
    return (s_mir.ct == s_mc.ct and s_mir.ms == s_mc.ms
            and lay.pc_addr(s_mir.pc) == s_mc.pc
            and len(s_mir.stk) == len(s_mc.stk)
            and all(lay.pc_addr(pc) == a for pc, a in zip(s_mir.stk, s_mc.stk))
            and len(s_mir.mem) == len(s_mc.mem)
            and all(value_rel(v, n, lay) for v, n in zip(s_mir.mem, s_mc.mem))
            and all(value_rel(s_mir.regs.get(n, UV), s_mc.regs.get(n, 0), lay)
                    for n in set(s_mir.regs) | set(s_mc.regs)))


def map_directive_mc_to_mir(d: Directive, lay: LayoutMap) -> Optional[Directive]:
    """Machine directives to block-structured directives. Call addresses
    outside the code section are unmappable."""
    if isinstance(d, DBranch):
        return d
    if isinstance(d, DCallMc):
        pc = lay.addr_to_pc(d.addr)
        return DCallMir(pc) if pc is not None else None
    raise TypeError(f"not a machine-level directive: {d!r}")


def map_obs_mir_to_mc(o: Obs, lay: LayoutMap) -> Obs:
    """Call observations carry labels at the block level and addresses at
    the machine level; data accesses and branch outcomes are unchanged."""
    if isinstance(o, OCall):
        return new(OCall, (lay.addr(o.target),))
    return o
