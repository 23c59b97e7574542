"""Pinned printed text of generated programs, as written and hardened under
each variant: the program text and the machine listing of its linearization
at a data section of 8 cells. Digests were recorded before the printer and
the linearizer became one walk over each instruction's fields."""

import hashlib
import random

from specibt.cli import VARIANTS
from specibt.gen import gen_program
from specibt.hardening import ReservedRegs, harden
from specibt.ir import Call, Cond, _subterms
from specibt.machine import linearize
from specibt.textio import print_mc_program, print_program

SEED, PROGRAMS = 2300, 40

PINNED = {
    "source": "38e29d24971f7df17207766c66006dc22d0962af141dbf0cbd662ed9f3704e5d",
    "full": "577d340df6d1ab3afb00ef2efba87109768f0696666aef3a0f63eedac7486e36",
    "mask-only": "aff36e23a5bc6ca6a384b3d84f9c70249fa20b07ed9efd24c76a7d1ec33c77ed",
    "no-call-mask": "3ef170ee2a86330265c03b421a499dfe6621ea903fc8e4d842ba5156cc9feb4a",
    "no-edge-split": "f6ad0675e3452d5ca423cf0902cf0da306096836afcf2530260a216cdcc39d69",
    "no-entry-check": "4cf7d6877d4d254f18e6849b9ef1ed92420b0acbd6d28df445669a5ab017fce7",
}


def _programs() -> dict[str, list]:
    """The generated programs as written, and hardened under each variant."""
    rng = random.Random(SEED)
    sources = [gen_program(rng) for _ in range(PROGRAMS)]
    return {"source": sources} | {
        name: [harden(p, ReservedRegs(), cfg) for p in sources]
        for name, cfg in sorted(VARIANTS.items())
    }


def test_printed_programs_and_listings_are_pinned():
    digests = {}
    for name, programs in _programs().items():
        h = hashlib.sha256()
        for p in programs:
            h.update(print_program(p).encode())
            h.update(print_mc_program(linearize(p, 8)).encode())
        digests[name] = h.hexdigest()
    assert digests == PINNED


def test_pinned_programs_hold_every_kind_of_instruction_and_expression():
    insts = [i for ps in _programs().values() for p in ps for b in p.blocks for i in b.insts]
    kinds = {type(x).__name__ for i in insts for x in (i, *_subterms(i))}
    assert kinds == {"Skip", "Asgn", "Branch", "Jump", "Load", "Store", "Call", "CTarget",
                     "Ret", "Const", "FpConst", "Reg", "BinOp", "Cond"}
    assert any(isinstance(i, Call) and isinstance(i.target, Cond) for i in insts)  # masked
