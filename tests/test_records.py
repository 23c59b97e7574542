"""The record contract of `specibt.ir.Record` and `specibt.ir.Code`, checked
on every record class of the package."""

import copy
import importlib
import pickle

import pytest

from specibt.explore import Driver
from specibt.interp import Fault, Lockstep, Next, OLoad, OStore
from specibt.ir import PC, Block, Code, Program, Record

MODULES = ("ir", "interp", "machine", "explore", "gen", "hardening", "relate",
           "checks", "textio", "cli")


def _classes(base):
    found = []
    for name in MODULES:
        mod = importlib.import_module(f"specibt.{name}")
        found += [c for c in vars(mod).values() if isinstance(c, type)
                  and issubclass(c, base) and c is not base
                  and c.__module__ == mod.__name__]
    return sorted(set(found), key=lambda c: (c.__module__, c.__name__))


RECORDS = _classes(Record)
CODE = _classes(Code)
EVERY = RECORDS + CODE


def _values(cls, tag=0):
    """Distinct hashable field values; a record does not check their types."""
    return tuple(f"{f}{tag}" for f in cls._fields)


def test_every_record_class_is_found():
    # every class that was a dataclass or a NamedTuple; a record class may be added
    assert {
        "Asgn", "BinOp", "Block", "Branch", "CTarget", "Call", "Cond", "Const",
        "DBranch", "DCallMc", "DCallMir", "DirectiveMismatch", "Driver", "EquivPair",
        "ExploreBudget", "FP", "Fault", "FpConst", "GenConfig", "Jump", "LayoutMap",
        "Load", "Lockstep", "McProgram", "Next", "OBranch", "OCall", "OLoad", "OStore",
        "OutOfDirectives", "PC", "ParseIssue", "PassConfig", "Program", "Reg",
        "ReservedRegs", "Ret", "RunResult", "Skip", "State", "Store", "Stuck", "Term",
        "Verdict", "_Parted",
    } <= {c.__name__ for c in EVERY}
    assert {c.__name__ for c in CODE} == {"Program", "McProgram"}


@pytest.mark.parametrize("cls", EVERY, ids=lambda c: c.__name__)
def test_equal_only_within_the_class(cls):
    r = cls(*_values(cls))
    assert r == cls(*_values(cls)) and not r != cls(*_values(cls))
    if cls._fields:
        assert r != cls(*_values(cls, 1)) and not r == cls(*_values(cls, 1))
    for other in EVERY:
        if other is not cls and len(other._fields) == len(cls._fields):
            twin = other(*_values(cls))
            assert r != twin and not r == twin


def test_equality_examples():
    assert OLoad(3) == OLoad(3)
    assert OLoad(3) != OStore(3) and not OLoad(3) == OStore(3)
    assert OLoad(3) != OLoad(4)
    # a record never equals a plain tuple, from either side
    assert OLoad(3) != (3,) and (3,) != OLoad(3) and not (3,) == OLoad(3)


def test_former_named_tuples_compare_only_within_their_class():
    # `Lockstep` and `Next` were tuples that equalled any record of their
    # fields from their own side, and shared its dict entries
    for r, twin in ((Lockstep(1, 2), Driver(1, 2)), (Next(1, 2), PC(1, 2))):
        assert r != twin and twin != r and not r == twin and not twin == r
        assert {r: "y"}.get(twin) is None and {twin: "y"}.get(r) is None


@pytest.mark.parametrize("cls", EVERY, ids=lambda c: c.__name__)
def test_hash_is_the_hash_of_the_fields(cls):
    values = _values(cls)
    assert hash(cls(*values)) == hash(values)


@pytest.mark.parametrize("cls", EVERY, ids=lambda c: c.__name__)
def test_immutable(cls):
    r = cls(*_values(cls))
    for f in cls._fields:
        with pytest.raises(AttributeError):
            setattr(r, f, 0)
        with pytest.raises(AttributeError):
            delattr(r, f)
    with pytest.raises(AttributeError):
        r.not_a_field = 0


@pytest.mark.parametrize("cls", EVERY, ids=lambda c: c.__name__)
def test_repr(cls):
    values = _values(cls)
    fields = ", ".join(f"{f}={v!r}" for f, v in zip(cls._fields, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_keyword_construction(cls):
    values = _values(cls)
    assert cls(**dict(zip(cls._fields, values))) == cls(*values)
    for i, f in enumerate(cls._fields):
        assert getattr(cls(*values), f) == values[i]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_defaults_and_arity(cls):
    required = [f for f in cls._fields if f not in cls._defaults]
    r = cls(*(f"{f}0" for f in required))
    for f, v in cls._defaults.items():
        assert getattr(r, f) == v
    with pytest.raises(TypeError):
        cls(*_values(cls), "one too many")
    with pytest.raises(TypeError):
        cls(not_a_field=0)
    if required:
        with pytest.raises(TypeError):
            cls()


def test_default_examples():
    assert Block(insts=(), is_entry=True) == Block((), True)
    assert Block(()).is_entry is False
    assert Fault().obs is None and Fault(OLoad(1)).obs == OLoad(1)
    assert PC(1, 2)._replace(offset=5) == PC(1, 5)


@pytest.mark.parametrize("cls", EVERY, ids=lambda c: c.__name__)
def test_copies_and_pickles_round_trip(cls):
    r = cls(*_values(cls))
    for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert twin == r and type(twin) is cls and repr(twin) == repr(r)


def test_copies_of_code_start_with_an_empty_cache():
    p = Program((Block((), is_entry=True),))
    p.compiled["rules"] = [lambda s, d: None]  # closures do not pickle
    for twin in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin == p and twin.compiled == {}
