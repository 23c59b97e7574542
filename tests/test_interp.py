"""Hand-applied rule examples and properties for the three semantics."""

import random

import pytest

from specibt.gen import gen_program, gen_state, spec_of
from specibt.interp import (
    DBranch,
    DCallMir,
    DirectiveMismatch,
    Fault,
    Next,
    OBranch,
    OCall,
    OLoad,
    OStore,
    OutOfDirectives,
    SEQ,
    State,
    Stuck,
    Term,
    run_ideal,
    run_seq,
    run_spec,
    step_ideal,
    step_seq,
    step_spec,
)
from specibt.ir import (
    UV,
    Asgn,
    BinOp,
    Block,
    Branch,
    Call,
    Cond,
    Const,
    CTARGET,
    FP,
    FpConst,
    Load,
    PC,
    Program,
    Reg,
    RET,
    SKIP,
    Store,
)

# --------------------------------------------------------------------------
# Expression evaluation


def ev(e, **regs):
    """The value of `e`, as a sequential assignment step computes it."""
    p = Program((Block((Asgn("out", e), RET), is_entry=True),))
    return step_seq(p, State(PC(0, 0), regs, ())).state.regs["out"]


def test_fp_equality_compares_labels():
    assert ev(BinOp("=", FpConst(2), FpConst(2))) == 1
    assert ev(BinOp("=", FpConst(1), FpConst(2))) == 0


def test_mixed_fp_nat_is_undefined():
    assert ev(BinOp("=", FpConst(1), Const(1))) is UV
    assert ev(BinOp("+", FpConst(0), Const(1))) is UV
    assert ev(BinOp("<=", Const(1), Reg("x")), x=FP(1)) is UV


def test_nat_arithmetic():
    assert ev(BinOp("+", Const(2), Const(3))) == 5
    assert ev(BinOp("-", Const(2), Const(3))) == 0  # truncated at zero
    assert ev(BinOp("-", Const(7), Const(3))) == 4
    assert ev(BinOp("*", Const(4), Const(3))) == 12
    assert ev(BinOp("<=", Const(3), Const(3))) == 1
    assert ev(BinOp("&&", Const(2), Const(5))) == 1
    assert ev(BinOp("&&", Const(0), Const(5))) == 0
    assert ev(BinOp("->", Const(0), Const(0))) == 1
    assert ev(BinOp("->", Const(1), Const(0))) == 0
    assert ev(BinOp("->", Const(1), Const(9))) == 1


def test_cond_is_lazy_in_the_unused_arm():
    # The unused arm may be undefined without poisoning the result.
    e = Cond(Const(1), Const(7), BinOp("+", FpConst(0), Const(1)))
    assert ev(e) == 7
    e = Cond(Const(0), Reg("nope"), Const(9))
    assert ev(e) == 9


def test_cond_on_non_nat_is_undefined():
    assert ev(Cond(FpConst(0), Const(1), Const(2))) is UV
    assert ev(Cond(Reg("undefined"), Const(1), Const(2))) is UV


def test_unset_register_reads_uv():
    assert ev(Reg("r")) is UV


def test_unknown_operator_raises_when_applied():
    # compiling the expression does not apply it, and UV never reaches it
    assert ev(BinOp("%", Reg("u"), Const(1))) is UV
    with pytest.raises(ValueError, match="unknown operator"):
        ev(BinOp("%", Const(1), Const(1)))


def test_rules_are_compiled_once_and_kept_on_the_program():
    p = Program((Block((SKIP, RET), is_entry=True),))
    s = State(PC(0, 0), {}, ())
    step_seq(p, s)
    (rule, unreached), = p.compiled[SEQ]
    assert unreached is None
    step_seq(p, s)
    assert p.compiled[SEQ][0][0] is rule
    # the compiled rules are no part of the program's value
    assert p == Program(p.blocks) and hash(p) == hash(Program(p.blocks))
    assert repr(p) == repr(Program(p.blocks))


# --------------------------------------------------------------------------
# Sequential semantics

TWO_FUN = Program(
    (
        Block((Call(Reg("f")), RET), is_entry=True),
        Block((SKIP, RET), is_entry=True),
        Block((Load("x", Const(0)), RET), is_entry=True),
    )
)


def seq(regs, mem=(0, 0)):
    return State(PC(0, 0), regs, tuple(mem))


def test_seq_call_pushes_return_address():
    out = step_seq(TWO_FUN, seq({"f": FP(1)}))
    assert isinstance(out, Next)
    assert out.state.pc == PC(1, 0)
    assert out.state.stk == (PC(0, 1),)
    assert out.obs == OCall(1)


def test_seq_call_requires_function_pointer():
    assert isinstance(step_seq(TWO_FUN, seq({"f": 1})), Stuck)
    assert isinstance(step_seq(TWO_FUN, seq({})), Stuck)


def test_seq_ret_on_empty_stack_terminates():
    s = State(PC(0, 1), {}, (0,))
    assert isinstance(step_seq(TWO_FUN, s), Term)


def test_seq_load_store_bounds():
    p = Program((Block((Load("x", Reg("a")), RET), is_entry=True),))
    assert isinstance(step_seq(p, State(PC(0, 0), {"a": 5}, (0, 0))), Stuck)
    out = step_seq(p, State(PC(0, 0), {"a": 1}, (0, 9)))
    assert isinstance(out, Next) and out.state.regs["x"] == 9 and out.obs == OLoad(1)
    p = Program((Block((Store(Const(0), Const(3)), RET), is_entry=True),))
    out = step_seq(p, State(PC(0, 0), {}, (0,)))
    assert out.state.mem == (3,) and out.obs == OStore(0)


def test_seq_full_run(listing1, listing1_pair):
    s1, s2 = listing1_pair
    r = run_seq(listing1, s1, 100)
    assert r.status == "term"
    assert r.trace == [OBranch(False), OCall(3)]
    assert run_seq(listing1, s2, 100).trace == r.trace


# --------------------------------------------------------------------------
# Speculative semantics


def spec(regs, mem=(0, 0), ct=False, ms=False):
    return State(PC(0, 0), regs, tuple(mem), (), ct, ms)


def test_spec_branch_sets_ms_on_mispredict():
    p = Program(
        (
            Block((Branch(Const(0), 1), RET), is_entry=True),
            Block((RET,), is_entry=False),
        )
    )
    out = step_spec(p, spec({}), DBranch(True))
    assert isinstance(out, Next)
    assert out.state.ms and out.state.pc == PC(1, 0)
    assert out.obs == OBranch(False)  # observation reports the real outcome
    out = step_spec(p, spec({}), DBranch(False))
    assert not out.state.ms and out.state.pc == PC(0, 1)


def test_spec_call_arms_ctarget_and_tracks_ms():
    s = spec({"f": FP(1)})
    out = step_spec(TWO_FUN, s, DCallMir(PC(1, 0)))
    assert isinstance(out, Next)
    assert out.state.ct and not out.state.ms
    assert out.obs == OCall(1)
    # injected target: ms flips, execution continues at the injected pc
    out = step_spec(TWO_FUN, s, DCallMir(PC(2, 0)))
    assert out.state.ct and out.state.ms and out.state.pc == PC(2, 0)


def test_spec_fault_on_non_ctarget_fetch_when_armed():
    out = step_spec(TWO_FUN, spec({}, ct=True))
    assert isinstance(out, Fault)


def test_spec_ctarget_clears_the_flag():
    p = Program((Block((CTARGET, RET), is_entry=True),))
    out = step_spec(p, spec({}, ct=True))
    assert isinstance(out, Next) and not out.state.ct


def test_spec_cet_disabled_never_faults():
    p = Program((Block((SKIP, RET), is_entry=True),))
    out = step_spec(p, spec({}, ct=True), cet=False)
    assert isinstance(out, Next)  # the flag is ignored without hardware support
    s = spec({"f": FP(1)})
    out = step_spec(TWO_FUN, s, DCallMir(PC(1, 0)), cet=False)
    assert not out.state.ct


def test_spec_directive_exhaustion_and_mismatch():
    s = spec({"f": FP(1)})
    assert isinstance(step_spec(TWO_FUN, s, None), OutOfDirectives)
    assert isinstance(step_spec(TWO_FUN, s, DBranch(True)), DirectiveMismatch)


def test_spec_pht_attack_leaks(listing1, listing1_pair):
    # Mispredicted bounds check plus a correct call prediction reaches the
    # gadget with an out-of-bounds index.
    s1, s2 = listing1_pair
    d = [DBranch(True), DCallMir(PC(4, 0))]
    r1 = run_spec(listing1, spec_of(s1), d, 100, cet=False)
    r2 = run_spec(listing1, spec_of(s2), d, 100, cet=False)
    assert OLoad(6) in r1.trace
    assert r1.trace != r2.trace
    assert r1.trace[:-1] == r2.trace[:-1]
    assert r1.trace[-1] == OLoad(5) and r2.trace[-1] == OLoad(7)


def test_spec_correct_predictions_match_sequential(listing1, listing1_pair):
    s1, _ = listing1_pair
    d = [DBranch(False), DCallMir(PC(3, 0))]
    r = run_spec(listing1, spec_of(s1), d, 100, cet=False)
    assert r.status == "term"
    assert r.trace == run_seq(listing1, s1, 100).trace
    assert r.state.ms is False


def test_run_spec_out_of_directives(listing1, listing1_pair):
    s1, _ = listing1_pair
    r = run_spec(listing1, spec_of(s1), [], 100, cet=False)
    assert r.status == "out-of-directives"
    assert r.trace == []


# --------------------------------------------------------------------------
# Ideal semantics


def ideal(regs, mem=(0, 0), ms=False):
    return State(PC(0, 0), regs, tuple(mem), (), ms=ms)


def test_ideal_masks_addresses_under_ms():
    p = Program((Block((Load("x", Const(1)), RET), is_entry=True),))
    out = step_ideal(p, State(PC(0, 0), {}, (7, 8), (), ms=True))
    assert out.obs == OLoad(0)
    assert out.state.regs["x"] == 7
    out = step_ideal(p, State(PC(0, 0), {}, (7, 8), (), ms=False))
    assert out.obs == OLoad(1)


def test_ideal_branch_masked_under_ms():
    p = Program(
        (
            Block((Branch(Const(1), 1), RET), is_entry=True),
            Block((RET,), is_entry=False),
        )
    )
    out = step_ideal(p, ideal({}, ms=True), DBranch(False))
    assert out.obs == OBranch(False)
    assert isinstance(out, Next)


def test_ideal_call_wrong_label_sets_ms():
    out = step_ideal(TWO_FUN, ideal({"f": FP(1)}), DCallMir(PC(2, 0)))
    assert isinstance(out, Next)
    assert out.state.ms and out.state.pc == PC(2, 0)
    assert out.obs == OCall(1)


def test_ideal_call_masks_target_under_ms():
    out = step_ideal(TWO_FUN, ideal({"f": FP(2)}, ms=True), DCallMir(PC(0, 0)))
    assert out.obs == OCall(0)  # masked to the zero function pointer


def test_ideal_call_invalid_directive_faults_with_observation():
    s = ideal({"f": FP(1)})
    for bad in (PC(1, 1), PC(9, 0)):
        out = step_ideal(TWO_FUN, s, DCallMir(bad))
        assert isinstance(out, Fault)
        assert out.obs == OCall(1)
    # non-entry target is equally invalid
    p = Program(
        (
            Block((Call(Reg("f")), RET), is_entry=True),
            Block((RET,), is_entry=False),
        )
    )
    out = step_ideal(p, ideal({"f": FP(0)}), DCallMir(PC(1, 0)))
    assert isinstance(out, Fault)


def test_ideal_fault_observation_lands_in_trace():
    r = run_ideal(TWO_FUN, ideal({"f": FP(1)}), [DCallMir(PC(1, 1))], 100)
    assert r.status == "fault"
    assert r.trace == [OCall(1)]


def test_ideal_correct_predictions_match_sequential(listing1, listing1_pair):
    s1, _ = listing1_pair
    d = [DBranch(False), DCallMir(PC(3, 0))]
    r = run_ideal(listing1, spec_of(s1), d, 100)
    assert r.trace == run_seq(listing1, s1, 100).trace


def test_ideal_masking_after_ms(listing1, listing1_pair):
    # Once misspeculating, every data observation is forced to zero.
    s1, _ = listing1_pair
    d = [DBranch(True), DCallMir(PC(4, 0))]
    r = run_ideal(listing1, spec_of(s1), d, 100)
    for o in r.trace[1:]:
        if isinstance(o, (OLoad, OStore)):
            assert o.addr == 0


# --------------------------------------------------------------------------
# Flags a semantics does not model


@pytest.mark.parametrize("sem", ["seq", "ideal"])
def test_unmodeled_flags_change_nothing_and_stay_clear(sem):
    """The sequential semantics reads neither flag and the ideal one not
    `ct`: along runs of generated programs, setting them changes no step's
    outcome or observation, and every successor has them clear."""
    rng = random.Random(11)
    steps = 0
    for _ in range(300):
        p = gen_program(rng)
        s = spec_of(gen_state(rng), ms=sem == "ideal" and rng.random() < 0.5)
        for _ in range(40):
            d = None
            if sem == "ideal":
                point = step_ideal(p, s)
                if isinstance(point, OutOfDirectives):
                    assert step_ideal(p, spec_of(s, ct=True, ms=s.ms)) == point
                    d = (DBranch(rng.random() < 0.5)
                         if isinstance(point.correct, DBranch)
                         else DCallMir(PC(rng.randrange(len(p.blocks)), 0)))
            if sem == "seq":
                out = step_seq(p, s)
                flagged = step_seq(p, spec_of(s, ct=True, ms=True))
            else:
                out = step_ideal(p, s, d)
                flagged = step_ideal(p, spec_of(s, ct=True, ms=s.ms), d)
            assert flagged == out
            if not isinstance(out, Next):
                break
            steps += 1
            assert not out.state.ct and (sem == "ideal" or not out.state.ms)
            s = out.state
    assert steps > 1000
