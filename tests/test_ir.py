from specibt.ir import (
    UV,
    Asgn,
    BinOp,
    Block,
    Branch,
    Call,
    Const,
    CTARGET,
    FpConst,
    Jump,
    PC,
    Program,
    Reg,
    RET,
    SKIP,
    used_registers,
    wf_program,
)


def test_uv_is_singleton():
    assert UV is type(UV)()


def test_fetch_in_and_out_of_range():
    from specibt.interp import Next, State, Stuck, TERM, step_seq

    p = Program((Block((SKIP, RET), is_entry=True),))

    def step(pc):
        return step_seq(p, State(pc, {}, ()))

    assert step(PC(0, 0)) == Next(State(PC(0, 1), {}, ()))
    assert step(PC(0, 1)) is TERM
    for pc in (PC(0, 2), PC(1, 0), PC(-1, 0), PC(0, -1)):
        assert step(pc) == Stuck("pc out of range")


def test_wf_accepts_minimal_program():
    p = Program((Block((RET,), is_entry=True),))
    assert wf_program(p) == []


def test_wf_rejects_structural_errors():
    assert wf_program(Program(())) != []
    # block 0 must be an entry
    assert wf_program(Program((Block((RET,), is_entry=False),))) != []
    # missing terminator
    p = Program((Block((SKIP,), is_entry=True),))
    assert any("terminator" in i for i in wf_program(p))
    # branch into an entry block
    p = Program(
        (
            Block((Branch(Const(1), 1), RET), is_entry=True),
            Block((RET,), is_entry=True),
        )
    )
    assert any("entry" in i for i in wf_program(p))
    # jump target out of range
    p = Program((Block((Jump(3),), is_entry=True),))
    assert any("out of range" in i for i in wf_program(p))


def test_wf_function_pointer_constraints():
    p = Program(
        (
            Block((Asgn("r", FpConst(1)), RET), is_entry=True),
            Block((RET,), is_entry=False),
        )
    )
    assert any("non-entry" in i for i in wf_program(p))


def test_wf_reports_an_empty_block_a_pointer_past_the_end_and_an_unknown_operator():
    p = Program((Block((RET,), is_entry=True), Block((), is_entry=False)))
    assert wf_program(p) == ["block 1 is empty"]
    p = Program((Block((Asgn("r", FpConst(1)), RET), is_entry=True),))
    assert wf_program(p) == ["block 0[0]: function pointer &1 out of range"]
    p = Program((Block((Asgn("r", BinOp("%", Const(1), Const(2))), RET), is_entry=True),))
    assert wf_program(p) == ["block 0[0]: unknown operator '%'"]


def test_wf_ctarget_modes():
    p = Program((Block((CTARGET, RET), is_entry=True),))
    assert wf_program(p, mode="source") != []
    assert wf_program(p, mode="hardened") == []
    # ctarget away from the entry head is never allowed
    p = Program((Block((SKIP, CTARGET, RET), is_entry=True),))
    assert wf_program(p, mode="hardened") != []


def test_used_registers():
    p = Program(
        (
            Block(
                (Asgn("a", Reg("b")), Call(Reg("f")), Branch(Reg("c"), 1), RET),
                is_entry=True,
            ),
            Block((RET,), is_entry=False),
        )
    )
    assert used_registers(p) == frozenset({"a", "b", "c", "f"})
