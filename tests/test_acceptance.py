"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

The exploration-based criteria are bounded checks: every prediction point
within the stated depth is forked exhaustively, with the sequence cap as a
safety valve.
"""

import json
import pathlib
import random
import time


from specibt.checks import (
    UNSAFE,
    attack_search,
    check_bcc_linearize,
    check_bcc_specibt,
    check_relative_security,
    check_safety_preservation,
)
from specibt.explore import ExploreBudget
from specibt.gen import (
    gen_program,
    gen_safe_input,
    gen_state,
    spec_of,
)
from specibt.hardening import (
    MASK_ONLY,
    NO_CALL_MASK,
    NO_EDGE_SPLIT,
    NO_ENTRY_CHECK,
    harden,
)
from specibt.interp import (
    DBranch,
    DCallMir,
    Next,
    OBranch,
    OCall,
    OLoad,
    OStore,
    State,
    run_ideal,
    run_seq,
    run_spec,
    step_ideal,
)
from specibt.ir import FP, PC
from specibt.textio import (
    decode_directives,
    decode_state,
    decode_trace,
    encode_directives,
    encode_state,
    encode_trace,
    parse_program,
    print_program,
)

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"


def report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _pair():
    doc = json.loads((CORPUS / "listing1_pair.json").read_text())
    return decode_state(doc["s1"]), decode_state(doc["s2"])


def _listing1():
    return parse_program((CORPUS / "listing1.mir").read_text())


def test_criterion_1_attack_reproduction(capsys):
    p = _listing1()
    s1, s2 = _pair()
    budget = ExploreBudget(depth=3, max_sequences=500, fuel=300)

    t0 = time.time()
    pht = attack_search(p, spec_of(s1), spec_of(s2), budget, cet=False)
    t_pht = time.time() - t0
    ok_pht = (
        pht is not None
        and t_pht < 1.0
        and any(isinstance(d, DBranch) and d.taken for d in pht[0])
    )

    # the masking-only baseline falls to mid-block call injection past the
    # edge-split block head, which skips the taken-edge flag update
    hp = harden(p, cfg=MASK_ONLY)
    sp1, sp2 = (State(s.pc, {**s.regs, "msf": 0}, s.mem, s.stk) for s in (s1, s2))
    t0 = time.time()
    btb = attack_search(hp, sp1, sp2, budget, cet=False)
    t_btb = time.time() - t0
    ok_btb = btb is not None and t_btb < 1.0

    inject = [DBranch(False), DCallMir(PC(5, 1)), DCallMir(PC(4, 0))]
    tr = []
    for s in (s1, s2):
        sp = State(s.pc, {**s.regs, "msf": 0}, s.mem, s.stk)
        tr.append(run_spec(hp, sp, inject, 300, cet=False).trace)
    ok_inject = tr[0] != tr[1]

    report(
        capsys, 1, ok_pht and ok_btb and ok_inject,
        f"pht found in {t_pht * 1000:.0f} ms, btb baseline broken in "
        f"{t_btb * 1000:.0f} ms, exact mid-block injection leaks",
    )


DEPTH6 = ExploreBudget(depth=6, max_sequences=1_000_000, fuel=600)


def test_criterion_2_mitigation_completeness(capsys):
    s1, s2 = _pair()
    t0 = time.time()
    v = check_relative_security(_listing1(), s1, s2, DEPTH6)
    dt = time.time() - t0
    report(
        capsys, 2, v.ok and dt < 60,
        f"hardened program: no divergence over {v.runs} directive sequences "
        f"at depth 6 in {dt:.1f} s",
    )


def test_criterion_3_bcc_differential(capsys):
    rng = random.Random(1003)
    budget = ExploreBudget(depth=5, max_sequences=100, fuel=300)
    t0 = time.time()
    sequences = unsafe = 0
    for _ in range(300):
        p = gen_program(rng)
        s = gen_state(rng)
        v = check_bcc_specibt(p, s, budget)
        # the check refuses an input only if its sequential run is stuck
        if v == UNSAFE and run_seq(p, s, budget.fuel).status == "stuck":
            unsafe += 1
        elif not v.ok:
            report(capsys, 3, False, f"trace mismatch: {v.reason}")
        sequences += v.runs
    dt = time.time() - t0
    report(
        capsys, 3, dt < 300,
        f"300 programs ({unsafe} inputs sequentially unsafe), {sequences} "
        f"directive sequences, zero mismatches in {dt:.1f} s",
    )


def test_criterion_4_safety_preservation(capsys):
    rng = random.Random(1004)
    budget = ExploreBudget(depth=5, max_sequences=100, fuel=300)
    checked = 0
    sequences = 0
    while checked < 300:
        p = gen_program(rng)
        s = gen_safe_input(rng, p, fuel=2000)
        if s is None:
            continue
        checked += 1
        v = check_safety_preservation(p, s, budget)
        if v.status != "pass":
            report(capsys, 4, False, f"speculative UB: {v.reason}")
        sequences += v.runs

    illtyped = parse_program((CORPUS / "illtyped.mir").read_text())
    s = State(PC(0, 0), {"x": 1, "i": 0, "j": 1}, (0,) * 4)
    v = check_safety_preservation(illtyped, s, ExploreBudget(4, 3000, 300))
    report(
        capsys, 4, v.ok,
        f"300 safe inputs, {sequences} sequences, zero stuck runs; "
        "undefined-comparison fixture passes",
    )


def test_criterion_5_linearization_bcc(capsys):
    rng = random.Random(1005)
    budget = ExploreBudget(depth=2, max_sequences=50, fuel=300)
    checked = passes = skipped = 0
    t0 = time.time()
    while checked < 300:
        p = gen_program(rng)
        s = gen_safe_input(rng, p, fuel=2000)
        if s is None:
            continue
        checked += 1
        v = check_bcc_linearize(p, spec_of(s), budget)
        if v.status == "counterexample":
            report(capsys, 5, False, f"lockstep break: {v.reason}")
        if v.ok:
            passes += 1
        else:
            skipped += 1
    dt = time.time() - t0
    report(
        capsys, 5, True,
        f"300 configurations, {passes} full agreement, {skipped} skipped "
        f"(speculatively unsafe source), zero violations in {dt:.1f} s",
    )


def test_criterion_6_end_to_end(capsys):
    s1, s2 = _pair()
    t0 = time.time()
    v = check_relative_security(_listing1(), s1, s2, DEPTH6, "end-to-end")
    dt = time.time() - t0
    report(
        capsys, 6, v.ok and dt < 60,
        f"machine level: no divergence over {v.runs} directive sequences "
        f"at depth 6 in {dt:.1f} s",
    )


def test_criterion_7_sequential_transparency(capsys):
    rng = random.Random(1007)
    checked = 0
    while checked < 500:
        p = gen_program(rng)
        s = gen_safe_input(rng, p, fuel=1000)
        if s is None:
            continue
        checked += 1
        hp = harden(p)
        regs = dict(s.regs)
        regs["msf"], regs["callee"] = 0, FP(0)
        r_src = run_seq(p, s, 3000)
        r_tgt = run_seq(hp, State(s.pc, regs, s.mem, s.stk), 6000)
        if r_src.trace != r_tgt.trace or r_tgt.status != "term":
            report(capsys, 7, False, "hardening changed sequential behavior")
    report(capsys, 7, True, "500 safe inputs, identical sequential traces")


def test_criterion_8_mutation_sensitivity(capsys):
    p = _listing1()
    s1, s2 = _pair()
    budget = ExploreBudget(depth=4, max_sequences=3000, fuel=400)
    caught = []
    for name, cfg in (
        ("no-edge-split", NO_EDGE_SPLIT),
        ("no-entry-check", NO_ENTRY_CHECK),
        ("no-call-mask", NO_CALL_MASK),
    ):
        rs = check_relative_security(p, s1, s2, budget, cfg=cfg)
        bcc = check_bcc_specibt(p, s1, budget, cfg=cfg)
        caught.append("counterexample" in (rs.status, bcc.status))
    report(
        capsys, 8, all(caught),
        "all three weakened pass variants produce counterexamples",
    )


def test_criterion_9_ideal_invariants(capsys):
    rng = random.Random(1009)
    masked_obs = {OLoad(0), OStore(0), OBranch(False), OCall(0)}

    def random_directives(k):
        out = []
        for _ in range(k):
            if rng.random() < 0.5:
                out.append(DBranch(rng.random() < 0.5))
            else:
                out.append(DCallMir(PC(rng.randrange(5), rng.randrange(3))))
        return out

    # (a) everything observable is masked once misspeculation is flagged
    for _ in range(1000):
        p = gen_program(rng)
        s = spec_of(gen_state(rng), ms=True)
        r = run_ideal(p, s, random_directives(6), 200)
        if not set(r.trace) <= masked_obs:
            report(capsys, 9, False, f"unmasked observation in {r.trace}")

    # (b) unwinding: under the flag, traces do not depend on registers/memory
    for _ in range(1000):
        p = gen_program(rng)
        d = random_directives(6)
        r1 = run_ideal(p, spec_of(gen_state(rng), ms=True), d, 200)
        r2 = run_ideal(p, spec_of(gen_state(rng), ms=True), d, 200)
        if r1.trace != r2.trace or r1.status != r2.status:
            report(capsys, 9, False, "trace depends on masked state")

    # (c) the misspeculation flag is monotone along every run
    for _ in range(1000):
        p = gen_program(rng)
        s = spec_of(gen_state(rng))
        ds = random_directives(6)
        used = 0
        for _step in range(200):
            out = step_ideal(p, s, None)
            if out.__class__.__name__ == "OutOfDirectives":
                if used >= len(ds):
                    break
                out = step_ideal(p, s, ds[used])
                used += 1
            if not isinstance(out, Next):
                break
            if s.ms and not out.state.ms:
                report(capsys, 9, False, "misspeculation flag went down")
            s = out.state
    report(capsys, 9, True, "masking, unwinding and monotonicity: 1000 trials each")


def test_criterion_10_round_trips(capsys):
    rng = random.Random(1010)
    for _ in range(1000):
        p = gen_program(rng)
        if parse_program(print_program(p)) != p:
            report(capsys, 10, False, "program text round trip broke")
    for _ in range(1000):
        s = spec_of(gen_state(rng), ct=rng.random() < 0.5, ms=rng.random() < 0.5)
        if decode_state(json.loads(json.dumps(encode_state(s)))) != s:
            report(capsys, 10, False, "state JSON round trip broke")
        p = gen_program(rng)
        sp = spec_of(gen_state(rng))
        r = run_spec(p, sp, [DBranch(True)] * 4, 60, cet=False)
        if decode_trace(json.loads(json.dumps(encode_trace(r.trace)))) != r.trace:
            report(capsys, 10, False, "trace JSON round trip broke")
        d = [DBranch(False), DCallMir(PC(1, 0))]
        if decode_directives(json.loads(json.dumps(encode_directives(d)))) != d:
            report(capsys, 10, False, "directive JSON round trip broke")
    report(capsys, 10, True, "1000 program, state, trace and directive round trips")
