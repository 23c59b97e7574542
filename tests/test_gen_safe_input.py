"""Early rejection in `gen_safe_input`: sound, and invisible in the stream.

A program whose run from the all-UV state runs out of fuel is rejected
without running any drawn input. That must never reject a program some
input terminates on, and it must leave the results and the rng exactly
where the full rejection sampling leaves them. The digests in
`data/gen_safe_input_stream.json` were recorded with the plain
50-attempt loop.
"""

import hashlib
import json
import pathlib
import random

from specibt.gen import GenConfig, gen_program, gen_safe_input, gen_state
from specibt.interp import State, run_seq
from specibt.ir import PC, UV
from specibt.textio import encode_state

PINNED = pathlib.Path(__file__).parent / "data" / "gen_safe_input_stream.json"


def _sha256(doc) -> str:
    return hashlib.sha256(doc.encode()).hexdigest()


def test_all_uv_fuel_out_implies_every_input_fuels_out():
    cfg = GenConfig()
    rng = random.Random(77)
    hopeless = 0
    for _ in range(200):
        p = gen_program(rng, cfg)
        all_uv = State(PC(0, 0), {}, (UV,) * cfg.mem_len)
        if run_seq(p, all_uv, 500).status != "fuel":
            continue
        hopeless += 1
        for _ in range(3):
            assert run_seq(p, gen_state(rng, cfg), 500).status == "fuel"
    assert hopeless > 0  # the property was exercised


def test_rejection_sampling_stream_is_pinned():
    pinned = json.loads(PINNED.read_text())
    rng = random.Random(pinned["seed"])
    results = []
    for _ in range(pinned["programs"]):
        p = gen_program(rng)
        s = gen_safe_input(rng, p, fuel=pinned["fuel"])
        results.append(None if s is None else encode_state(s))
    assert sum(r is not None for r in results) == pinned["accepted"]
    assert _sha256(json.dumps(results, sort_keys=True)) == pinned["results_sha256"]
    assert _sha256(repr(rng.getstate())) == pinned["rng_state_sha256"]
