"""Golden standard output and exit codes of a fixed set of `specibt`
commands on Listing 1 and on small seeded fuzz campaigns.

To re-record `tests/data/cli_golden.json` after a deliberate output change:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import json
import pathlib
import sys

import pytest

from conftest import invoke

ROOT = pathlib.Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"
PAIR_DOC = json.loads((ROOT / "corpus" / "listing1_pair.json").read_text())

# Input files written per run; "{name}" in an argument is replaced by its path.
INPUTS = {
    "s1": PAIR_DOC["s1"],
    "spec_dirs": [{"branch": True}, {"call": {"label": 4, "offset": 0}}],
    "mc_dirs": [{"branch": False}, {"call": {"addr": 15}}],
}
P = "corpus/listing1.mir"
PAIR = "corpus/listing1_pair.json"
SMALL = ["--depth", "2", "--sequences", "30", "--fuel", "300"]

COMMANDS = [
    ["run", "--sem", "seq", P, "{s1}"],
    ["run", "--sem", "spec", "--no-cet", "--dir", "{spec_dirs}", P, "{s1}"],
    ["run", "--sem", "spec", "--ct", "--ms", "--dir", "{spec_dirs}", P, "{s1}"],
    ["run", "--sem", "ideal", "--dir", "{spec_dirs}", P, "{s1}"],
    ["run", "--sem", "ideal", "--ms", "--dir", "{spec_dirs}", P, "{s1}"],
    ["run", "--sem", "mc", "--dir", "{mc_dirs}", P, "{s1}"],
    ["harden", P],
    ["harden", "--variant", "mask-only", P],
    ["linearize", P, "--data-len", "8", "--layout-out", "{layout_out}"],
    ["check", "bcc", P, "{s1}", "--depth", "3"],
    ["check", "bcc", P, "{s1}", "--depth", "3", "--variant", "no-call-mask"],
    ["check", "safety", P, "{s1}", "--depth", "3"],
    ["check", "rs", P, PAIR, "--depth", "4"],
    ["check", "rs", P, PAIR, "--depth", "4", "--pipeline", "end-to-end"],
    ["check", "rs", P, PAIR, "--depth", "4", "--variant", "no-edge-split"],
    ["check", "linearize", P, "{s1}", "--depth", "4"],
    ["attack", "--target", "pht", P, PAIR],
    ["attack", "--target", "btb", P, PAIR],
    ["fuzz-bcc", "--seed", "1", "--runs", "5", *SMALL],
    ["fuzz-safety", "--seed", "2", "--runs", "5", *SMALL],
    ["fuzz-rs", "--seed", "3", "--runs", "3", *SMALL],
    ["fuzz-linearize", "--seed", "4", "--runs", "5", *SMALL],
    ["fuzz-linearize", "--corpus", "corpus", "--seed", "5", "--runs", "2", *SMALL],
]


def _invoke(args, tmp: pathlib.Path) -> dict:
    paths = {"layout_out": str(tmp / "layout.json")}
    for name, doc in INPUTS.items():
        f = tmp / f"{name}.json"
        f.write_text(json.dumps(doc))
        paths[name] = str(f)
    res = invoke([a.format(**paths) for a in args])
    return {"args": args, "exit_code": res.exit_code, "stdout": res.stdout}


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("k", range(len(COMMANDS)),
                         ids=[f"{k:02d}-{c[0]}" for k, c in enumerate(COMMANDS)])
def test_cli_golden(tmp_path, k):
    want = json.loads(GOLDEN.read_text())[k]
    assert want["args"] == COMMANDS[k]
    assert _invoke(COMMANDS[k], tmp_path) == want


if __name__ == "__main__":
    import os
    import tempfile

    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as d:
        golden = [_invoke(c, pathlib.Path(d)) for c in COMMANDS]
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(golden)} commands to {GOLDEN}", file=sys.stderr)
