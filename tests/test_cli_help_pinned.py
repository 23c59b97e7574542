"""Pinned help and usage-error output of `specibt`: the exit code, standard
output and standard error of each command below, at a terminal width of 80
columns. Digests were recorded before the parser came to build only the
arguments of the subcommand that argv names. Python 3.10 to 3.12 print the
same bytes; the argparse of 3.13 lays out some help lines differently.

To print the digests after a deliberate change of the help text:

    PYTHONPATH=src:tests python3 tests/test_cli_help_pinned.py
"""

import hashlib
import os
import pathlib
import sys

import pytest

from conftest import invoke

ROOT = pathlib.Path(__file__).parent.parent
P, PAIR = "corpus/listing1.mir", "corpus/listing1_pair.json"
COMMANDS = ["run", "harden", "linearize", "check", "attack",
            "fuzz-bcc", "fuzz-safety", "fuzz-rs", "fuzz-linearize"]

CASES = {
    "help": ["--help"],
    **{f"{c}-help": [c, "--help"] for c in COMMANDS},
    "version": ["--version"],
    "no-command": [],
    "unknown-command": ["bogus"],
    "check-unknown-option": ["check", "bcc", P, PAIR, "--bogus"],
    "check-bare-unknown-option": ["check", "--bogus"],
    "check-non-integer-depth": ["check", "bcc", P, PAIR, "--depth", "x"],
}

PINNED = {
    "help": "182327cdc4b1bedc44db7e405eeee77ec814f68a4386b89274d4f3ad5c62bb11",
    "run-help": "7f56acafb8ac6787768fdf2158770f78ec1fddb3414026630ff019465cf6ce5c",
    "harden-help": "4027a8db44048977935d747545f3278ce3e241d28b90f487cedc7855c54de545",
    "linearize-help": "7f7fc62e487c8a9e4a19b02236854c712b9de9c55d971426690610dd8038226d",
    "check-help": "3d11239b9f02f4e3e90cbafa8b109667bd2122f70a6e80ee233453d6a86d958e",
    "attack-help": "d0f62cbd360bfda46603ca3558c553a271756a787a7de2cc2df1931bbdf8771d",
    "fuzz-bcc-help": "f208b14e10d28308fc7a1147f3199f0b1595d1cabbe7f647b0d45261df66a00c",
    "fuzz-safety-help": "961718a772cf15181fe4d0b2c554e11d9ae1daa40aebb404f91c10c84acf25be",
    "fuzz-rs-help": "fbfbdba5f2e4de1cdf07b4843f0025fd576e066ddd47c4b3a6dfffe18b885f31",
    "fuzz-linearize-help": "61e8dea0f1219e550e7be85979d1f6d7d2f40830363f1103408adf2d3fcf3f3f",
    "version": "b7c888c01646a436427339a901e146e548bf860692e44a5def5075e52801cf19",
    "no-command": "83eca3a5a09e62119c5936f3527a80371706364f86095a7e8832bd45b1def2a3",
    "unknown-command": "9130ce49b3cc96812730566b64fc8cc4c62c7309de547f2f26c94a926b1617a8",
    "check-unknown-option": "dbd9dfdf52a52b2e5f140103e9bd1aa1e41a983c931febf4de4bf180467029ce",
    "check-bare-unknown-option": "1dbf64aef57baef7519c57b8fd0ccc6be68b80df5fc3540e1d44ca0500cc61fc",
    "check-non-integer-depth": "a0a6121c2da56928522be8b51a59027596a55d2ec11d0424e428ba7874da69db",
}


def _digest(args) -> str:
    res = invoke(args)
    return hashlib.sha256(f"{res.exit_code}\n{res.stdout}\0{res.stderr}".encode()).hexdigest()


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="pinned under argparse 3.10-3.12")
@pytest.mark.parametrize("name", CASES)
def test_help_and_usage_errors_are_pinned(monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(ROOT)
    assert _digest(CASES[name]) == PINNED[name]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    os.chdir(ROOT)
    for name, args in CASES.items():
        print(f'    "{name}": "{_digest(args)}",')
