import contextlib
import io
import json
import pathlib
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, settings

from specibt.cli import main
from specibt.textio import decode_state, parse_program

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    output: str  # both streams, interleaved as written


class _Tee(io.StringIO):
    """A stream that also copies what it is written into `both`."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, s: str) -> int:
        self.both.write(s)
        return super().write(s)


def invoke(args) -> CliResult:
    """Run `specibt ARGS` in this process, with the exit code the process
    would have had."""
    both = io.StringIO()
    out, err = _Tee(both), _Tee(both)
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return CliResult(code, out.getvalue(), err.getvalue(), both.getvalue())


@pytest.fixture(scope="session")
def listing1():
    return parse_program((CORPUS / "listing1.mir").read_text())


@pytest.fixture(scope="session")
def listing1_hardened_text():
    return (CORPUS / "listing1.hardened.mir").read_text()


@pytest.fixture(scope="session")
def listing1_pair():
    doc = json.loads((CORPUS / "listing1_pair.json").read_text())
    return decode_state(doc["s1"]), decode_state(doc["s2"])


@pytest.fixture(scope="session")
def illtyped():
    return parse_program((CORPUS / "illtyped.mir").read_text())
