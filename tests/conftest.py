import json
import pathlib

import pytest
from hypothesis import HealthCheck, settings

from specibt.textio import decode_state, parse_program

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"


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
