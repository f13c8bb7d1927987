import json
import pathlib

import pytest

from hopfcore import build_ueg, build_xyw
from hopfcore.coalgebra import instance_from_json
from hopfcore.pbw import PBWStructure

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"

HEIS_BRACKETS = {"x": {"y": {"z": "1"}}}
SL2_BRACKETS = {"h": {"e": {"e": "2"}, "f": {"f": "-2"}}, "e": {"f": {"h": "1"}}}


@pytest.fixture(scope="session")
def qt():
    return PBWStructure.from_bialgebra(build_ueg(["t"], {}, 3))


@pytest.fixture(scope="session")
def heis():
    return PBWStructure.from_bialgebra(build_ueg(["x", "y", "z"], HEIS_BRACKETS, 4))


@pytest.fixture(scope="session")
def sl2():
    return PBWStructure.from_bialgebra(build_ueg(["e", "f", "h"], SL2_BRACKETS, 4))


@pytest.fixture(scope="session")
def xyw():
    return PBWStructure.from_bialgebra(build_xyw(4))


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


def load_fixture(name):
    with open(FIXTURES / name, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="session")
def host_at():
    """The PBW structure of a fixture instance at a given degree bound,
    built once per (instance, degree)."""
    cache = {}

    def get(name, degree):
        if (name, degree) not in cache:
            data = instance_from_json(load_fixture(f"instances/{name}.json"), degree)
            cache[name, degree] = PBWStructure.from_bialgebra(data)
        return cache[name, degree]

    return get
