from __future__ import annotations

import pytest
from hypothesis import settings

import weylenum as we

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def d4():
    return we.root_system("D4")


@pytest.fixture(scope="session")
def d4_levels(d4):
    return list(we.generate_group(d4))


@pytest.fixture(scope="session")
def d4_index(d4_levels):
    return we.build_index(we.CheckedRun(d4_levels))


@pytest.fixture(scope="session")
def d4_classes(d4_index):
    return we.conjugacy_classes(d4_index)


@pytest.fixture(scope="session")
def b3_levels():
    return list(we.generate_group(we.root_system("B3")))


@pytest.fixture(scope="session")
def a3_levels():
    return list(we.generate_group(we.root_system("A3")))


@pytest.fixture(scope="session")
def d5_index():
    return we.build_index(we.CheckedRun(we.generate_group(we.root_system("D5"))))


@pytest.fixture(scope="session")
def d6_index():
    return we.build_index(we.CheckedRun(we.generate_group(we.root_system("D6"))))


@pytest.fixture(scope="session")
def d6_classes(d6_index):
    return we.conjugacy_classes(d6_index)
