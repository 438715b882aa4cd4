from fractions import Fraction

import pytest

from facering import linalg
from facering.corpus import corpus
from facering.linalg import GF, QQ


@pytest.fixture
def no_fractions(monkeypatch):
    """Make building a Fraction inside `linalg` raise: what runs meanwhile
    takes the integer path.  Its input must hold no Fraction entries."""

    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("linalg built a Fraction")

    monkeypatch.setattr(linalg, "Fraction", NoFraction)


@pytest.fixture(scope="session")
def complexes():
    return corpus()


@pytest.fixture(scope="session")
def cycle3(complexes):
    return complexes["cycle3"]


@pytest.fixture(scope="session")
def bowtie(complexes):
    return complexes["bowtie"]


@pytest.fixture(scope="session")
def pair_edges(complexes):
    return complexes["pair_edges"]


@pytest.fixture(scope="session")
def octahedron(complexes):
    return complexes["octahedron"]


@pytest.fixture(scope="session")
def rp2_6(complexes):
    return complexes["rp2_6"]


@pytest.fixture(scope="session")
def f2():
    return GF(2)


@pytest.fixture(scope="session")
def f3():
    return GF(3)


@pytest.fixture(scope="session")
def f_big():
    return GF(32003)


@pytest.fixture(scope="session")
def qq():
    return QQ
