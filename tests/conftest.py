import math

import pytest

import ifs_lab.detectors as detectors
from ifs_lab import (Expanding, Flip, IfsSystem, NorthSouth, PiecewiseLinear,
                     Rotation)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture(scope="session")
def golden_rotation():
    return IfsSystem([Rotation(GOLDEN)])


@pytest.fixture(scope="session")
def rotation_flip():
    return IfsSystem([Rotation(GOLDEN), Flip()])


# The isometry certificates of `ifs_lab.certify` go by generator type, so a
# piecewise-linear identity keeps a system of rotations and flips out of
# them: its verdicts are searched, although every word is an isometry.
PL_IDENTITY = PiecewiseLinear(((0.0, 0.0), (1.0, 1.0)))


@pytest.fixture(scope="session")
def searched_golden_rotation():
    return IfsSystem([Rotation(GOLDEN), PL_IDENTITY])


@pytest.fixture(scope="session")
def searched_rotation_flip():
    return IfsSystem([Rotation(GOLDEN), Flip(), PL_IDENTITY])


@pytest.fixture(scope="session")
def ns_alone():
    return IfsSystem([NorthSouth(0.0, 2.0)])


@pytest.fixture(scope="session")
def doubling():
    return IfsSystem([Expanding(2)])


@pytest.fixture(scope="session")
def expanding_pair():
    return IfsSystem([Expanding(2), Expanding(3)])


@pytest.fixture(scope="session")
def hinge_system():
    lam = 1.8
    f = NorthSouth(0.5, lam)
    h1 = PiecewiseLinear(((0.0, 0.0), (0.5, 0.6), (1.0, 1.0)))
    h2 = PiecewiseLinear(((0.0, 0.0), (0.5, 0.4), (1.0, 1.0)))
    return IfsSystem([f, f.inverse(), h1, h2])


@pytest.fixture(scope="session")
def ns_rotation_sym():
    ns = NorthSouth(0.0, 2.0)
    rot = Rotation(GOLDEN)
    return IfsSystem([ns, ns.inverse(), rot, rot.inverse()])


@pytest.fixture
def chunk_ceilings(monkeypatch):
    """`record(module)` wraps the `_chunks` that `module` calls and
    returns the list to which each call appends the ceiling it was given:
    the most nodes one source may hold, by which chunks are sized."""
    def record(module):
        ceilings, chunks = [], detectors._chunks

        def recording(n, first, ceiling, *rest):
            ceilings.append(ceiling)
            return chunks(n, first, ceiling, *rest)

        monkeypatch.setattr(module, "_chunks", recording)
        return ceilings

    return record
