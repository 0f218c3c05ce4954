"""Shared fixtures: reference channels and random instance helpers."""

import os

# one BLAS thread, as perfbench/run.py sets it, before numpy is first imported:
# SLSQP's iteration count in best_rank_one_sweep, which TestSweepCost pins,
# depends on the thread count
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from miso_sud.oracle import ConstrainedMaxProblem
from miso_sud.region import MisoNetwork
from miso_sud.twouser import TwoUserChannel

# three-user five-antenna channel set used across the region tests;
# column i of matrix j is the vector from transmitter j to receiver i
H1 = np.array([
    [-2.1, 0.0, 0.5],
    [0.1, 0.2, 0.1],
    [1.5, 0.9, 0.3],
    [0.1, 0.2, -1.0],
    [0.2, 0.8, -0.9],
])
H2 = np.array([
    [0.0, 2.7, -0.5],
    [0.4, 0.4, 0.2],
    [-0.9, -1.3, -0.6],
    [0.8, 0.4, 0.0],
    [0.1, 0.5, 0.4],
])
H3 = np.array([
    [1.2, 0.0, 1.0],
    [0.8, 0.9, -1.7],
    [-2.6, 0.8, -1.0],
    [0.3, 1.3, 0.7],
    [0.8, 1.2, -1.0],
])
THREE_USER_POWERS = (1.0, 1.5, 2.0)

# reference zero-forcing rate triple for the channel set above, natural log
ZF_TRIPLE = (1.8118, 2.2998, 2.3077)

# equality-capped quadratic program with a known rank-2/rank-1 value pair
EX1_TARGET = np.array([1.9574, 0.5045, 1.8645, -0.3398])
EX1_CROSS_A = np.array([-1.1398, -0.2111, 1.1902, -1.1162])
EX1_CROSS_B = np.array([0.6353, -0.6014, 0.5512, -1.0998])
EX1_GENERAL_VALUE = 7.1100
EX1_RANK_ONE_VALUE = 7.0805


def build_three_user(field="real", powers=THREE_USER_POWERS):
    chans = (H1, H2, H3)
    if field == "complex":
        chans = tuple(c.astype(complex) for c in chans)
    return MisoNetwork(channels=chans, powers=tuple(powers), field=field)


@pytest.fixture
def three_user_net():
    return build_three_user()


@pytest.fixture
def example1_problem():
    return ConstrainedMaxProblem(
        target=EX1_TARGET,
        caps=((EX1_CROSS_A, 0.3, "equality"), (EX1_CROSS_B, 0.6, "equality")),
        p=1.0,
    )


def build_symmetric_pair(cross_norm=1.0 / np.sqrt(3.0), theta=np.pi / 3.0,
                         power=6.0, field="complex"):
    """Symmetric two-user channel with unit direct gains and the given
    cross gain and angle between direct and cross vectors."""
    direct = np.array([1.0, 0.0])
    cross = cross_norm * np.array([np.cos(theta), np.sin(theta)])
    if field == "complex":
        direct = direct.astype(complex)
        cross = cross.astype(complex)
    return TwoUserChannel(h1=direct, h2=cross, h3=cross, h4=direct,
                          p1=power, p2=power, field=field)


@pytest.fixture
def symmetric_pair():
    return build_symmetric_pair()


def random_vector(rng, dim, cplx):
    v = rng.normal(size=dim)
    if cplx:
        v = v + 1j * rng.normal(size=dim)
    return v


def certify_input(seed, index, d, cplx, n_caps):
    """(h, caps, p) of perfbench's certify_op(seed, index, d, cplx, n_caps),
    drawn with the same generator calls; caps are (vector, bound) upper caps."""
    rng = np.random.default_rng([3, seed, index])
    rng.uniform(size=8)

    def draw():
        v = rng.standard_normal(d)
        return (v + 1j * rng.standard_normal(d)) / np.sqrt(2.0) if cplx else v

    h = draw()
    p = float(rng.uniform(0.5, 3.0))
    caps = []
    for _ in range(n_caps):
        g = draw()
        caps.append((g, float(rng.uniform(0.1, 0.9)) * p * float(np.linalg.norm(g)) ** 2))
    return h, caps, p


def random_pair_channel(rng, dim=None, cplx=None):
    if dim is None:
        dim = int(rng.integers(2, 6))
    if cplx is None:
        cplx = bool(rng.integers(0, 2))
    return TwoUserChannel(
        h1=random_vector(rng, dim, cplx),
        h2=random_vector(rng, dim, cplx),
        h3=random_vector(rng, dim, cplx),
        h4=random_vector(rng, dim, cplx),
        p1=float(rng.uniform(0.5, 5.0)),
        p2=float(rng.uniform(0.5, 5.0)),
        field="complex" if cplx else "real",
    )
