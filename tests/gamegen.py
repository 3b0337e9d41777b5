"""Shared generators for the test suite: hypothesis strategies plus
plain seeded-rng helpers for the larger sweeps."""

from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from tpass import lp
from tpass.equilibrium import _onto_one_two, _strict_kernel
from tpass.game import TpassGame, random_tpass, zero_sum_matrix

finite_entries = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


@st.composite
def games(draw, min_m=1, max_m=4, min_n=1, max_n=4):
    m = draw(st.integers(min_m, max_m))
    n = draw(st.integers(min_n, max_n))
    A = draw(
        st.lists(
            st.lists(finite_entries, min_size=n, max_size=n), min_size=m, max_size=m
        )
    )
    pi = draw(st.lists(finite_entries, min_size=m, max_size=m))
    rho = draw(st.lists(finite_entries, min_size=n, max_size=n))
    return TpassGame(np.array(A), np.array(pi), np.array(rho))


@st.composite
def simplex_vectors(draw, size):
    if draw(st.booleans()):
        vertex = draw(st.integers(0, size - 1))
        w = np.zeros(size)
        w[vertex] = 1.0
        return w
    w = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=size, max_size=size)))
    return w / w.sum()


@st.composite
def games_with_strategies(draw, **kwargs):
    g = draw(games(**kwargs))
    p = draw(simplex_vectors(g.m))
    q = draw(simplex_vectors(g.n))
    return g, p, q


def random_simplex(rng, size):
    w = rng.random(size) + 1e-9
    return w / w.sum()


def random_games(count, seed_base, min_dim=2, max_dim=8, lo=-1.0, hi=1.0, rng_seed=0):
    """Deterministic list of random games with rng-drawn dimensions."""
    rng = np.random.default_rng(rng_seed)
    out = []
    for k in range(count):
        m = int(rng.integers(min_dim, max_dim + 1))
        n = int(rng.integers(min_dim, max_dim + 1))
        out.append(random_tpass(m, n, lo, hi, seed=seed_base + k))
    return out


def random_lp(rng) -> lp.LpModel:
    """``m`` 1..4 rows, ``n`` 1..5 variables, integer entries in -3..3,
    60% zero right-hand sides, mixed relations, 20% free variables."""
    m, n = int(rng.integers(1, 5)), int(rng.integers(1, 6))
    b = np.where(rng.random(m) < 0.6, 0, rng.integers(-3, 4, size=m))
    return lp.LpModel(
        lp.MAX if rng.random() < 0.5 else lp.MIN,
        rng.integers(-3, 4, size=n),
        rng.integers(-3, 4, size=(m, n)),
        rng.choice([lp.LE, lp.EQ, lp.GE], size=m),
        b,
        tuple(lp.FREE if free else lp.NONNEG for free in rng.random(n) < 0.2),
    )


def benchmark_games(monkeypatch, workload, seed):
    """The games of the benchmark's ``workload`` at ``seed``, or, for
    workload ``"scale-probe"``, of the traced run's scale probe."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    if workload == "scale-probe":
        return workloads.scale_probe(seed).games
    return workloads.generate(workload, seed).games


def packing_model(P):
    """The packing LP of ``P`` as a model: maximize ``1'y`` subject to
    ``P y <= 1`` and ``y >= 0``."""
    m, n = np.shape(P)
    return lp.LpModel(lp.MAX, np.ones(n), P, [lp.LE] * m, np.ones(m))


# (source, seed) pairs of packing_matrices
PACKING_SOURCES = [("small-sweep", 1), ("small-sweep", 201), ("large-lp", 1), ("random", 5)]


def packing_matrices(monkeypatch, source, seed):
    """Positive matrices ``P`` for :func:`lp.solve`: the matrix-game LP's
    ``Zh`` of every game of a benchmark workload with no strict pure
    saddle, the games that take the LP route and those whose strict
    2 x 2 kernel the solvers answer without it, or, for source ``"random"``, 1200 matrices of 1..10 per side whose
    entries are U(1, 2), 10^U(-3, 3) or 10^U(-6, 6), one of the three
    per matrix, from numpy rng ``seed``."""
    if source != "random":
        Zs = (zero_sum_matrix(g) for g in benchmark_games(monkeypatch, source, seed))
        pairs = ((Z, _strict_kernel(Z)) for Z in Zs)
        return [_onto_one_two(Z) for Z, pair in pairs
                if pair is None or np.count_nonzero(pair[0].weights) == 2]
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(1200):
        m, n = (int(k) for k in rng.integers(1, 11, 2))
        k = (0, 3, 6)[int(rng.integers(3))]
        out.append(10.0 ** rng.uniform(-k, k, (m, n)) if k else rng.uniform(1.0, 2.0, (m, n)))
    return out
