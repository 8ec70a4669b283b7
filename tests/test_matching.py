import pytest

from ewlsp.errors import InfeasibleMatching
from ewlsp.matching import (
    INF_CLASS,
    MatchingInstance,
    brute_force_b_matching,
    edge_weight,
    solve_b_matching,
)
from ewlsp.model import Commodity, Instance


def columns(c: Commodity):
    """The K, H and gamma columns of a one-commodity instance."""
    cols = Instance((c,), capacity_V=1.0).columns
    return cols.K, cols.H, cols.gamma


class TestEdgeWeight:
    def test_unconstrained(self):
        c = Commodity(0, 1.0, 1.0, 1.0)
        T, w = edge_weight(*columns(c), 1, eps=0.3, V=1.0, n=4)
        assert T == pytest.approx(1.0)
        assert w == pytest.approx(2.0)

    def test_slab_binding(self):
        # (1+eps)^(l-1) = 8 makes the cap 2V/8 = 1/4
        c = Commodity(0, 1.0, 1.0, 1.0)
        eps = 1.0
        ell = 4  # (1+eps)^3 = 8
        T, w = edge_weight(*columns(c), ell, eps=eps, V=1.0, n=4)
        assert T == pytest.approx(0.25)
        assert w == pytest.approx(4.25)

    def test_tail_class(self):
        c = Commodity(0, 1.0, 1.0, 1.0)
        T, w = edge_weight(*columns(c), INF_CLASS, eps=0.1, V=1.0, n=10)
        assert T == pytest.approx(0.02)
        assert w == pytest.approx(50.02)


class TestSolver:
    def test_forced_assignment(self):
        w = {(i, 1): float(i + 1) for i in range(3)}
        mi = MatchingInstance((0, 1, 2), (1,), w, {1: (3, 3)})
        part = solve_b_matching(mi)
        assert part.total_weight == pytest.approx(6.0)
        assert all(part.assignment[i] == 1 for i in range(3))

    def test_diagonal_assignment(self):
        w = {(0, 1): 1.0, (0, 2): 10.0, (1, 1): 10.0, (1, 2): 1.0}
        mi = MatchingInstance((0, 1), (1, 2), w, {1: (1, 1), 2: (1, 1)})
        part = solve_b_matching(mi)
        assert part.assignment == {0: 1, 1: 2}
        assert part.total_weight == pytest.approx(2.0)

    def test_infeasible_bounds_detected(self):
        with pytest.raises(InfeasibleMatching):
            MatchingInstance((0, 1), (1,), {(0, 1): 1.0, (1, 1): 1.0}, {1: (0, 1)})

    def test_lower_bound_forces_expensive_class(self):
        w = {(0, 1): 1.0, (0, 2): 100.0, (1, 1): 1.0, (1, 2): 100.0}
        mi = MatchingInstance((0, 1), (1, 2), w, {1: (0, 2), 2: (1, 2)})
        part = solve_b_matching(mi)
        counts = sum(1 for ell in part.assignment.values() if ell == 2)
        assert counts == 1
        assert part.total_weight == pytest.approx(101.0)

    def test_random_matches_enumeration(self, rng):
        for _ in range(120):
            nu = int(rng.integers(2, 7))
            nc = int(rng.integers(1, 4))
            classes = tuple(range(1, nc + 1))
            w = {(i, l): float(rng.uniform(0.1, 10.0)) for i in range(nu) for l in classes}
            while True:
                lo = [int(rng.integers(0, nu // nc + 1)) for _ in classes]
                hi = [l + int(rng.integers(0, nu + 1)) for l in lo]
                if sum(lo) <= nu <= sum(hi):
                    break
            mi = MatchingInstance(
                tuple(range(nu)), classes, w, {l: (lo[k], hi[k]) for k, l in enumerate(classes)}
            )
            got = solve_b_matching(mi).total_weight
            want = brute_force_b_matching(mi)
            assert got == pytest.approx(want, rel=1e-9)


def test_cost_domination_against_reference_assignment(rng):
    # when a reference assignment is degree-feasible, the optimum can only be
    # cheaper than the reference's own weight
    for _ in range(30):
        nu = int(rng.integers(3, 8))
        classes = (1, 2)
        w = {(i, l): float(rng.uniform(0.5, 5.0)) for i in range(nu) for l in classes}
        reference = {i: int(rng.integers(1, 3)) for i in range(nu)}
        counts = {l: sum(1 for v in reference.values() if v == l) for l in classes}
        mi = MatchingInstance(
            tuple(range(nu)), classes, w, {l: (min(counts[l], 1), nu) for l in classes}
        )
        got = solve_b_matching(mi).total_weight
        ref_weight = sum(w[(i, reference[i])] for i in range(nu))
        assert got <= ref_weight + 1e-9


# ---------------------------------------------------------------------------
# Property test against enumeration and an optimality certificate at scale
# ---------------------------------------------------------------------------

import math
from collections import Counter

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ewlsp.matching import MimickingPartition


@st.composite
def small_matching_instances(draw):
    """Up to 6 commodities and 4 classes; weights from a palette of at most
    three values (exact ties), missing edges, lo == hi bounds and the tail
    class label all occur."""
    nu = draw(st.integers(1, 6))
    nc = draw(st.integers(1, 4))
    classes = tuple(range(1, nc + 1))
    if draw(st.booleans()):
        classes = classes[:-1] + (INF_CLASS,)
    palette = draw(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=3))
    cells = draw(st.lists(st.sampled_from(palette + [None]), min_size=nu * nc, max_size=nu * nc))
    weights = {
        (i, ell): w
        for (i, ell), w in zip(((i, ell) for i in range(nu) for ell in classes), cells)
        if w is not None
    }
    lo = [draw(st.integers(0, nu // nc + 1)) for _ in classes]
    hi = [l + draw(st.integers(0, nu)) for l in lo]
    assume(sum(lo) <= nu <= sum(hi))
    return MatchingInstance(
        tuple(range(nu)), classes, weights, {ell: (lo[k], hi[k]) for k, ell in enumerate(classes)}
    )


@given(mi=small_matching_instances())
@settings(max_examples=400, deadline=None)
def test_property_matches_enumeration(mi):
    try:
        want = brute_force_b_matching(mi)
    except InfeasibleMatching:
        # the bounds fit the commodity count, but the missing edges make them unmeetable
        with pytest.raises(InfeasibleMatching):
            solve_b_matching(mi)
        return
    part = solve_b_matching(mi)
    assert list(part.assignment) == list(mi.commodity_side)
    assert all((i, ell) in mi.weights for i, ell in part.assignment.items())
    load = Counter(part.assignment.values())
    for ell in mi.class_side:
        lo, hi = mi.degree_bounds[ell]
        assert lo <= load[ell] <= hi
    assert part.total_weight == sum(mi.weights[(i, ell)] for i, ell in part.assignment.items())
    assert part.total_weight == pytest.approx(want, rel=1e-9)


def test_unmeetable_lower_bound_raises():
    # class 2 needs a member, but no commodity has an edge to it
    w = {(0, 1): 1.0, (1, 1): 2.0, (2, 1): 3.0}
    mi = MatchingInstance((0, 1, 2), (1, 2), w, {1: (0, 3), 2: (1, 3)})
    with pytest.raises(InfeasibleMatching):
        solve_b_matching(mi)


def test_commodity_without_edges_raises():
    w = {(0, 1): 1.0, (0, INF_CLASS): 2.0, (2, 1): 3.0}
    mi = MatchingInstance((0, 1, 2), (1, INF_CLASS), w, {1: (0, 3), INF_CLASS: (0, 3)})
    with pytest.raises(InfeasibleMatching):
        solve_b_matching(mi)


def assert_no_negative_cycle(mi: MatchingInstance, part) -> None:
    """Optimality certificate of a complete assignment: the residual class
    graph has no negative cycle. Nodes are the classes plus a slack node; the
    arc ell -> ell' costs the cheapest move w(i, ell') - w(i, ell) of a member
    i of ell, slack -> ell exists while ell can lose a member (load > lo) and
    ell -> slack while it can gain one (load < hi). Bellman-Ford from all
    nodes at distance 0, with improvements below 1e-9 of the largest weight
    ignored."""
    classes = list(mi.class_side)
    slack = len(classes)
    index = {ell: k for k, ell in enumerate(classes)}
    load = Counter(part.assignment.values())
    arcs: dict[tuple[int, int], float] = {}
    for i, ell in part.assignment.items():
        here = mi.weights[(i, ell)]
        for other in classes:
            if other != ell and (i, other) in mi.weights:
                key = (index[ell], index[other])
                arcs[key] = min(arcs.get(key, math.inf), mi.weights[(i, other)] - here)
    for ell in classes:
        lo, hi = mi.degree_bounds[ell]
        if load[ell] > lo:
            arcs[(slack, index[ell])] = 0.0
        if load[ell] < hi:
            arcs[(index[ell], slack)] = 0.0
    tol = 1e-9 * max(mi.weights.values())
    dist = [0.0] * (len(classes) + 1)
    for _ in range(len(dist)):
        improved = False
        for (u, v), cost in arcs.items():
            if dist[u] + cost < dist[v] - tol:
                dist[v] = dist[u] + cost
                improved = True
        if not improved:
            return
    raise AssertionError("the residual class graph has a negative cycle")


def test_certificate_flags_a_suboptimal_assignment():
    w = {(0, 1): 1.0, (0, 2): 10.0, (1, 1): 10.0, (1, 2): 1.0}
    mi = MatchingInstance((0, 1), (1, 2), w, {1: (1, 1), 2: (1, 1)})
    assert_no_negative_cycle(mi, solve_b_matching(mi))
    with pytest.raises(AssertionError, match="negative cycle"):
        assert_no_negative_cycle(mi, MimickingPartition({0: 2, 1: 1}, 20.0))


@pytest.mark.parametrize(
    "seed, nu, nc, palette, missing, width",
    [
        (1, 300, 2, None, 0.0, 0),
        (2, 500, 12, None, 0.0, 20),
        (3, 800, 8, (1.0, 2.0, 3.0), 0.0, 2),
        (4, 1000, 5, None, 0.3, 0),
        (5, 2000, 3, None, 0.0, 2),
        (6, 2000, 12, (1.0, 1.5), 0.2, 5),
        (7, 1500, 7, None, 0.1, 5),
    ],
)
def test_large_instances_are_certified_optimal(seed, nu, nc, palette, missing, width):
    rng = np.random.default_rng(seed)
    classes = tuple(range(1, nc)) + (INF_CLASS,)
    weights = {}
    for i in range(nu):
        for ell in classes:
            if rng.uniform() >= missing:
                weights[(i, ell)] = float(rng.choice(palette)) if palette else float(rng.uniform(0.1, 10.0))
    # bounds within `width` of a random assignment along existing edges keep
    # the instance feasible; narrow windows force moves between classes
    reference = Counter()
    for i in range(nu):
        options = [ell for ell in classes if (i, ell) in weights] or [classes[0]]
        ell = options[int(rng.integers(len(options)))]
        weights.setdefault((i, ell), 1.0)
        reference[ell] += 1
    bounds = {
        ell: (
            max(0, reference[ell] - int(rng.integers(0, width + 1))),
            reference[ell] + int(rng.integers(0, width + 1)),
        )
        for ell in classes
    }
    mi = MatchingInstance(tuple(range(nu)), classes, weights, bounds)
    part = solve_b_matching(mi)
    load = Counter(part.assignment.values())
    assert all(bounds[ell][0] <= load[ell] <= bounds[ell][1] for ell in classes)
    assert_no_negative_cycle(mi, part)
