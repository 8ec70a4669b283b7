import pytest

from ewlsp.errors import InfeasibleMatching
from ewlsp.matching import (
    INF_CLASS,
    MatchingInstance,
    brute_force_b_matching,
    class_interval_cap,
    edge_weight,
    solve_b_matching,
)
from ewlsp.model import Commodity, Instance

from conftest import assignment_of


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

    @pytest.mark.parametrize("ell", [0, -3])
    def test_class_label_below_one_is_refused(self, ell):
        with pytest.raises(ValueError, match=f"^class label must be >= 1 or the tail class, got {ell}$"):
            class_interval_cap(ell, 0.1, 1.0, 10)

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
        assert all(assignment_of(part)[i] == 1 for i in range(3))

    def test_diagonal_assignment(self):
        w = {(0, 1): 1.0, (0, 2): 10.0, (1, 1): 10.0, (1, 2): 1.0}
        mi = MatchingInstance((0, 1), (1, 2), w, {1: (1, 1), 2: (1, 1)})
        part = solve_b_matching(mi)
        assert assignment_of(part) == {0: 1, 1: 2}
        assert part.total_weight == pytest.approx(2.0)

    def test_infeasible_bounds_detected(self):
        with pytest.raises(InfeasibleMatching):
            MatchingInstance((0, 1), (1,), {(0, 1): 1.0, (1, 1): 1.0}, {1: (0, 1)})

    @pytest.mark.parametrize("bounds", [(-1, 1), (2, 1)])
    def test_degree_bounds_must_be_ordered_and_nonnegative(self, bounds):
        with pytest.raises(ValueError, match=rf"^class 1: need 0 <= lower <= upper, got \({bounds[0]}, {bounds[1]}\)$"):
            MatchingInstance((0, 1), (1,), {(0, 1): 1.0, (1, 1): 1.0}, {1: bounds})

    def test_lower_bound_forces_expensive_class(self):
        w = {(0, 1): 1.0, (0, 2): 100.0, (1, 1): 1.0, (1, 2): 100.0}
        mi = MatchingInstance((0, 1), (1, 2), w, {1: (0, 2), 2: (1, 2)})
        part = solve_b_matching(mi)
        counts = sum(1 for ell in assignment_of(part).values() if ell == 2)
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

from ewlsp.matching import MimickingPartition, _shortest_path_placement


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
    assert (part.commodity_side, part.class_side) == (mi.commodity_side, mi.class_side)
    assigned = assignment_of(part)
    assert all((i, ell) in mi.weights for i, ell in assigned.items())
    load = Counter(assigned.values())
    for ell in mi.class_side:
        lo, hi = mi.degree_bounds[ell]
        assert lo <= load[ell] <= hi
    assert part.total_weight == sum(mi.weights[(i, ell)] for i, ell in assigned.items())
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
    assigned = assignment_of(part)
    load = Counter(assigned.values())
    arcs: dict[tuple[int, int], float] = {}
    for i, ell in assigned.items():
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
        assert_no_negative_cycle(mi, MimickingPartition((0, 1), (1, 2), [1, 0], 20.0))


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
        (8, 10_000, 2, None, 0.1, 50),
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
    load = Counter(assignment_of(part).values())
    assert all(bounds[ell][0] <= load[ell] <= bounds[ell][1] for ell in classes)
    assert_no_negative_cycle(mi, part)


@st.composite
def two_class_instances(draw):
    """Up to 30 commodities and two classes: continuous weights or a palette
    of at most three values (exact ties), missing edges, and degree bounds
    from loose down to lo == hi."""
    nu = draw(st.integers(1, 30))
    if draw(st.booleans()):
        cell = st.floats(0.1, 10.0)
    else:
        cell = st.sampled_from(draw(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=3)))
    if draw(st.booleans()):
        cell = st.one_of(cell, st.none())
    rows = draw(st.lists(st.tuples(cell, cell), min_size=nu, max_size=nu))
    lo_1 = draw(st.integers(0, nu))
    hi_1 = lo_1 + draw(st.integers(0, nu))
    lo_2 = draw(st.integers(0, nu - lo_1))
    hi_2 = max(lo_2, nu - hi_1) + draw(st.integers(0, nu))
    table = np.array([[np.nan if w is None else w for w in row] for row in rows], dtype=float).reshape(nu, 2)
    return MatchingInstance(tuple(range(nu)), (1, INF_CLASS), table, {1: (lo_1, hi_1), INF_CLASS: (lo_2, hi_2)})


@given(mi=two_class_instances())
@settings(deadline=None)
def test_two_class_sort_matches_shortest_paths(mi):
    """The sort costs what successive shortest paths cost, at rel 1e-12, and
    leaves no negative cycle. Where the free rows' differences w(i, first) -
    w(i, second) are pairwise distinct and nonzero, the optimum is unique and
    both place every row alike. Both refuse the same instances."""
    rows = [[None if math.isnan(w) else w for w in row] for row in mi.table.tolist()]
    bounds = [mi.degree_bounds[ell] for ell in mi.class_side]
    try:
        want = _shortest_path_placement(rows, bounds)
    except InfeasibleMatching:
        with pytest.raises(InfeasibleMatching, match="no assignment satisfies the degree bounds"):
            solve_b_matching(mi)
        return
    part = solve_b_matching(mi)
    load = Counter(assignment_of(part).values())
    assert all(lo <= load[ell] <= hi for ell, (lo, hi) in zip(mi.class_side, bounds))
    assert_no_negative_cycle(mi, part)
    want_total = 0.0
    for r, l in enumerate(want):
        want_total += rows[r][l]
    assert part.total_weight == pytest.approx(want_total, rel=1e-12)
    free = [row[0] - row[1] for row in rows if None not in row]
    if len(set(free)) == len(free) and 0.0 not in free:
        assert part.where.tolist() == want


def test_two_class_ties_go_to_the_lower_row():
    # rows 0, 2 and 3 tie at d = -1 and class 1 takes two rows: the lower two;
    # row 1 has no edge to class 1 and is forced into the tail class
    table = np.array([[1.0, 2.0], [np.nan, 5.0], [2.0, 3.0], [4.0, 5.0]])
    mi = MatchingInstance((10, 11, 12, 13), (1, INF_CLASS), table, {1: (0, 2), INF_CLASS: (0, 4)})
    part = solve_b_matching(mi)
    assert part.where.tolist() == [0, 1, 0, 1]
    assert not part.where.flags.writeable
    assert assignment_of(part) == {10: 1, 11: INF_CLASS, 12: 1, 13: INF_CLASS}
    assert part.total_weight == 1.0 + 5.0 + 2.0 + 5.0
    # a zero difference is not negative: the row joins the second class
    # unless a lower bound pulls it into the first
    flat = np.array([[1.0, 1.0], [1.0, 3.0]])
    loose = MatchingInstance((0, 1), (1, 2), flat, {1: (0, 2), 2: (0, 2)})
    assert solve_b_matching(loose).where.tolist() == [1, 0]
    tight = MatchingInstance((0, 1), (1, 2), flat, {1: (2, 2), 2: (0, 2)})
    assert solve_b_matching(tight).where.tolist() == [0, 0]


def table_and_dict(rows, classes=(1, 2)):
    """One instance's edges both as a row-major table (NaN for no edge) and
    as the {(i, ell): w} mapping over its present edges, in reverse
    row-major order."""
    edges = {(i, ell): w for i, row in enumerate(rows) for ell, w in zip(classes, row) if w is not None}
    return np.array(rows, dtype=float), dict(reversed(list(edges.items())))


@pytest.mark.parametrize("build", ["table", "mapping"])
def test_the_first_bad_edge_in_row_major_order_is_named(build):
    nan = math.nan
    table, edges = table_and_dict([[1.0, None], [-1.0, 2.0], [math.inf, 0.0]])
    weights = table if build == "table" else edges
    with pytest.raises(ValueError, match=r"^weight of edge \(1, 1\) must be finite and > 0$"):
        MatchingInstance((0, 1, 2), (1, 2), weights, {1: (0, 3), 2: (0, 3)})
    # NaN is a missing edge in a table and a bad weight in a mapping
    assert MatchingInstance((0,), (1, 2), np.array([[nan, 1.0]]), {1: (0, 1), 2: (0, 1)}).weights == {(0, 2): 1.0}
    with pytest.raises(ValueError, match=r"^weight of edge \(0, 1\) must be finite and > 0$"):
        MatchingInstance((0,), (1, 2), {(0, 2): 1.0, (0, 1): nan}, {1: (0, 1), 2: (0, 1)})


@pytest.mark.parametrize("build", ["table", "mapping"])
def test_one_class_with_a_missing_edge_is_infeasible(build):
    table, edges = table_and_dict([[1.0], [None], [2.0]], classes=(INF_CLASS,))
    mi = MatchingInstance((0, 1, 2), (INF_CLASS,), table if build == "table" else edges, {INF_CLASS: (0, 3)})
    with pytest.raises(InfeasibleMatching, match="no assignment satisfies the degree bounds"):
        solve_b_matching(mi)


def test_table_and_mapping_give_one_matching():
    rng = np.random.default_rng(3)
    rows = [[float(w) if rng.random() < 0.8 else None for w in rng.uniform(0.1, 10.0, size=3)] for _ in range(40)]
    for row in rows:
        row[int(rng.integers(3))] = 1.0  # every commodity keeps an edge
    table, edges = table_and_dict(rows, classes=(1, 2, INF_CLASS))
    bounds = {1: (5, 30), 2: (5, 30), INF_CLASS: (0, 40)}
    from_table = MatchingInstance(tuple(range(40)), (1, 2, INF_CLASS), table, bounds)
    from_mapping = MatchingInstance(tuple(range(40)), (1, 2, INF_CLASS), edges, bounds)
    # a table's edge mapping is built in row-major order; a mapping is kept as given
    assert list(from_table.weights.items()) == list(reversed(list(edges.items())))
    assert from_mapping.weights is edges
    np.testing.assert_array_equal(from_mapping.table, table)
    got, want = solve_b_matching(from_table), solve_b_matching(from_mapping)
    np.testing.assert_array_equal(got.where, want.where)
    assert (assignment_of(got), got.total_weight) == (assignment_of(want), want.total_weight)
