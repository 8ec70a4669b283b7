import collections
import hashlib
import math
from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ewlsp.cli import generate_instance
from ewlsp.eoq import capped_interval, cost
from ewlsp.errors import ActionSpaceExceeded, BudgetExceeded, StateSpaceExceeded, TooManyCommodities
from ewlsp.evaluator import evaluate
from ewlsp.model import serialize_policy
from ewlsp.oracle import oracle_opt_cyclic
from ewlsp.ptas import (
    ACTION_CAP,
    DEFAULT_STATE_CAP,
    PRUNE_RTOL,
    GridSpec,
    Guess,
    _ascending,
    _child_rows,
    _DpSolver,
    _leaf_pick,
    _overfull,
    _patterns,
    _scaled_terms,
    _screen,
    dp_solve,
    enumerate_guesses,
    is_b_aligned,
    ptas_solve,
)

from conftest import make_instance


def _scalar_grid_problem(m, p):
    """The first rule the counts break, or None, with every plus grid checked
    against every minus grid two or more levels deeper."""
    for q in range(len(m)):
        if m[q] < 1 or p[q] < m[q] or p[q] % m[q]:
            return f"level {q + 1}: minus points must be a subset of plus points"
    for q in range(len(m) - 1):
        if m[q + 1] % m[q]:
            return f"levels {q + 1},{q + 2}: minus grids must nest"
        if p[q] % m[q + 1]:
            return f"level {q + 2} minus grid must refine level {q + 1} plus grid"
        if p[q + 1] % p[q]:
            return f"levels {q + 1},{q + 2}: plus grids must nest"
        for deeper in range(q + 2, len(m)):
            if m[deeper] % p[q]:
                return f"level {q + 1} plus grid must embed in level {deeper + 1} minus grid"
    return None


class TestGridSpec:
    def test_desk_divisibility(self):
        grid = GridSpec.desk(3)
        assert grid.minus_counts == (1, 4, 16)
        assert grid.plus_counts == (8, 32, 128)

    def test_paper_counts_small_base(self):
        grid = GridSpec.paper(2, n=1, eps=0.5)
        assert grid.minus_counts == (1, 4)
        assert grid.plus_counts == (16, 128)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            GridSpec((1, 3), (8, 24))  # minus grids do not nest
        with pytest.raises(ValueError):
            GridSpec.desk(2, M=4, S=12)  # S does not divide M^2
        # a zero level ratio or refinement used to divide by zero
        with pytest.raises(ValueError, match=r"^M must be >= 1, got 0$"):
            GridSpec.desk(2, M=0, S=8)
        with pytest.raises(ValueError, match=r"^S must be >= 1, got 0$"):
            GridSpec.desk(2, M=4, S=0)
        with pytest.raises(ValueError, match=r"^M must be >= 1, got 0$"):
            ptas_solve(make_instance([(1, 1, 1)], 0.5), 0.5, grid_M=0, grid_S=8)

    @pytest.mark.parametrize("eps", [0.0, -0.5, math.nan])
    def test_paper_refuses_eps_outside_unit_interval(self, eps):
        # 0 used to divide by zero, -0.5 gave a base-2 grid, NaN failed in round()
        with pytest.raises(ValueError, match=rf"^eps must lie in \(0, 1\), got {eps!r}$"):
            GridSpec.paper(1, 1, eps)

    def test_a_grid_is_its_counts(self):
        grid = GridSpec.desk(2)
        assert not hasattr(grid, "tau_cycle")
        assert grid == GridSpec((1, 4), (8, 32))

    @given(
        levels=st.integers(1, 8),
        geometry=st.sampled_from([(2, 2), (2, 4), (4, 8), (3, 9), (4, 16)]),
        bumps=st.lists(
            st.tuples(st.integers(0, 7), st.sampled_from([(1, 0), (0, 1), (1, 1)]), st.sampled_from([2, 3, 5])),
            max_size=3,
        ),
    )
    # minus counts that stop nesting after level 3, so level 1's plus grid
    # embeds in level 3's minus grid but not in level 4's
    @example(levels=4, geometry=(2, 4), bumps=[(0, (0, 1), 3), (1, (0, 1), 3), (2, (1, 1), 3)])
    @settings(deadline=None)
    def test_admissibility_is_the_rule_over_every_deeper_level(self, levels, geometry, bumps):
        # a desk grid, with some minus and plus counts multiplied by a factor
        M, S = geometry
        m = [M**q for q in range(levels)]
        p = [S * M**q for q in range(levels)]
        for at, (on_minus, on_plus), factor in bumps:
            m[at % levels] *= factor**on_minus
            p[at % levels] *= factor**on_plus
        want = _scalar_grid_problem(m, p)
        if want is None:
            GridSpec(tuple(m), tuple(p))
        else:
            with pytest.raises(ValueError) as got:
                GridSpec(tuple(m), tuple(p))
            # counts breaking two rules may name either first unless the minus grids nest
            if all(m[q + 1] % m[q] == 0 for q in range(levels - 1)):
                assert str(got.value) == want


class TestGuesses:
    def test_single_commodity_class_count(self):
        inst = make_instance([(1, 1, 1)], 1.0)
        guesses = enumerate_guesses(inst, 0.5)
        classes = {g.assignment[0] for g in guesses}
        taus = {g.tau for g in guesses}
        assert len(guesses) == len(classes) * len(taus)

    def test_budget_exceeded_carries_count(self, monkeypatch):
        monkeypatch.setattr("ewlsp.ptas.GUESS_BUDGET", 1)
        inst = make_instance([(1, 1, 1), (1, 1, 1)], 1.0)
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_guesses(inst, 0.5)
        assert exc.value.count > 1

    def test_guess_range_past_the_float_range_is_a_state_space_error(self):
        # K = 1e300 puts the class-unit count past the float range, where the
        # class-level count used to raise OverflowError
        inst = make_instance([(1e300, 1, 1), (1e300, 1, 1)], 1.0)
        for solve in (enumerate_guesses, ptas_solve):
            with pytest.raises(StateSpaceExceeded, match=r"^guess range overflows a float: .* inf class units$"):
                solve(inst, 0.5)

    @pytest.mark.parametrize("eps", [0.0, -0.5, 1.0])
    def test_eps_outside_the_unit_interval_is_refused(self, eps):
        # a negative eps used to shrink the tau grid forever; 0 and 1 divided by zero
        with pytest.raises(ValueError, match="eps must lie in"):
            ptas_solve(make_instance([(1, 1, 1)], 1.0), eps)

    def test_tau_range_matches_constrained_scale(self):
        inst = make_instance([(1, 1, 1)], 1.0)
        eps = 0.5
        guesses = enumerate_guesses(inst, eps)
        taus = sorted({g.tau for g in guesses})
        # M = 2 for this instance: range [K/(2*eps*M), 2M/(eps^2 H)] = [0.5, 16]
        assert taus[0] == pytest.approx(0.5)
        assert taus[-1] == pytest.approx(16.0)


class TestGuess:
    @pytest.mark.parametrize("tau", [-1.0, 0.0, math.nan, math.inf])
    def test_cycle_length_must_be_finite_and_positive(self, tau):
        with pytest.raises(ValueError, match="^cycle length must be finite and > 0, got"):
            Guess(tau=tau, assignment={0: 1})

    # Each of these once reached the DP: class 0 read the deepest class's
    # counts (grid.minus_counts[-1]) and solved as class 3, a negative class
    # solved as well, True ran as class 1, and 1.5 and {} failed with a stray
    # TypeError or ValueError from deep inside.
    @pytest.mark.parametrize(
        "assignment, message",
        [
            ({0: 0, 1: 0}, "^commodity 0: guessed class must be an int >= 1, got 0$"),
            ({0: -1, 1: 2}, "^commodity 0: guessed class must be an int >= 1, got -1$"),
            ({0: True, 1: 1}, "^commodity 0: guessed class must be an int >= 1, got True$"),
            ({0: 1.5, 1: 1}, "^commodity 0: guessed class must be an int >= 1, got 1.5$"),
            ({}, "^a guess needs at least one commodity$"),
        ],
        ids=["class-0", "negative-class", "bool-class", "float-class", "empty"],
    )
    def test_classes_the_grid_cannot_hold_are_refused(self, assignment, message):
        inst = generate_instance(0, 2, 1.0, "tight")
        with pytest.raises(ValueError, match=message):
            dp_solve(inst, Guess(tau=1.0, assignment=assignment), 0.5, GridSpec.desk(3))

    def test_every_enumerated_guess_is_accepted(self):
        guesses = enumerate_guesses(generate_instance(0, 3, 1.0, "tight"), 0.5)
        assert all(guesses[k].assignment for k in range(len(guesses)))


class TestDpSolve:
    def test_policy_runs_the_guessed_cycle(self):
        # the grid holds counts alone: the cycle length is the guess's
        inst = make_instance([(1, 1, 1)], 100.0)
        rate, policy = dp_solve(inst, Guess(tau=2.0, assignment={0: 1}), 0.5, GridSpec.desk(1))
        assert policy.tau == 2.0
        assert rate == pytest.approx(2.0)

    def test_grid_must_cover_the_deepest_class(self):
        inst = make_instance([(1, 1, 1), (4, 1, 1)], 1.5)
        with pytest.raises(ValueError, match="^grid does not cover the deepest guessed class$"):
            dp_solve(inst, Guess(tau=1.0, assignment={0: 1, 1: 3}), 0.5, GridSpec.desk(2))

    def test_infeasible_guess_returns_none(self):
        inst = make_instance([(1, 1, 1)], 1e-4)
        guess = Guess(tau=8.0, assignment={0: 1})
        grid = GridSpec.desk(1)
        assert dp_solve(inst, guess, 0.5, grid=grid) is None

    def test_single_level_matches_equal_spacing(self):
        inst = make_instance([(1, 1, 1)], 100.0)
        guess = Guess(tau=2.0, assignment={0: 1})
        grid = GridSpec.desk(1)
        result = dp_solve(inst, guess, 0.5, grid=grid)
        assert result is not None
        rate, policy = result
        # cycle 2 with 2 equally spaced orders reproduces the optimum T=1
        assert rate == pytest.approx(2.0)
        assert evaluate(policy, inst).total_cost_rate == pytest.approx(2.0)

    def test_cost_rate_agrees_with_evaluator(self):
        inst = make_instance([(1.3, 0.6, 1.0), (0.5, 2.0, 0.7)], 3.0)
        guess = Guess(tau=1.5, assignment={0: 1, 1: 2})
        grid = GridSpec.desk(2)
        result = dp_solve(inst, guess, 0.5, grid=grid)
        assert result is not None
        rate, policy = result
        assert evaluate(policy, inst).total_cost_rate == pytest.approx(rate, rel=1e-9)


class TestChildRows:
    @pytest.mark.parametrize("S", [2, 4, 8])
    @pytest.mark.parametrize("step", [1, 3, 4])
    def test_tables_match_the_direct_construction(self, S, step):
        # every child length dividing the interval: the adjacent children
        # (length / M) and the level-gap ones (length / M^g) among them
        length = S * step
        for child_len in [d for d in range(1, length + 1) if length % d == 0]:
            for a, slots in enumerate(_patterns(S).slots):
                profiles, gaps = _child_rows(a, S, step, child_len)
                ends = [s * step for s in slots] + [S * step]
                entries = range(0, length, child_len)
                assert profiles == tuple(
                    tuple(ends[bisect_right(ends, x)] - entry for x in range(entry, entry + child_len, step))
                    for entry in entries
                )
                exits = [entry + child_len for entry in entries]
                assert gaps == tuple(ends[bisect_left(ends, exit_)] - exit_ for exit_ in exits)


class TestDpCutoff:
    @given(
        seed=st.integers(0, 10**6),
        n=st.sampled_from([1, 2]),
        regime=st.sampled_from(["tight", "loose"]),
        M=st.sampled_from([2, 4]),
    )
    @settings(max_examples=20, deadline=None)
    def test_floor_is_below_every_state_value(self, seed, n, regime, M):
        inst = generate_instance(seed, n, 1.0, regime)
        for guess in enumerate_guesses(inst, 0.5):
            grid = GridSpec.desk(max(guess.assignment.values()), M=M, S=2 * M)
            if _overfull(inst, guess.assignment, 0.5, grid, guess.tau):
                continue  # `dp_solve` builds no solver; every state there is valueless
            solver = _DpSolver(inst, guess, 0.5, grid, DEFAULT_STATE_CAP, {})
            solver.solve()
            for (level, _, _), (value, _) in solver.memo.items():
                if value is not None:
                    assert solver.floor[level] <= value * (1.0 + PRUNE_RTOL)

    def _least_cap(self, inst, guess, grid, most):
        """The smallest state cap under which the DP runs, at most `most`."""
        for cap in range(1, most + 1):
            try:
                dp_solve(inst, guess, 0.5, grid=grid, state_cap=cap)
            except StateSpaceExceeded:
                continue
            return cap
        raise AssertionError(f"the DP needs more than {most} states")

    def test_state_cap_counts_distinct_states(self):
        # guess 195 has 9 distinct states, and the floor cut skips none of them
        inst = generate_instance(0, 3, 1.0, "tight")
        guess = enumerate_guesses(inst, 0.5)[195]
        grid = GridSpec.desk(max(guess.assignment.values()))
        assert self._least_cap(inst, guess, grid, 9) == 9

    def test_bounds_only_lower_the_state_count(self):
        # guess 70 had 15 distinct states before the DP took limits
        inst = generate_instance(2, 2, 1.0, "tight")
        guess = enumerate_guesses(inst, 0.5)[70]
        grid = GridSpec.desk(max(guess.assignment.values()))
        self._least_cap(inst, guess, grid, 15)


class TestPtasSolve:
    def test_n1_unconstrained(self):
        inst = make_instance([(1, 1, 1)], 10.0)
        policy, report = ptas_solve(inst, 0.5)
        assert report.feasible
        assert report.total_cost_rate <= (1 + 3 * 0.5) * 2.0

    def test_n1_tight(self):
        inst = make_instance([(1, 1, 1)], 0.5)
        policy, report = ptas_solve(inst, 0.5)
        opt = cost(1.0, 1.0, capped_interval(1.0, 1.0, 0.5, 1.0))
        assert report.feasible
        assert report.total_cost_rate <= (1 + 3 * 0.5) * opt

    def test_output_is_aligned(self):
        inst = make_instance([(1, 1, 1), (4, 1, 1)], 1.5)
        details = {}
        policy, report = ptas_solve(inst, 0.5, details=details)
        assert report.feasible
        assert is_b_aligned(policy, details["guess"].assignment, details["grid"])

    def test_n2_within_factor_of_oracle(self):
        inst = make_instance([(1, 1, 1), (4, 1, 1)], 1.5)
        _, report = ptas_solve(inst, 0.5)
        _, oracle_cost = oracle_opt_cyclic(inst, tau=2.0, grid_points=10)
        assert report.total_cost_rate <= (1 + 3 * 0.5) * oracle_cost

    def test_n_cap(self):
        inst = make_instance([(1, 1, 1)] * 4, 10.0)
        with pytest.raises(BudgetExceeded):
            ptas_solve(inst, 0.5)

    def test_n_cap_names_the_commodity_count(self):
        inst = make_instance([(1, 1, 1)] * 40, 10.0)
        with pytest.raises(TooManyCommodities) as exc:
            ptas_solve(inst, 0.5)
        assert str(exc.value) == "ptas_solve handles at most 3 commodities, got 40"
        assert (exc.value.count, exc.value.budget) == (40, 3)

    def test_one_grid_per_sweep(self, monkeypatch):
        built = []
        check = GridSpec.__post_init__

        def counted(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(GridSpec, "__post_init__", counted)
        details = {}
        ptas_solve(generate_instance(0, 2, 1.0, "tight"), 0.5, details=details)
        assert built == [details["grid"]]

    def test_finer_grid_never_worse(self):
        # more order slots per interval (same minus grid) only add options
        inst = make_instance([(1, 1, 1)], 0.45)
        _, coarse = ptas_solve(inst, 0.5, grid_M=4, grid_S=8)
        _, fine = ptas_solve(inst, 0.5, grid_M=4, grid_S=16)
        assert fine.total_cost_rate <= coarse.total_cost_rate + 1e-9


class TestActionCap:
    # 1 << 7 admits one commodity per level of the default grid (2^7
    # patterns) but not two sharing a level (2^14 combinations)

    def test_over_cap_level_raises(self, monkeypatch):
        monkeypatch.setattr("ewlsp.ptas.ACTION_CAP", 1 << 7)
        inst = make_instance([(1, 1, 1), (4, 1, 1)], 1.5)
        guess = Guess(tau=1.5, assignment={0: 1, 1: 1})
        with pytest.raises(ActionSpaceExceeded, match=r"action space 2\^14 at level 0"):
            dp_solve(inst, guess, 0.5, grid=GridSpec.desk(1))

    def test_over_cap_guesses_are_skipped(self, monkeypatch):
        monkeypatch.setattr("ewlsp.ptas.ACTION_CAP", 1 << 7)
        inst = make_instance([(1, 1, 1), (4, 1, 1)], 1.5)
        guesses = enumerate_guesses(inst, 0.5)
        shared = sum(1 for g in guesses if len(set(g.assignment.values())) == 1)
        details = {}
        policy, report = ptas_solve(inst, 0.5, details=details)
        assert report.feasible
        assert details["skipped_guesses"] == shared > 0
        assert len(set(details["guess"].assignment.values())) == 2

    def test_every_guess_skipped_raises(self, monkeypatch):
        monkeypatch.setattr("ewlsp.ptas.ACTION_CAP", 1 << 6)
        inst = make_instance([(1, 1, 1)], 1.0)
        count = len(enumerate_guesses(inst, 0.5))
        with pytest.raises(StateSpaceExceeded, match=f"{count} of {count} guesses skipped over ACTION_CAP"):
            ptas_solve(inst, 0.5)

    def test_every_guess_overfull_raises_with_the_counts(self):
        # the cycle-range floor K_max/(2 eps n M) rises as eps falls: at eps
        # 0.05 it overfills every guess of this instance, while eps 0.1 solves it
        inst = generate_instance(0, 2, 1.0, "tight")
        count = len(enumerate_guesses(inst, 0.05))
        message = rf"\(0 of {count} guesses skipped over ACTION_CAP, {count} overfull, 0 without a feasible DP policy\)"
        with pytest.raises(StateSpaceExceeded, match=message):
            ptas_solve(inst, 0.05)
        assert ptas_solve(inst, 0.1)[1].total_cost_rate == pytest.approx(4.931, abs=1e-3)

    def test_a_desk_grid_past_the_float_range_is_refused(self):
        # near eps = 1 the class count of an n = 1 instance grows without
        # bound: 108 classes at eps 0.99 still solve, while the 1,074 of eps
        # 0.999 give plus counts 8 * 4^1073, which no float holds
        inst = make_instance([(1, 1, 1)], 0.5)
        assert max(enumerate_guesses(inst, 0.99).classes[-1]) == 108
        policy, report = ptas_solve(inst, 0.99)
        assert (policy.tau, report.total_cost_rate) == (0.5, 2.5)
        assert max(enumerate_guesses(inst, 0.999).classes[-1]) == 1074
        with pytest.raises(StateSpaceExceeded, match="^a desk grid of 1074 classes has counts past the float range$"):
            ptas_solve(inst, 0.999)
        # the deepest desk grid that fits: 8 * 4^510 = 2^1023
        assert GridSpec.desk(511).plus_counts[-1] == 2**1023
        with pytest.raises(StateSpaceExceeded, match="^a desk grid of 512 classes"):
            GridSpec.desk(512)


# sha256 of serialize_policy(policy) + repr(cost rate) of fixed ptas_solve
# runs (eps 0.5), taken from the per-combination Python loop the pattern
# tables replaced. On the identical pairs every combination ties with its
# mirror, so the lowest-flat-index rule decides the output.
PINNED_OUTPUTS = [
    (
        "n1-tight",
        make_instance([(1, 1, 1)], 0.45),
        "17b6c6918ab9ce0a962e449b23e2da4c0497bb8cc34e2ac5239e96fa857f3c22",
    ),
    (
        "n2-two-classes",
        make_instance([(1, 1, 1), (4, 1, 1)], 1.5),
        "4b651d05c2c51064be693c8e4335fdb0c7c2d3597cf0626113ef7f13c0fe7cf2",
    ),
    (
        "n2-identical",
        make_instance([(1, 1, 1), (1, 1, 1)], 0.8),
        "6664867710b622afdcd835c4ec0f2ad07ed7477338077ad8761e15b1f8018c53",
    ),
    (
        "n2-identical-loose",
        make_instance([(1, 1, 1), (1, 1, 1)], 3.0),
        "5ba3d9555930053fc9ff11663e0d647e6a5d374be119be963e21b38864c14ee4",
    ),
    (
        "generated-1-tight",
        generate_instance(1, 2, 1.0, "tight"),
        "5f1017648055f26e74859e132da844ee72b45b98fb183e999472e51cdbf3cdbb",
    ),
    (
        "generated-2-dense-heavy",
        generate_instance(2, 2, 1.0, "dense-heavy"),
        "3b883ffe3475cca0294e21c414f6cfa486f4ed07471da030f6405b3af92c8e4c",
    ),
    (
        "generated-0-tight-n3",
        generate_instance(0, 3, 1.0, "tight"),
        "dc7bcf924bfe9fdc612ebdbf557236a579336a7eb29d5ca3a89b7342094875bc",
    ),
    # taken before the DP took limits: n=3 loose, where the bounds inside the
    # DP skip the most, and an instance whose winning guess puts all three
    # commodities on one level (2^21 combinations per state)
    (
        "generated-0-loose-n3",
        generate_instance(0, 3, 1.0, "loose"),
        "42b097237e345df374391a0bceb70647b77d12f5870aafcbcc056e6a518dde09",
    ),
    (
        "n3-shared-level",
        make_instance([(1, 1, 1), (2, 1, 0.5), (1, 3, 1)], 1.2),
        "481f9343d42637b788aeaa2ecbbaebc7dcd9bee431304e6bff36966fbe03d1a8",
    ),
    # the spread-0 families the ptas-small benchmark times (K = H = 1),
    # taken before the DP dropped its limits
    (
        "generated-0-tight-n1-spread0",
        generate_instance(0, 1, 0.0, "tight"),
        "6900936d2666605d53bac3122b33003aba9fea982bf9eb724ed1981249eb35f5",
    ),
    (
        "generated-0-loose-n1-spread0",
        generate_instance(0, 1, 0.0, "loose"),
        "bd078315fc28b3109d272e279b72556bb901419e91a6681c278954f5d0a0a91f",
    ),
    (
        "generated-0-tight-n2-spread0",
        generate_instance(0, 2, 0.0, "tight"),
        "4fcbfbc8f93ee6cc1957c64b136f16f603728de6fe5e19b5e21d33d0ca9bbd21",
    ),
    # n=3 dense-heavy, where leaf states with two or three commodities are
    # most common, taken before leaf states skipped the candidate stream
    (
        "generated-0-dense-heavy-n3",
        generate_instance(0, 3, 1.0, "dense-heavy"),
        "45a3c7191ae661626114b2780bba55ffcf4a3bf29535d510459ff5aaae227748",
    ),
    (
        "generated-1-dense-heavy-n3",
        generate_instance(1, 3, 1.0, "dense-heavy"),
        "7702928464b0f0c46504742ab38e299b8448bdc5ff2b8245b5c9d20387ecfe29",
    ),
]


@pytest.mark.parametrize("name, inst, digest", PINNED_OUTPUTS, ids=[p[0] for p in PINNED_OUTPUTS])
def test_pinned_outputs(name, inst, digest):
    policy, report = ptas_solve(inst, 0.5)
    text = serialize_policy(policy) + repr(report.total_cost_rate).encode()
    assert hashlib.sha256(text).hexdigest() == digest


def test_pinned_output_n4_tight(monkeypatch):
    # four commodities with the commodity cap lifted for this test only;
    # digest taken before overfull levels were ruled out ahead of their DP
    monkeypatch.setattr("ewlsp.ptas.DEFAULT_PTAS_CAP", 4)
    policy, report = ptas_solve(generate_instance(0, 4, 1.0, "tight"), 0.5)
    text = serialize_policy(policy) + repr(report.total_cost_rate).encode()
    assert hashlib.sha256(text).hexdigest() == "0ddacf044c00f684d6d2fc81dfbeef409ad5f02ac5b582756a2e549a3c9076d5"


# repr of the value and sha256 of serialize_policy of fixed dp_solve runs
# on the three-level and level-gap guesses of TestBruteForceCrossValidation,
# whose checks there are one-sided; taken before the DP took tuple states.
# The shared-level run, two commodities on the default desk grid's one
# class with the capacity binding, was taken before leaf states skipped the
# candidate stream.
PINNED_DP_OUTPUTS = [
    ("three-levels-1.1", {0: 1, 1: 2, 2: 3}, 1.1, GridSpec.desk(3, M=2, S=2), "4.872272727272727",
     "69f3f40fe1b0d9173f9a266ed2ec1503ea28e7f9f86c41df54a0754fc22c100a"),
    ("three-levels-1.9", {0: 1, 1: 2, 2: 3}, 1.9, GridSpec.desk(3, M=2, S=2), "4.616315789473685",
     "cf55b9fdef6205ce6bb9f8da4460288178f94f37508a16e80a065a68b01ea810"),
    ("level-gap-1.0", {0: 1, 1: 3}, 1.0, GridSpec.desk(3, M=2, S=2), "3.8",
     "8a18f9c0685db915e26e9c9913515b6f081759e948f9afff047d3201f4fea734"),
    ("level-gap-1.8", {0: 1, 1: 3}, 1.8, GridSpec.desk(3, M=2, S=2), "3.53",
     "dd496b1050de54cf6d9ad83295fbc9da3038325cc3ba58b6bc538a44fb0a1a00"),
    ("shared-level-1.5", {0: 1, 1: 1}, 1.5, GridSpec.desk(1), "3.6270833333333337",
     "ab30782d8864a7d44f7c2c13dd3432bcf320656e05d0d1b6a46694d2f5ec133e"),
]


@pytest.mark.parametrize(
    "name, assignment, tau, grid, value, digest", PINNED_DP_OUTPUTS, ids=[p[0] for p in PINNED_DP_OUTPUTS]
)
def test_pinned_dp_outputs(name, assignment, tau, grid, value, digest):
    params = [(1.0, 0.7, 1.0), (0.4, 2.0, 0.8), (0.3, 1.0, 0.5)][: len(assignment)]
    inst = make_instance(params, 1.4 if len(assignment) == 3 else 1.1)
    rate, policy = dp_solve(inst, Guess(tau=tau, assignment=assignment), 0.5, grid=grid)
    assert repr(rate) == value
    assert hashlib.sha256(serialize_policy(policy)).hexdigest() == digest


def _scale_floor(instance, guess, grid):
    """Scalar oracle for the sweep's f_lo = min(1, V/P), P being the peak
    bound sum gamma_i*tau/minus_qi over the ids in order."""
    tau = guess.tau
    peak = 0.0
    for i, q in sorted(guess.assignment.items()):
        peak += instance.commodity(i).gamma * tau / grid.minus_counts[q - 1]
    return min(1.0, instance.V / peak)


def guess_lower_bound(instance, guess, grid):
    """Scalar oracle for the sweep's lower bound on the cost rate of the
    guess's DP policy after it is scaled into the capacity: per commodity in
    id order, its EOQ interval clipped into [f_lo*tau/plus_q, tau/minus_q]."""
    tau = guess.tau
    f_lo = _scale_floor(instance, guess, grid)
    total = 0.0
    for i, q in sorted(guess.assignment.items()):
        c = instance.commodity(i)
        lo, hi = f_lo * tau / grid.plus_counts[q - 1], tau / grid.minus_counts[q - 1]
        total += cost(c.K, c.H, min(max(math.sqrt(c.K / c.H), lo), hi))
    return total


def _scalar_overfull(instance, guess, eps, grid):
    """Scalar oracle for the overfull rule: some occupied level's sum, in id
    order, of gamma_i times its slot length exceeds (1+eps)V(1+1e-12)."""
    occupied = sorted(set(guess.assignment.values()))
    F = grid.plus_counts[occupied[-1] - 1]
    bound = (1.0 + eps) * instance.V * (1.0 + 1e-12)
    for level in occupied:
        slot = (F // grid.plus_counts[level - 1]) * (guess.tau / F)
        space = 0.0
        for i in sorted(i for i, q in guess.assignment.items() if q == level):
            space += instance.commodity(i).gamma * slot
        if space > bound:
            return True
    return False


def _certified(instance, guess, eps, grid):
    """The guess's DP policy scaled into the capacity with its evaluation,
    as the sweep certifies it, or None when the DP finds no policy."""
    result = dp_solve(instance, guess, eps, grid=grid)
    if result is None:
        return None
    _, policy = result
    report = evaluate(policy, instance)
    if report.v_max > instance.V:
        policy = policy.scaled(instance.V / report.v_max)
        report = evaluate(policy, instance)
    return policy, report


def _full_sweep(instance, eps, M=4, S=8):
    """Every guess in enumeration order with the (cost, index) winner rule:
    the unpruned reference for `ptas_solve`. Returns the winner's (cost,
    index, policy, report, guess, grid) and the number of guesses skipped
    over ACTION_CAP."""
    best = None
    skipped = 0
    for index, guess in enumerate(enumerate_guesses(instance, eps)):
        grid = GridSpec.desk(max(guess.assignment.values()), M=M, S=S)
        try:
            certified = _certified(instance, guess, eps, grid)
        except ActionSpaceExceeded:
            skipped += 1
            continue
        if certified is None or not certified[1].feasible:
            continue
        policy, report = certified
        if best is None or (report.total_cost_rate, index) < best[:2]:
            best = (report.total_cost_rate, index, policy, report, guess, grid)
    return best, skipped


def _ptas_small_instances(seed):
    """The instances the ptas-small benchmark workload draws for `seed`: n=1
    tight and loose and four each of n=2 tight (all at K = H = 1) and
    dense-heavy, with one pipeline-seed draw after each instance."""
    rng = np.random.default_rng(seed)
    instances = []
    for regime, n, count, spread in [("tight", 1, 1, 0.0), ("loose", 1, 1, 0.0), ("tight", 2, 4, 0.0),
                                     ("dense-heavy", 2, 4, 1.0)]:
        for instance_seed in rng.integers(0, 2**31, size=count).tolist():
            instances.append(generate_instance(instance_seed, n, spread, regime))
            rng.integers(0, 2**31, size=1)
    return instances


N3_INSTANCES = [generate_instance(seed, 3, 1.0, regime) for seed in (0, 1) for regime in ("tight", "dense-heavy")]


class TestGuessPruning:
    @given(
        seed=st.integers(0, 10**6),
        n=st.sampled_from([1, 2]),
        spread=st.sampled_from([0.0, 1.0]),
        regime=st.sampled_from(["tight", "loose"]),
        M=st.sampled_from([2, 4]),
    )
    @settings(max_examples=40, deadline=None)
    def test_bound_never_exceeds_the_certified_cost(self, seed, n, spread, regime, M):
        inst = generate_instance(seed, n, spread, regime)
        for guess in enumerate_guesses(inst, 0.5):
            grid = GridSpec.desk(max(guess.assignment.values()), M=M, S=2 * M)
            certified = _certified(inst, guess, 0.5, grid)
            if certified is None:
                continue
            # far inside the sweep's 1e-9 pruning margin
            assert guess_lower_bound(inst, guess, grid) <= certified[1].total_cost_rate * (1 + 1e-12)

    @pytest.mark.parametrize(
        "inst, M, S",
        [
            (generate_instance(3, 1, 1.0, "tight"), 4, 8),
            (generate_instance(4, 1, 1.0, "loose"), 4, 8),
            (generate_instance(5, 2, 1.0, "tight"), 4, 8),
            (generate_instance(6, 2, 1.0, "loose"), 4, 8),
            (generate_instance(7, 2, 1.0, "dense-heavy"), 4, 8),
            (make_instance([(1, 1, 1), (1, 1, 1)], 0.8), 4, 8),
            (make_instance([(1, 1, 1), (1, 1, 1)], 3.0), 4, 8),
            (generate_instance(0, 3, 1.0, "loose"), 4, 8),
            (generate_instance(0, 3, 1.0, "tight"), 4, 8),
            (generate_instance(1, 3, 1.0, "dense-heavy"), 4, 8),
            (generate_instance(5, 2, 1.0, "tight"), 3, 9),
            (generate_instance(0, 3, 1.0, "tight"), 3, 9),
        ],
        ids=[
            "n1-tight", "n1-loose", "n2-tight", "n2-loose", "n2-dense-heavy", "n2-identical",
            "n2-identical-loose", "n3-loose", "n3-tight", "n3-dense-heavy", "n2-tight-M3-S9",
            "n3-tight-M3-S9",
        ],
    )
    def test_pruned_sweep_returns_the_full_sweep_winner(self, inst, M, S, monkeypatch):
        (full_cost, _, full_policy, _, guess, grid), skipped = _full_sweep(inst, 0.5, M=M, S=S)
        runs = []

        def counted_dp_solve(*args, **kwargs):
            runs.append(args[1])
            return dp_solve(*args, **kwargs)

        monkeypatch.setattr("ewlsp.ptas.dp_solve", counted_dp_solve)
        details = {}
        policy, report = ptas_solve(inst, 0.5, grid_M=M, grid_S=S, details=details)
        assert serialize_policy(policy) == serialize_policy(full_policy)
        assert repr(report.total_cost_rate) == repr(full_cost)
        assert details["guess"] == guess
        # the sweep's one grid, over every guessed class
        assert details["grid"] == GridSpec.desk(max(enumerate_guesses(inst, 0.5).classes[-1]), M=M, S=S)
        assert details["skipped_guesses"] == skipped
        total = len(enumerate_guesses(inst, 0.5))
        assert len(runs) == total - details["skipped_guesses"] - details["pruned_guesses"]

    def test_n3_tight_prunes_and_stays_aligned(self):
        inst = generate_instance(0, 3, 1.0, "tight")
        details = {}
        policy, report = ptas_solve(inst, 0.5, details=details)
        assert details["pruned_guesses"] > 0
        assert report.feasible
        assert is_b_aligned(policy, details["guess"].assignment, details["grid"])

    @pytest.mark.parametrize(
        "inst", _ptas_small_instances(11) + _ptas_small_instances(201) + N3_INSTANCES
    )
    def test_certification_estimate_is_the_scaled_evaluation(self, inst, monkeypatch):
        # the sweep skips scaling a DP policy when O/f + f*Hh, read off the
        # unscaled evaluation, exceeds the incumbent by PRUNE_RTOL = 1e-9
        results = []

        def recorded_dp_solve(*args, **kwargs):
            result = dp_solve(*args, **kwargs)
            results.append(result)
            return result

        monkeypatch.setattr("ewlsp.ptas.dp_solve", recorded_dp_solve)
        ptas_solve(inst, 0.5)
        scaled = 0
        for result in filter(None, results):
            report = evaluate(result[1], inst)
            if report.v_max <= inst.V:
                continue
            f = inst.V / report.v_max
            estimate = report.ordering_cost_rate / f + f * report.holding_cost_rate
            exact = evaluate(result[1].scaled(f), inst).total_cost_rate
            assert abs(estimate - exact) <= 1e-12 * exact
            scaled += 1
        assert scaled > 0 or inst.n == 1


class TestGuessScreen:
    @given(
        params=st.lists(
            st.tuples(*[st.floats(-1.0, 1.0).map(lambda x: 10.0**x)] * 3), min_size=1, max_size=3
        ),
        fill=st.floats(-3.0, 1.0).map(lambda x: 10.0**x),
        eps=st.floats(0.2, 1.0, exclude_max=True),
        geometry=st.sampled_from([(2, 4), (4, 8), (3, 9)]),
    )
    # an eps near 1 at n = 1 gives 1,622 classes, whose desk grid has counts
    # past the float range: such a draw is rejected, not failed and shrunk
    @example(params=[(1.0, 1.0, 1.0)], fill=1.0, eps=0.9994300816489936, geometry=(2, 4))
    @settings(deadline=None)
    def test_screen_matches_the_scalar_rules_bit_for_bit(self, params, fill, eps, geometry):
        # (3, 9) has slot lengths that are not powers of two, and at n = 3
        # puts 2^24 combinations on a shared level: over ACTION_CAP
        M, S = geometry
        inst = make_instance(params, fill * sum(g * math.sqrt(K / H) for K, H, g in params))
        try:
            guesses = enumerate_guesses(inst, eps)
        except BudgetExceeded:
            assume(False)
        try:
            template = GridSpec.desk(max(guesses.classes[-1]), M=M, S=S)
        except StateSpaceExceeded:
            assume(False)
        skipped, overfull, queue = _screen(inst, guesses, eps, template)
        want_skipped = want_overfull = 0
        want_queue = []
        for index, guess in enumerate(guesses):
            grid = GridSpec.desk(max(guess.assignment.values()), M=M, S=S)
            bits = [(S - 1) * list(guess.assignment.values()).count(q) for q in set(guess.assignment.values())]
            if any((1 << b) > ACTION_CAP for b in bits):
                want_skipped += 1
            elif _scalar_overfull(inst, guess, eps, grid):
                want_overfull += 1
            else:
                want_queue.append((guess_lower_bound(inst, guess, grid), index))
        want_queue.sort()
        assert (skipped, overfull) == (want_skipped, want_overfull)
        assert repr(queue) == repr(want_queue)

    def test_one_tau_overfull_is_the_scalar_rule(self):
        inst = generate_instance(5, 2, 1.0, "tight")
        verdicts = set()
        for guess in enumerate_guesses(inst, 0.5):
            grid = GridSpec.desk(max(guess.assignment.values()), M=3, S=9)
            over = _overfull(inst, guess.assignment, 0.5, grid, guess.tau)
            assert type(over) is bool and over == _scalar_overfull(inst, guess, 0.5, grid)
            verdicts.add(over)
        assert verdicts == {True, False}

    def test_guesses_are_built_as_read(self):
        inst = generate_instance(0, 3, 1.0, "tight")
        guesses = enumerate_guesses(inst, 0.5)
        width = len(guesses.classes)
        assert len(guesses) == len(guesses.taus) * width
        assert guesses[-1] == guesses[len(guesses) - 1]
        assert guesses[width + 4] == Guess(tau=guesses.taus[1], assignment=dict(zip((0, 1, 2), guesses.classes[4])))
        with pytest.raises(IndexError):
            guesses[len(guesses)]
        assert sum(1 for _ in guesses) == len(guesses)


class TestSharedTables:
    @pytest.mark.parametrize(
        "inst, M, S",
        [
            (generate_instance(5, 2, 1.0, "tight"), 4, 8),
            (generate_instance(0, 3, 1.0, "tight"), 4, 8),
            (generate_instance(1, 3, 1.0, "dense-heavy"), 3, 9),
        ],
        ids=["n2-tight", "n3-tight", "n3-dense-heavy-M3-S9"],
    )
    def test_dp_on_a_sweeps_tables_is_the_dp_built_alone(self, inst, M, S, monkeypatch):
        swept = []

        def recorded_dp_solve(*args, **kwargs):
            swept.append((args[1], kwargs["grid"], kwargs["tables"]))
            return dp_solve(*args, **kwargs)

        monkeypatch.setattr("ewlsp.ptas.dp_solve", recorded_dp_solve)
        ptas_solve(inst, 0.5, grid_M=M, grid_S=S)
        tables = swept[0][2]
        assert all(t is tables for _, _, t in swept)
        for guess, grid, _ in swept:
            shared = _DpSolver(inst, guess, 0.5, grid, DEFAULT_STATE_CAP, tables)
            alone = _DpSolver(inst, guess, 0.5, grid, DEFAULT_STATE_CAP, {})
            for a, b in zip(shared.terms, alone.terms, strict=True):
                for x, y in zip(a, b, strict=True):
                    assert np.array_equal(x.space, y.space) and np.array_equal(x.cost, y.cost)
                    assert repr(x.least) == repr(y.least)
            assert repr(shared.floor) == repr(alone.floor)
            got, want = shared.solve(), alone.solve()
            assert (got is None) == (want is None)
            if got is not None:
                assert repr(got[0]) == repr(want[0])
                assert serialize_policy(got[1]) == serialize_policy(want[1])
        # Each entry is the one its own slot length gives, so no two slot
        # lengths share one; yet the guesses share entries.
        space_bound = (1.0 + 0.5) * inst.V * (1.0 + 1e-12)
        slots = collections.defaultdict(set)
        for key, entry in tables.items():
            fresh = {}
            if len(key) == 2:
                # built with the first commodity that read it
                i = next(k[2] for k in tables if k[:2] == key and len(k) == 3)
                _scaled_terms(fresh, *key, inst.commodity(i), space_bound)
                assert all(np.array_equal(a, b) for a, b in zip(entry, fresh[key], strict=True))
                continue
            S_, slot, i = key
            slots[S_, i].add(slot)
            want = _scaled_terms(fresh, S_, slot, inst.commodity(i), space_bound)
            assert np.array_equal(entry.space, want.space) and np.array_equal(entry.cost, want.cost)
            assert repr(entry.least) == repr(want.least)
        assert max(map(len, slots.values())) > 1
        assert sum(map(len, slots.values())) < len(swept) * inst.n


class TestPresortedScan:
    @pytest.mark.parametrize("S", [2, 4, 8, 9])
    def test_presorted_patterns_follow_the_ascending_scan(self, S):
        # K = H = 1 at slot length 1 gives mirrored gap sequences equal
        # interval costs, so the order rests on the tie-break by index
        c = make_instance([(1, 1, 1)], 1.0).commodity(0)
        terms = _scaled_terms({}, S, 1.0, c, math.inf)
        order, patterns, costs = terms.ascending
        if S > 2:
            assert len(set(costs)) < len(costs)
        scan = list(_ascending(terms.cost, np.zeros((1, S)), terms.space, math.inf))
        assert [at for at, _ in scan] == patterns
        assert repr([cost for _, cost in scan]) == repr(costs)
        assert order.tolist() == patterns


# Interval costs on a coarse grid tie exactly across rows and patterns, and
# next to 2^53 a row's cost absorbs the difference between pattern costs, so
# distinct pattern costs give equal totals; spaces on a coarse grid put many
# pairs right at the bound.
LEAF_COSTS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0 ** 53, 2.0 ** 53 + 2.0]) | st.floats(0.0, 4.0)
LEAF_SPACE = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def leaf_inputs(draw):
    """Folded rows (cost, space) and last-commodity terms over S slots, and
    a space bound."""
    S = draw(st.integers(1, 4))
    rows = draw(st.integers(0, 12))
    patterns = draw(st.integers(1, 12))

    def table(n, values):
        return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=float)

    cost, last_cost = table(rows, LEAF_COSTS), table(patterns, LEAF_COSTS)
    space = table(rows * S, LEAF_SPACE).reshape(rows, S)
    last_space = table(patterns * S, LEAF_SPACE).reshape(patterns, S)
    bound = draw(st.sampled_from([0.0, 0.5, 0.75, 1.0, 1.25, 2.0]) | st.floats(0.0, 2.0))
    return cost, space, last_cost, last_space, bound


class TestLeafPick:
    @given(leaf_inputs())
    @example((np.array([1.0, 1.0]), np.array([[1.0], [0.0]]), np.array([1.0, 1.0]), np.array([[0.5], [0.0]]), 0.5))
    @example((np.array([1.0]), np.array([[1.0]]), np.array([0.5]), np.array([[0.5]]), 1.0))
    @example((np.array([1.0]), np.array([[1.0]]), np.array([0.5]), np.array([[0.5]]), 0.5))
    @example((np.array([2.0 ** 53, 2.0 ** 53]), np.zeros((2, 1)), np.array([1.0, 0.0]), np.zeros((2, 1)), 1.0))
    @settings(deadline=None)
    def test_leaf_pick_is_the_streams_first_candidate(self, inputs):
        # the examples: equal costs on two rows, the first fitting no
        # pattern; one pair exactly at the bound; no pair fitting; and row
        # costs of 2^53 that make pattern costs 1 and 0 sum alike, so the
        # first pair wins though the second pattern is cheaper
        cost, space, last_cost, last_space, bound = inputs
        stream = _ascending((cost[:, None] + last_cost).ravel(), space, last_space, bound)
        first = next(stream, None)
        want = None if first is None else (first[1], *divmod(first[0], len(last_cost)))
        got = _leaf_pick(cost, space, last_cost, last_space, bound)
        assert repr(got) == repr(want)


def _brute_force_aligned(instance, guess, eps, grid):
    """All aligned policies by direct enumeration: mandatory orders at each
    class minus-point, optional orders at remaining plus-points, peak checked
    against (1+eps)V exactly. Reference optimum for the recursion."""
    import itertools

    from ewlsp.model import CyclicPolicy

    tau = guess.tau
    ids = sorted(guess.assignment)
    options = []
    for cid in ids:
        q = guess.assignment[cid]
        plus, minus = grid.plus_counts[q - 1], grid.minus_counts[q - 1]
        mandatory = {s for s in range(plus) if s % (plus // minus) == 0}
        free = [s for s in range(plus) if s not in mandatory]
        opts = []
        for bits in itertools.product((0, 1), repeat=len(free)):
            opts.append(sorted(mandatory | {s for s, b in zip(free, bits) if b}))
        options.append((cid, opts))
    best = None
    cap = (1 + eps) * instance.V * (1 + 1e-12)
    for combo in itertools.product(*(opts for _, opts in options)):
        schedules = {}
        for (cid, _), slots in zip(options, combo):
            q = guess.assignment[cid]
            plus = grid.plus_counts[q - 1]
            step = tau / plus
            nxt = slots[1:] + [plus]
            schedules[cid] = tuple((s * step, (e - s) * step) for s, e in zip(slots, nxt))
        rep = evaluate(CyclicPolicy(tau, schedules), instance)
        if rep.v_max <= cap and (best is None or rep.total_cost_rate < best):
            best = rep.total_cost_rate
    return best


class TestBruteForceCrossValidation:
    """For one or two occupied levels the recursion's space check is exact,
    so the DP value must equal the enumeration optimum; with three levels or
    level gaps the quantized bound only relaxes the check, so the DP value
    can only be lower."""

    @pytest.mark.parametrize("tau", [0.8, 1.3, 2.0, 3.1])
    def test_n1_exact(self, tau):
        inst = make_instance([(1, 1, 1)], 0.6)
        guess = Guess(tau=tau, assignment={0: 1})
        grid = GridSpec.desk(1, M=2, S=4)
        dp = dp_solve(inst, guess, 0.5, grid=grid)
        bf = _brute_force_aligned(inst, guess, 0.5, grid)
        assert dp is not None and bf is not None
        assert dp[0] == pytest.approx(bf, rel=1e-9)

    @pytest.mark.parametrize("tau", [1.0, 1.7, 2.6])
    def test_n2_two_levels_exact(self, tau):
        inst = make_instance([(1.0, 0.7, 1.0), (0.4, 2.0, 0.8)], 1.1)
        guess = Guess(tau=tau, assignment={0: 1, 1: 2})
        grid = GridSpec.desk(2, M=2, S=4)
        dp = dp_solve(inst, guess, 0.5, grid=grid)
        bf = _brute_force_aligned(inst, guess, 0.5, grid)
        assert dp is not None and bf is not None
        assert dp[0] == pytest.approx(bf, rel=1e-9)

    @pytest.mark.parametrize("tau", [1.0, 2.2])
    def test_n2_shared_level_exact(self, tau):
        inst = make_instance([(1.0, 0.7, 1.0), (0.4, 2.0, 0.8)], 1.1)
        guess = Guess(tau=tau, assignment={0: 1, 1: 1})
        grid = GridSpec.desk(1, M=2, S=4)
        dp = dp_solve(inst, guess, 0.5, grid=grid)
        bf = _brute_force_aligned(inst, guess, 0.5, grid)
        assert dp[0] == pytest.approx(bf, rel=1e-9)

    @pytest.mark.parametrize("tau, V", [(1.2, 0.7), (1.2, 1.4), (2.0, 1.1), (2.0, 0.5)])
    def test_n3_shared_level_exact(self, tau, V):
        # three commodities on one level; at V=0.7 and 1.1 some rows are over
        # the bound after one or two commodities, at V=0.5 every combination
        inst = make_instance([(1.0, 0.7, 1.0), (0.4, 2.0, 0.8), (0.3, 1.0, 0.5)], V)
        guess = Guess(tau=tau, assignment={0: 1, 1: 1, 2: 1})
        grid = GridSpec.desk(1, M=2, S=4)
        dp = dp_solve(inst, guess, 0.5, grid=grid)
        bf = _brute_force_aligned(inst, guess, 0.5, grid)
        if bf is None:
            assert dp is None
        else:
            assert dp is not None
            assert dp[0] == pytest.approx(bf, rel=1e-9)

    @pytest.mark.parametrize("tau", [1.1, 1.9])
    def test_n3_three_levels_never_worse(self, tau):
        inst = make_instance([(1.0, 0.7, 1.0), (0.4, 2.0, 0.8), (0.3, 1.0, 0.5)], 1.4)
        guess = Guess(tau=tau, assignment={0: 1, 1: 2, 2: 3})
        grid = GridSpec.desk(3, M=2, S=2)
        dp = dp_solve(inst, guess, 0.5, grid=grid)
        bf = _brute_force_aligned(inst, guess, 0.5, grid)
        if bf is not None:
            assert dp is not None
            assert dp[0] <= bf + 1e-9

    @pytest.mark.parametrize("tau", [1.0, 1.8])
    def test_level_gap_never_worse(self, tau):
        # classes {1, 3}: the skipped level folds into the quantized bound
        inst = make_instance([(1.0, 0.7, 1.0), (0.4, 2.0, 0.8)], 1.1)
        guess = Guess(tau=tau, assignment={0: 1, 1: 3})
        grid = GridSpec.desk(3, M=2, S=2)
        dp = dp_solve(inst, guess, 0.5, grid=grid)
        bf = _brute_force_aligned(inst, guess, 0.5, grid)
        if bf is not None:
            assert dp is not None
            assert dp[0] <= bf + 1e-9

    @given(
        tau=st.floats(0.5, 3.5),
        params=st.lists(st.tuples(*[st.floats(0.2, 5.0)] * 3), min_size=2, max_size=2),
        fill=st.floats(0.16, 0.5),
        classes=st.sampled_from([(1,), (1, 1), (1, 2), (2, 1)]),
    )
    @settings(max_examples=80, deadline=None)
    def test_one_or_two_adjacent_levels_exact(self, tau, params, fill, classes):
        # this capacity range leaves some guesses infeasible, binds on most
        # of the rest and leaves a few unconstrained
        params = params[: len(classes)]
        inst = make_instance(params, fill * tau * sum(g for _, _, g in params))
        guess = Guess(tau=tau, assignment=dict(enumerate(classes)))
        grid = GridSpec.desk(max(classes), M=2, S=4)
        dp = dp_solve(inst, guess, 0.5, grid=grid)
        bf = _brute_force_aligned(inst, guess, 0.5, grid)
        if bf is None:
            assert dp is None
        else:
            assert dp is not None
            assert dp[0] == pytest.approx(bf, rel=1e-9)

    def test_dp_policy_cost_matches_value(self):
        inst = make_instance([(1.0, 0.7, 1.0), (0.4, 2.0, 0.8)], 1.1)
        guess = Guess(tau=1.7, assignment={0: 1, 1: 3})
        grid = GridSpec.desk(3, M=2, S=2)
        dp = dp_solve(inst, guess, 0.5, grid=grid)
        assert dp is not None
        rate, policy = dp
        assert evaluate(policy, inst).total_cost_rate == pytest.approx(rate, rel=1e-9)


class TestOverfullLevels:
    @given(
        tau=st.floats(0.5, 3.5),
        params=st.lists(st.tuples(*[st.floats(0.2, 5.0)] * 3), min_size=3, max_size=3),
        fill=st.one_of(
            st.floats(0.3, 2.0),
            st.builds(lambda sign, e: 1.0 + sign * 10.0**-e, st.sampled_from([-1, 1]), st.floats(1, 8)),
        ),
        classes=st.sampled_from([(1,), (1, 1), (1, 2), (2, 1), (2, 2), (1, 1, 1), (1, 1, 2)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_overfull_guess_has_no_aligned_policy(self, tau, params, fill, classes):
        # the capacity puts the bound at `fill` times the fullest level's
        # all-orders space, often within 10^-8..10^-1 of it, but no level
        # within a relative 1e-9, where the oracle's exact peak and the
        # test's float sum may round apart
        params = params[: len(classes)]
        grid = GridSpec.desk(max(classes), M=2, S=4)
        level_space = [
            sum(g for (_, _, g), c in zip(params, classes) if c == q) * tau / grid.plus_counts[q - 1]
            for q in set(classes)
        ]
        inst = make_instance(params, fill * max(level_space) / 1.5)
        bound = 1.5 * inst.V
        assume(all(abs(space / bound - 1.0) > 1e-9 for space in level_space))
        guess = Guess(tau=tau, assignment=dict(enumerate(classes)))
        if _overfull(inst, guess.assignment, 0.5, grid, guess.tau):
            assert _brute_force_aligned(inst, guess, 0.5, grid) is None

    def test_overfull_guess_builds_no_solver(self, monkeypatch):
        # gamma * tau/8 = 0.125 per slot against (1 + 0.5) * 0.05
        inst = make_instance([(1, 1, 1)], 0.05)
        guess = Guess(tau=1.0, assignment={0: 1})
        grid = GridSpec.desk(1)
        assert _overfull(inst, guess.assignment, 0.5, grid, guess.tau)

        def no_solver(*args):
            raise AssertionError("_DpSolver built for an overfull guess")

        monkeypatch.setattr("ewlsp.ptas._DpSolver", no_solver)
        assert dp_solve(inst, guess, 0.5, grid=grid) is None

    def test_overfull_guesses_are_pruned_before_their_bound(self, monkeypatch):
        # the sweep's bounds come from its screen: its queue holds the
        # guesses it bounded, in the order it visits them
        inst = generate_instance(5, 2, 1.0, "tight")
        guesses = enumerate_guesses(inst, 0.5)

        def grid_of(guess):
            return GridSpec.desk(max(guess.assignment.values()))

        overfull = {k for k, g in enumerate(guesses) if _scalar_overfull(inst, g, 0.5, grid_of(g))}
        assert overfull
        screens, runs = [], []

        def recorded_screen(*args):
            screens.append(_screen(*args))
            return screens[-1]

        def counted_dp_solve(*args, **kwargs):
            runs.append(args[1])
            return dp_solve(*args, **kwargs)

        monkeypatch.setattr("ewlsp.ptas._screen", recorded_screen)
        monkeypatch.setattr("ewlsp.ptas.dp_solve", counted_dp_solve)
        details = {}
        ptas_solve(inst, 0.5, details=details)
        [(skipped, overfull_count, queue)] = screens
        bounded = [index for _, index in queue]
        assert (skipped, overfull_count) == (details["skipped_guesses"], len(overfull))
        assert not overfull & set(bounded)
        assert not any(_scalar_overfull(inst, g, 0.5, grid_of(g)) for g in runs)
        assert len(bounded) == len(guesses) - details["skipped_guesses"] - len(overfull)
        assert details["pruned_guesses"] == len(overfull) + len(bounded) - len(runs)


def test_paper_grid_geometry_runs_for_one_commodity():
    # base 2 keeps the published counts runnable at n=1
    inst = make_instance([(1, 1, 1)], 10.0)
    guess = Guess(tau=2.0, assignment={0: 1})
    result = dp_solve(inst, guess, 0.5, grid=GridSpec.paper(1, 1, 0.5))
    assert result is not None
    rate, policy = result
    assert evaluate(policy, inst).total_cost_rate == pytest.approx(rate, rel=1e-9)
    assert rate <= 2.5  # within reach of the closed-form optimum 2.0
