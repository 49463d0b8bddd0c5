"""Named constructions and their stated invariants."""

import re

import networkx as nx
import pytest

from dpcolor import (
    chi_dp,
    contains_clique,
    cover_from_lists,
    find_brick,
    is_colorable,
    is_critical,
)
from dpcolor.construct import (
    make_c4_covers,
    make_dirac,
    make_ks_example,
    make_multigraph_counterexample,
    make_wheel,
)
from dpcolor.covers import is_full_matching

from helpers import matched_pairs, to_nx


class TestMakeDirac:
    def test_counts(self):
        for k in range(3, 7):
            for a in range(1, k):
                g = make_dirac(k, a)
                assert g.n == 2 * k + 1
                assert g.m == k * k + k - 1
                assert 2 * g.m == k * g.n + k - 2
                assert g.min_degree == k
                assert g.is_connected()
                assert not contains_clique(g, k + 1)

    def test_degree_sequence(self):
        for k in (3, 4, 5):
            for a in range(1, k):
                g = make_dirac(k, a)
                degs = sorted(g.degrees())
                ends = sorted((a + k - 1, 2 * k - 1 - a))
                assert degs == sorted([k] * (2 * k - 1) + ends)

    def test_split_symmetry(self):
        for k in (3, 4):
            for a in range(1, k):
                left = to_nx(make_dirac(k, a))
                right = to_nx(make_dirac(k, k - a))
                assert nx.is_isomorphic(left, right)

    def test_identity_cover_critical(self):
        for a in (1, 2):
            g = make_dirac(3, a)
            c = cover_from_lists(g, [[0, 1, 2]] * g.n)
            assert is_critical(c)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            make_dirac(2, 1)
        with pytest.raises(ValueError):
            make_dirac(3, 0)
        with pytest.raises(ValueError):
            make_dirac(3, 3)

    def test_refuses_non_int_arguments(self):
        # a float raised TypeError from range
        for k, a, name, value in [(3.0, 1, "k", 3.0), (3, 1.0, "a", 1.0), (True, 1, "k", True)]:
            want = f"{name} must be an int, got {value!r}"
            with pytest.raises(ValueError, match=re.escape(want)):
                make_dirac(k, a)


class TestMakeKsExample:
    def test_counts(self):
        for k in range(3, 7):
            g, lists = make_ks_example(k)
            assert g.n == 2 * k + 2
            assert g.m == k * (k + 1) + 1
            assert 2 * g.m - k * g.n == 2
            assert g.is_connected()
            assert contains_clique(g, k + 1)

    def test_list_shape(self):
        for k in (3, 5):
            g, lists = make_ks_example(k)
            assert len(lists) == g.n
            assert all(len(lst) == k for lst in lists)
            joined = [v for v in g.vertices if sorted(lists[v]) == list(range(k))]
            assert len(joined) == 2
            u, v = joined
            assert g.has_edge(u, v)
            for w in g.vertices:
                if w not in joined:
                    assert sorted(lists[w]) == list(range(1, k + 1))

    def test_critical_at_three(self):
        g, lists = make_ks_example(3)
        c = cover_from_lists(g, lists)
        assert is_critical(c)

    def test_smallest_case(self):
        g, lists = make_ks_example(2)
        assert g.n == 6 and g.m == 7
        assert is_critical(cover_from_lists(g, lists))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            make_ks_example(1)

    def test_refuses_a_non_int_k(self):
        # 2.0 raised TypeError from range
        for k in (2.0, "2", True):
            with pytest.raises(ValueError, match=re.escape(f"k must be an int, got {k!r}")):
                make_ks_example(k)


class TestMakeC4Covers:
    def test_straight_agrees_with_shared_lists(self):
        straight, _ = make_c4_covers()
        built = cover_from_lists(straight.base, [[0, 1]] * 4)
        assert straight.list_size == built.list_size
        for u, v in straight.base.edges():
            assert matched_pairs(straight, u, v) == matched_pairs(built, u, v)

    def test_verdicts(self):
        straight, twisted = make_c4_covers()
        assert is_colorable(straight)
        assert not is_colorable(twisted)
        assert is_critical(twisted)

    def test_differ_on_one_edge(self):
        straight, twisted = make_c4_covers()
        assert straight.base.edges() == twisted.base.edges()
        different = [
            (u, v)
            for u, v in straight.base.edges()
            if matched_pairs(straight, u, v) != matched_pairs(twisted, u, v)
        ]
        assert len(different) == 1

    def test_both_validate(self):
        for c in make_c4_covers():
            assert c.k == 2
            assert all(is_full_matching(c, u, v) for u, v in c.edge_pairs())


class TestMakeWheel:
    def test_square_rim(self):
        g = make_wheel(4)
        assert g.n == 5 and g.m == 8
        hub = 4
        assert g.degree(hub) == 4
        assert all(g.degree(v) == 3 for v in range(4))
        assert chi_dp(g) == 3

    def test_triangle_rim_gives_clique(self):
        g = make_wheel(3)
        assert g.n == 4 and g.m == 6
        assert contains_clique(g, 4)

    def test_five_rim(self):
        g = make_wheel(5)
        assert g.n == 6 and g.m == 10

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            make_wheel(2)

    def test_refuses_a_non_int_rim(self):
        # 4.0 raised TypeError from range
        for r in (4.0, "4", True):
            want = f"r must be an int, got {r!r}"
            with pytest.raises(ValueError, match=re.escape(want)):
                make_wheel(r)


class TestMakeMultigraphCounterexample:
    def test_counts(self):
        for k in (3, 6, 9):
            mg, cover = make_multigraph_counterexample(k)
            q = k // 3
            assert mg.n == 3
            assert mg.m == 5 * q
            assert 2 * mg.m - k * mg.n == k // 3
            assert mg.multiplicity(0, 1) == q
            assert mg.multiplicity(0, 2) == 2 * q
            assert mg.multiplicity(1, 2) == 2 * q
            assert cover.k == k

    def test_cross_rule_reconstruction(self):
        # color j*q + a of a vertex stands for the label (j, a); across
        # the light pair colors conflict exactly when the j labels agree,
        # across the two heavy pairs exactly when they differ
        for k in (3, 6):
            q = k // 3
            _, cover = make_multigraph_counterexample(k)

            def code(j, a):
                return j * q + a

            agree = {
                (code(j, a1), code(j, a2))
                for j in range(3)
                for a1 in range(q)
                for a2 in range(q)
            }
            differ = {
                (code(j1, a1), code(j2, a2))
                for j1 in range(3)
                for j2 in range(3)
                if j1 != j2
                for a1 in range(q)
                for a2 in range(q)
            }
            assert matched_pairs(cover, 0, 1) == agree
            assert matched_pairs(cover, 0, 2) == differ
            assert matched_pairs(cover, 1, 2) == differ

    def test_uncolorable_and_critical(self):
        for k in (3, 6):
            _, cover = make_multigraph_counterexample(k)
            assert not is_colorable(cover)
            assert is_critical(cover)

    def test_brick_free(self):
        for k in (3, 6):
            mg, _ = make_multigraph_counterexample(k)
            assert find_brick(mg, k) is None

    def test_bad_arguments(self):
        # 3.0 reached MultiGraph, which blamed a multiplicity of 1.0
        for k in (0, 2, 4, -3, 3.0):
            with pytest.raises(ValueError, match="^k must be"):
                make_multigraph_counterexample(k)
