"""Structural classes: Gallai/GDP forests, deficiency, Dirac graphs, bricks."""

import re
import time
from itertools import combinations
from random import Random

import pytest

from dpcolor import (
    DiracWitness,
    MultiGraph,
    SimpleGraph,
    emit_graph6,
    find_brick,
    gdp_deficiency,
    is_gallai_forest,
    is_gdp_forest,
    recognize_dirac,
)
from dpcolor.construct import make_dirac, make_multigraph_counterexample

from helpers import (
    atlas_connected,
    atlas_graphs,
    connected_gdp_trees,
    dirac_witness_holds,
    from_nx,
    nx_is_gallai_forest,
    nx_is_gdp_forest,
    reference_is_gallai_forest,
    reference_find_brick,
    reference_is_gdp_forest,
    to_nx,
)


def cycle(n):
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return SimpleGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestForestRecognizers:
    def test_cycles(self):
        assert is_gallai_forest(cycle(5))
        assert not is_gallai_forest(cycle(4))
        assert is_gdp_forest(cycle(4))
        assert is_gdp_forest(cycle(5))

    def test_two_triangles_sharing_a_vertex(self):
        g = SimpleGraph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
        assert is_gallai_forest(g)
        assert is_gdp_forest(g)

    def test_k4_minus_edge(self):
        g = SimpleGraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        assert not is_gallai_forest(g)
        assert not is_gdp_forest(g)

    def test_degenerate_cases(self):
        assert is_gallai_forest(SimpleGraph(0, []))
        assert is_gallai_forest(SimpleGraph(1, []))
        assert is_gdp_forest(SimpleGraph(3, []))  # three isolated vertices
        assert is_gallai_forest(SimpleGraph(2, [(0, 1)]))  # K2 block is a clique

    def test_forests_of_trees(self):
        path = SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert is_gallai_forest(path) and is_gdp_forest(path)

    def test_gallai_implies_gdp(self):
        for g in connected_gdp_trees(6):
            if is_gallai_forest(g):
                assert is_gdp_forest(g)

    def test_against_atlas_oracle(self):
        for G in atlas_connected(range(1, 8)):
            g = from_nx(G)
            assert is_gallai_forest(g) == nx_is_gallai_forest(G)
            assert is_gdp_forest(g) == nx_is_gdp_forest(G)

    def test_against_the_induced_shape_oracle(self):
        for g in atlas_graphs():
            assert is_gdp_forest(g) == reference_is_gdp_forest(g)
            assert is_gallai_forest(g) == reference_is_gallai_forest(g)

    def test_disconnected_checks_every_component(self):
        # C4 plus a separate triangle: gdp yes, gallai no
        g = SimpleGraph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)])
        assert is_gdp_forest(g)
        assert not is_gallai_forest(g)


class TestGdpDeficiency:
    def test_named_values(self):
        assert gdp_deficiency(complete(3), 3) == 3
        assert gdp_deficiency(cycle(4), 4) == 8
        assert gdp_deficiency(SimpleGraph(1, []), 5) == 5

    def test_formula(self):
        rng = Random(222)
        for _ in range(20):
            n = rng.randint(1, 7)
            g = SimpleGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
            for k in (3, 4):
                assert gdp_deficiency(g, k) == sum(k - g.degree(u) for u in g.vertices)

    def test_rejects_empty_and_bad_k(self):
        with pytest.raises(ValueError):
            gdp_deficiency(SimpleGraph(0, []), 3)
        # 2.5 answered 2.0 on the 4-cycle, and True -4
        for k in (0, 2.5, True):
            with pytest.raises(ValueError, match="^k must be"):
                gdp_deficiency(cycle(4), k)

    def test_lower_bound_on_small_gdp_trees(self):
        from dpcolor import contains_clique

        for k in (3, 4):
            for f in connected_gdp_trees(6):
                if f.max_degree > k or contains_clique(f, k + 1):
                    continue
                d = gdp_deficiency(f, k)
                assert d >= k
                if d == k:
                    assert f.n == 1 or (f.n == k and f.m == k * (k - 1) // 2)


class TestRecognizeDirac:
    def test_constructor_round_trip(self):
        for k in (3, 4, 5):
            for a in range(1, k):
                g = make_dirac(k, a)
                w = recognize_dirac(g, k)
                assert w is not None
                assert dirac_witness_holds(g, k, w)

    def test_witness_fields(self):
        w = recognize_dirac(make_dirac(3, 1), 3)
        assert len(w.V1) == 3 and len(w.V2) == 2 and len(w.V3) == 2
        data = w.to_json()
        assert sorted(data) == ["V1", "V2", "V3", "attachment", "k"]

    def test_k7_rejected(self):
        assert recognize_dirac(complete(7), 3) is None

    def test_wrong_size_rejected(self):
        assert recognize_dirac(complete(4), 3) is None
        assert recognize_dirac(cycle(7), 3) is None  # right n, wrong m

    def test_refuses_a_non_int_k(self):
        # 3.0 answered None, as if the 3-Dirac graph were not one
        for g, k in [(cycle(4), 3.0), (make_dirac(3, 1), 3.0), (make_dirac(3, 1), 3.5)]:
            with pytest.raises(ValueError, match=re.escape(f"k must be an int, got {k!r}")):
                recognize_dirac(g, k)

    def test_permuted_labels_still_recognized(self):
        rng = Random(1351)
        for k in (3, 4):
            g = make_dirac(k, 1)
            perm = list(g.vertices)
            rng.shuffle(perm)
            h = SimpleGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            w = recognize_dirac(h, k)
            assert w is not None and dirac_witness_holds(h, k, w)

    def test_edge_tweaks_break_membership(self):
        g = make_dirac(3, 1)
        edges = list(g.edges())
        for i in range(len(edges)):
            smaller = SimpleGraph(g.n, edges[:i] + edges[i + 1 :])
            assert recognize_dirac(smaller, 3) is None  # m is off by one
        non_edges = [
            (u, v)
            for u in g.vertices
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        ]
        for u, v in non_edges:
            bigger = SimpleGraph(g.n, edges + [(u, v)])
            assert recognize_dirac(bigger, 3) is None

    def test_rewired_graph_with_matching_counts_rejected(self):
        # n = 7 and m = 11 like Dir_3, but with a 4-clique inside
        extra = SimpleGraph(
            7,
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
            + [(3, 4), (4, 5), (5, 6), (6, 4), (2, 6)],
        )
        assert extra.m == 11
        assert recognize_dirac(extra, 3) is None

    def test_against_brute_force_on_the_atlas(self):
        # every end pair in order, and every V1 choice beside it: the first
        # split that holds is the witness; the atlas has end pairs that fail
        # only on the edges inside V1 and V2 and one that fails only on the
        # end attachment
        k = 3
        for G in atlas_connected([2 * k + 1]):
            if G.number_of_edges() != k * k + k - 1:
                continue
            g = from_nx(G)
            want = None
            for x, y in combinations(g.vertices, 2):
                rest = [w for w in g.vertices if w not in (x, y)]
                for v1 in combinations(rest, k):
                    attachment = tuple((w, x if g.has_edge(w, x) else y) for w in v1)
                    v2 = tuple(w for w in rest if w not in v1)
                    split = DiracWitness(k, v1, v2, (x, y), attachment)
                    if dirac_witness_holds(g, k, split):
                        want = split
                        break
                if want is not None:
                    break
            assert recognize_dirac(g, k) == want, emit_graph6(g)

    def test_k_below_three_rejected(self):
        with pytest.raises(ValueError):
            recognize_dirac(cycle(5), 2)

    def test_every_dirac_graph_hits_equality(self):
        for k in (3, 4, 5, 6):
            for a in range(1, k):
                g = make_dirac(k, a)
                assert 2 * g.m == k * g.n + k - 2


class TestFindBrick:
    def test_triangle_with_half_multiplicity(self):
        for k in (4, 6):
            g = MultiGraph(3, [(0, 1, k // 2), (1, 2, k // 2), (0, 2, k // 2)])
            w = find_brick(g, k)
            assert w is not None
            assert w.multiplicity == k // 2
            assert sorted(w.vertices) == [0, 1, 2]

    def test_simple_clique_is_a_brick(self):
        for k in (3, 4):
            g = MultiGraph(k + 1, [(u, v, 1) for u in range(k + 1) for v in range(u + 1, k + 1)])
            w = find_brick(g, k)
            assert w is not None
            assert w.shape == "clique" and w.multiplicity == 1

    def test_counterexample_multigraph_is_brick_free(self):
        for k in (3, 6):
            g, _ = make_multigraph_counterexample(k)
            assert find_brick(g, k) is None

    def test_cycle_brick(self):
        g = MultiGraph(4, [(0, 1, 2), (1, 2, 2), (2, 3, 2), (0, 3, 2)])
        w = find_brick(g, 4)
        assert w is not None
        assert w.shape == "cycle" and w.multiplicity == 2 and len(w.vertices) == 4

    def test_refuses_a_non_int_k(self):
        # 4.0 answered a brick of multiplicity 2.0
        g = MultiGraph(3, [(0, 1, 2), (1, 2, 2), (0, 2, 2)])
        for k in (4.0, True):
            with pytest.raises(ValueError, match=re.escape(f"k must be an int, got {k!r}")):
                find_brick(g, k)

    def test_submultiplicity_containment(self):
        # triangle with mults (3, 2, 2) contains the uniform-2 triangle
        g = MultiGraph(3, [(0, 1, 3), (1, 2, 2), (0, 2, 2)])
        assert find_brick(g, 4) is not None
        assert find_brick(g, 4, allow_submultiplicity=False) is None

    def test_exact_mode_needs_clean_induced_brick(self):
        clean = MultiGraph(3, [(0, 1, 2), (1, 2, 2), (0, 2, 2)])
        assert find_brick(clean, 4, allow_submultiplicity=False) is not None
        # an extra vertex hanging off is fine, the brick is still induced
        hairy = MultiGraph(4, [(0, 1, 2), (1, 2, 2), (0, 2, 2), (2, 3, 1)])
        assert find_brick(hairy, 4, allow_submultiplicity=False) is not None

    def test_parallel_edge_bundle_is_a_clique_brick(self):
        # a bundle of k parallel edges is k-regular over the clique K2
        w = find_brick(MultiGraph(2, [(0, 1, 3)]), 3)
        assert w is not None and w.shape == "clique" and w.multiplicity == 3

    def test_no_brick_in_small_graphs(self):
        assert find_brick(MultiGraph(2, [(0, 1, 2)]), 3) is None
        assert find_brick(MultiGraph(1, []), 3) is None
        # K4 is 3-regular but a 4-brick needs degree 4
        g = MultiGraph(4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)])
        assert find_brick(g, 4) is None

    def test_odd_k_cycle_bricks_impossible(self):
        # 2 * mult = k has no solution for odd k, so only cliques can appear
        g = MultiGraph(4, [(0, 1, 2), (1, 2, 2), (2, 3, 2), (0, 3, 2)])
        assert find_brick(g, 5) is None

    def test_witness_json(self):
        g = MultiGraph(3, [(0, 1, 2), (1, 2, 2), (0, 2, 2)])
        w = find_brick(g, 4)
        data = w.to_json()
        assert data["shape"] in ("clique", "cycle")
        assert data["multiplicity"] == 2
        assert sorted(data["vertices"]) == [0, 1, 2]

    def test_k_below_three_rejected(self):
        with pytest.raises(ValueError):
            find_brick(MultiGraph(2, [(0, 1, 1)]), 2)

    @pytest.mark.parametrize("exact", [False, True], ids=["contained", "exact"])
    def test_matches_the_permutation_search(self, exact):
        # the first witness, shape and vertex order included, is the one
        # the search over every permutation finds
        rng = Random(3306 + exact)
        found = {3: set(), 4: set(), 6: set()}
        for _ in range(150):
            n = rng.randint(2, 7)
            mults = rng.choice([[0, 0, 1, 2, 3, 4], [0, 2, 2, 3, 3], [0, 0, 0, 0, 1, 2, 3]])
            mult = {e: rng.choice(mults) for e in combinations(range(n), 2)}
            if n >= 4 and rng.random() < 0.5:
                # plant a cycle of uniform multiplicity over the noise
                ring = rng.sample(range(n), rng.randint(4, n))
                t = rng.choice([2, 3])
                for u, v in zip(ring, ring[1:] + ring[:1]):
                    mult[min(u, v), max(u, v)] = t
            g = MultiGraph(n, [(u, v, t) for (u, v), t in mult.items() if t])
            for k in found:
                w = find_brick(g, k, allow_submultiplicity=not exact)
                assert w == reference_find_brick(g, k, allow_submultiplicity=not exact)
                if w is not None:
                    found[k].add(w.shape)
        # every shape the degree allows turns up
        assert found == {3: {"clique"}, 4: {"clique", "cycle"}, 6: {"clique", "cycle"}}

    def test_simple_graphs_match_the_permutation_search(self):
        for g in [g for g in atlas_graphs() if g.n <= 6][::2]:
            for k in (3, 4):
                for exact in (False, True):
                    assert find_brick(g, k, not exact) == reference_find_brick(g, k, not exact)

    def test_edgeless_graphs_are_decided_fast(self):
        # the permutation search took 34 s on the first and minutes on the second
        start = time.perf_counter()
        assert find_brick(SimpleGraph(11), 6) is None
        assert find_brick(MultiGraph(12, []), 100) is None
        assert find_brick(MultiGraph(12, []), 100, allow_submultiplicity=False) is None
        assert find_brick(MultiGraph(40, []), 100) is None
        assert find_brick(MultiGraph(40, []), 100, allow_submultiplicity=False) is None
        assert time.perf_counter() - start < 1.0

    def test_vertices_without_enough_qualifying_pairs_are_never_drawn(self):
        # a perfect matching of double pairs: at k = 6 no vertex has the pairs
        # any brick needs, so none of the 2^40 vertex sets is tried
        g = MultiGraph(40, [(v, v + 1, 2) for v in range(0, 40, 2)])
        start = time.perf_counter()
        assert find_brick(g, 6) is None
        assert find_brick(g, 6, allow_submultiplicity=False) is None
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n", [26, 60])
    def test_regular_graph_without_a_big_clique_is_decided_fast(self, n):
        # C_n(1, 2, 3) is 6-regular with no K_7: the clique search grows
        # cliques along common neighbors in place of the C(n, 7) vertex sets
        g = SimpleGraph(n, [(i, (i + d) % n) for i in range(n) for d in (1, 2, 3)])
        start = time.perf_counter()
        assert find_brick(g, 6) is None
        assert find_brick(g, 6, allow_submultiplicity=False) is None
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "pairs, contained, exact",
        [
            # a 4-cycle of triple pairs on 0-3 comes before a K4 of double pairs on 4-7
            (
                [(0, 1, 3), (1, 2, 3), (2, 3, 3), (0, 3, 3)]
                + [(u, v, 2) for u, v in combinations(range(4, 8), 2)],
                ("cycle", (0, 1, 2, 3), 3),
                ("cycle", (0, 1, 2, 3), 3),
            ),
            # the same two pieces swapped: the clique comes first
            (
                [(u, v, 2) for u, v in combinations(range(4), 2)]
                + [(4, 5, 3), (5, 6, 3), (6, 7, 3), (4, 7, 3)],
                ("clique", (0, 1, 2, 3), 2),
                ("clique", (0, 1, 2, 3), 2),
            ),
            # one 4-set that is both: the clique wins, and is not exact
            (
                [(0, 1, 3), (1, 2, 3), (2, 3, 3), (0, 3, 3), (0, 2, 2), (1, 3, 2)],
                ("clique", (0, 1, 2, 3), 2),
                None,
            ),
        ],
        ids=["cycle-first", "clique-first", "both"],
    )
    def test_shape_order_on_one_size(self, pairs, contained, exact):
        g = MultiGraph(8 if len(pairs) > 6 else 4, pairs)
        for allow, expect in ((True, contained), (False, exact)):
            w = find_brick(g, 6, allow_submultiplicity=allow)
            assert w == reference_find_brick(g, 6, allow_submultiplicity=allow)
            assert (w and (w.shape, w.vertices, w.multiplicity)) == expect

    def test_long_cycle_is_walked_not_listed(self):
        # listing the C(40, r) vertex sets of each size r never ends; the
        # walk follows the ring pairs around the cycle
        g = MultiGraph(40, [(v, (v + 1) % 40, 3) for v in range(40)])
        start = time.perf_counter()
        for allow in (True, False):
            w = find_brick(g, 6, allow_submultiplicity=allow)
            assert (w.shape, w.vertices, w.multiplicity) == ("cycle", tuple(range(40)), 3)
        assert time.perf_counter() - start < 1.0

    def test_walks_start_only_where_a_cycle_can_start(self):
        # only vertex 0 has both ring pairs above it, so each size walks
        # one path from 0 in place of one from every vertex
        g = MultiGraph(400, [(v, (v + 1) % 400, 3) for v in range(400)])
        start = time.perf_counter()
        for allow in (True, False):
            w = find_brick(g, 6, allow_submultiplicity=allow)
            assert (w.shape, w.vertices, w.multiplicity) == ("cycle", tuple(range(400)), 3)
        assert time.perf_counter() - start < 1.0

    def test_many_isolated_vertices_are_decided_fast(self):
        # no vertex has 2 ring pairs, so no size walks a cycle
        g = MultiGraph(20_000, [])
        start = time.perf_counter()
        assert find_brick(g, 6) is None
        assert find_brick(g, 6, allow_submultiplicity=False) is None
        assert time.perf_counter() - start < 1.0

    def test_chord_spoils_only_the_exact_cycle(self):
        # a single pair (0, 3) across a 6-cycle of triple pairs: the cycle is
        # still contained, but no longer induced
        g = MultiGraph(6, [(v, (v + 1) % 6, 3) for v in range(6)] + [(0, 3, 1)])
        w = find_brick(g, 6)
        assert (w.shape, w.vertices, w.multiplicity) == ("cycle", (0, 1, 2, 3, 4, 5), 3)
        assert w == reference_find_brick(g, 6)
        assert find_brick(g, 6, allow_submultiplicity=False) is None
        assert reference_find_brick(g, 6, allow_submultiplicity=False) is None
