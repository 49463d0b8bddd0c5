"""Cover model: validation, list reduction, residuals, enumeration, JSON."""

import itertools
import json
import math
import time
from random import Random

import pytest

from dpcolor import (
    Cover,
    MultiGraph,
    PartialColoring,
    SimpleGraph,
    count_covers,
    cover_from_json,
    cover_from_json_text,
    cover_from_lists,
    cover_to_json,
    cover_to_json_text,
    degree_profile,
    enumerate_covers,
    find_coloring,
    first_critical_cover,
    is_colorable,
    is_independent,
    partial_injections,
    relabel_colors,
    residual_list,
)
from dpcolor.construct import make_c4_covers, make_ks_example
from dpcolor.covers import (
    coloring_from_json_text,
    coloring_to_json_text,
    cover_choices,
    is_full_matching,
)
from dpcolor.graphs import multigraph_from_json

from helpers import (
    atlas_connected,
    brute_force_colorings,
    from_nx,
    matched_pairs,
    random_connected_graph,
    random_cover,
    random_multigraph,
    random_partial_injection,
    residual_count,
)

C4 = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
K3 = SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])
K2 = SimpleGraph(2, [(0, 1)])
M2 = MultiGraph(2, [(0, 1, 2)])


def identity_cover(g, k):
    return cover_from_lists(g, [list(range(k))] * g.n)


class TestCoverConstruction:
    def test_uniform_k(self):
        c = Cover(C4, [2, 2, 2, 2], {(0, 1): [(0, 0), (1, 1)]})
        assert c.k == 2
        assert c.list_size == (2, 2, 2, 2)
        assert c.size(3) == 2

    def test_non_uniform_k_is_none(self):
        c = Cover(SimpleGraph(2, [(0, 1)]), [2, 3], {})
        assert c.k is None

    def test_missing_edges_get_empty_matchings(self):
        c = Cover(C4, [2] * 4, {})
        assert all(matched_pairs(c, u, v) == frozenset() for u, v in c.edge_pairs())

    def test_rejects_non_edges(self):
        with pytest.raises(ValueError):
            Cover(C4, [2] * 4, {(0, 2): [(0, 0)]})

    def test_slot_matchings_refuse_a_non_edge(self):
        with pytest.raises(ValueError, match=r"\(0, 2\) is not an edge of the base graph"):
            Cover(C4, [2] * 4).slot_matchings(0, 2)

    def test_flipped_key_is_transposed(self):
        a = Cover(C4, [2] * 4, {(0, 1): [(0, 1)]})
        b = Cover(C4, [2] * 4, {(1, 0): [(1, 0)]})
        assert a == b
        assert matched_pairs(a, 0, 1) == frozenset({(0, 1)})

    def test_matched_colors_oriented_both_ways(self):
        c = Cover(C4, [2] * 4, {(0, 1): [(0, 1)]})
        assert c.matched_colors(0, 1, 0) == (1,)
        assert c.matched_colors(1, 0, 1) == (0,)
        assert c.matched_colors(1, 0, 0) == ()
        assert c.matched_colors(0, 2, 0) == ()  # non-adjacent: nothing matched

    def test_multigraph_slot_counts_enforced(self):
        g = MultiGraph(2, [(0, 1, 2)])
        c = Cover(g, [2, 2], {(0, 1): [[(0, 0)], [(1, 1)]]})
        assert c.slot_matchings(0, 1) == (((0, 0),), ((1, 1),))
        assert matched_pairs(c, 0, 1) == {(0, 0), (1, 1)}
        with pytest.raises(ValueError):
            Cover(g, [2, 2], {(0, 1): [[(0, 0)]]})  # one matching for two parallel edges

    def test_from_slots_takes_one_list_per_pair_on_any_base(self):
        bare = Cover(C4, [2] * 4, {(0, 1): [(0, 1)], (3, 2): [(1, 0)]})
        slots = {(0, 1): [[(0, 1)]], (3, 2): [[(1, 0)]]}
        assert Cover.from_slots(C4, [2] * 4, slots) == bare
        g = MultiGraph(2, [(0, 1, 2)])
        listed = Cover(g, [2, 2], {(0, 1): [[(0, 0)], [(1, 1)]]})
        assert Cover.from_slots(g, [2, 2], {(1, 0): [[(0, 0)], [(1, 1)]]}) == listed
        with pytest.raises(ValueError):  # C4 has no parallel edges
            Cover.from_slots(C4, [2] * 4, {(0, 1): [[(0, 1)], [(1, 0)]]})

    @pytest.mark.parametrize(
        "base, matchings",
        [
            (SimpleGraph(2, [(0, 1)]), {(0, 1): [0, 1]}),
            (SimpleGraph(2, [(0, 1)]), {(0, 1): 5}),
            (SimpleGraph(2, [(0, 1)]), {(0, 1): [(0,)]}),
            (SimpleGraph(2, [(0, 1)]), {(0, 1): [(0, 1, 2)]}),
            (SimpleGraph(2, [(0, 1)]), {(0, 1): [(0, 1), ("a", 0)]}),
            (SimpleGraph(2, [(0, 1)]), {(0, 1): [(True, 0)]}),
            (SimpleGraph(2, [(0, 1)]), {5: [(0, 1)]}),
            (SimpleGraph(2, [(0, 1)]), {(0, 1, 2): [(0, 1)]}),
            (MultiGraph(2, [(0, 1, 2)]), {(0, 1): 5}),
            (MultiGraph(2, [(0, 1, 2)]), {(0, 1): [[(0, 0)], [1]]}),
        ],
    )
    def test_malformed_matchings_raise_value_error(self, base, matchings):
        with pytest.raises(ValueError, match=r"edge \(0, 1\)|matching key"):
            Cover(base, [2, 2], matchings)

    @pytest.mark.parametrize("build", [Cover, Cover.from_slots], ids=["bare", "slots"])
    @pytest.mark.parametrize(
        "sizes, matchings, message",
        [
            ([2, 2], None, "matchings must be a mapping"),
            ([2, 2], [((0, 1), ((0, 0),))], "matchings must be a mapping"),
            (iter([2, 2]), {}, "list sizes must be a sequence"),
        ],
        ids=["none", "pair-list", "iterator"],
    )
    def test_malformed_arguments_raise_value_error(self, build, sizes, matchings, message):
        with pytest.raises(ValueError, match=message):
            build(SimpleGraph(2, [(0, 1)]), sizes, matchings)

    def test_rejects_wrong_size_vector(self):
        with pytest.raises(ValueError):
            Cover(C4, [2, 2, 2], {})
        for bad in (-1, 2.5, 2.0, True, "2", None):
            with pytest.raises(ValueError, match="list sizes must be non-negative ints"):
                Cover(C4, [2, 2, 2, bad], {})


class TestValidateCover:
    """Well-formedness is checked by every constructor of Cover."""

    def test_straight_c4_cover_ok(self):
        straight, twisted = make_c4_covers()
        for c in (straight, twisted):
            assert cover_from_json(cover_to_json(c)) == c

    def test_injectivity_violation_names_edge(self):
        with pytest.raises(ValueError, match=r"edge \(0, 1\): pair \(1, 0\) .*color 0 of vertex 1"):
            Cover(C4, [2] * 4, {(0, 1): [(0, 0), (1, 0)]})
        with pytest.raises(ValueError, match=r"edge \(0, 1\): pair \(0, 1\) .*color 0 of vertex 0"):
            Cover(C4, [2] * 4, {(0, 1): [(0, 0), (0, 1)]})
        g = MultiGraph(2, [(0, 1, 2)])
        with pytest.raises(ValueError, match=r"edge \(0, 1\) slot 1: pair \(1, 1\) .*twice"):
            Cover(g, [2, 2], {(0, 1): [[(0, 0)], [(0, 1), (1, 1)]]})

    def test_range_violation_names_pair(self):
        msg = r"edge \(1, 2\): pair \(0, 5\) has no color 5 at vertex 2"
        with pytest.raises(ValueError, match=msg):
            Cover(C4, [2] * 4, {(1, 2): [(0, 5)]})
        with pytest.raises(ValueError, match=msg):  # the key (2, 1) reads its pairs as (j, i)
            Cover(C4, [2] * 4, {(2, 1): [(5, 0)]})
        with pytest.raises(ValueError, match=msg):
            Cover.from_slots(C4, [2] * 4, {(1, 2): [[(0, 5)]]})
        with pytest.raises(ValueError, match=r"edge \(1, 2\): pair \(-1, 0\) has no color -1"):
            Cover(C4, [2] * 4, {(1, 2): [(-1, 0)]})

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: Cover(K2, [2, 2], {(0, 1): [(0, "a")]}),
                "edge (0, 1): matching [(0, 'a')] is not a list of int pairs",
            ),
            (
                lambda: Cover(K2, [2, 2], {(0, 1): [(True, 0)]}),
                "edge (0, 1): matching [(True, 0)] is not a list of int pairs",
            ),
            (
                lambda: Cover(K2, [2, 3], {(0, 1): [(2, 0)]}),
                "edge (0, 1): pair (2, 0) has no color 2 at vertex 0",
            ),
            (
                lambda: Cover(K2, [3, 2], {(0, 1): [(0, 2)]}),
                "edge (0, 1): pair (0, 2) has no color 2 at vertex 1",
            ),
            (
                lambda: Cover(K2, [2, 2], {(0, 1): [(0, 0), (0, 1)]}),
                "edge (0, 1): pair (0, 1) matches color 0 of vertex 0 twice",
            ),
            (
                lambda: Cover(K2, [2, 2], {(0, 1): [(0, 0), (1, 0)]}),
                "edge (0, 1): pair (1, 0) matches color 0 of vertex 1 twice",
            ),
            (  # the key (1, 0) reads its pairs as (j, i)
                lambda: Cover(K2, [2, 2], {(1, 0): [(0, 0), (0, 1)]}),
                "edge (0, 1): pair (1, 0) matches color 0 of vertex 1 twice",
            ),
            (
                lambda: Cover(M2, [2, 2], {(0, 1): [[(0, 0)], [(0, 1), (1, 1)]]}),
                "edge (0, 1) slot 1: pair (1, 1) matches color 1 of vertex 1 twice",
            ),
            (
                lambda: Cover.from_slots(K2, [2, 2], {(0, 1): [[(0, 5)]]}),
                "edge (0, 1): pair (0, 5) has no color 5 at vertex 1",
            ),
            (
                lambda: cover_from_json_text('{"graph6":"A_","k":2,"matchings":{"0-1":[[0,0.0]]}}'),
                "edge (0, 1): matching [[0, 0.0]] is not a list of int pairs",
            ),
            (
                lambda: cover_from_json_text(
                    '{"graph6":"A_","k":2,"matchings":{"0-1":[[false,0]]}}'
                ),
                "edge (0, 1): matching [[False, 0]] is not a list of int pairs",
            ),
            (
                lambda: cover_from_json_text('{"graph6":"A_","k":2,"matchings":{"0-1":[[2,0]]}}'),
                "edge (0, 1): pair (2, 0) has no color 2 at vertex 0",
            ),
            (
                lambda: cover_from_json_text('{"graph6":"A_","k":2,"matchings":{"0-1":[[0,2]]}}'),
                "edge (0, 1): pair (0, 2) has no color 2 at vertex 1",
            ),
            (
                lambda: cover_from_json_text(
                    '{"graph6":"A_","k":2,"matchings":{"0-1":[[1,0],[1,1]]}}'
                ),
                "edge (0, 1): pair (1, 1) matches color 1 of vertex 0 twice",
            ),
            (
                lambda: cover_from_json_text(
                    '{"graph6":"A_","k":2,"matchings":{"0-1":[[0,1],[1,1]]}}'
                ),
                "edge (0, 1): pair (1, 1) matches color 1 of vertex 1 twice",
            ),
            (
                lambda: cover_from_json_text(
                    '{"multigraph":{"n":2,"edges":[[0,1,2]]},"k":2,'
                    '"matchings":{"0-1#1":[[0,0],[0,1]]}}'
                ),
                "edge (0, 1) slot 1: pair (0, 1) matches color 0 of vertex 0 twice",
            ),
            (
                lambda: cover_from_json_text('{"graph6":"A_","k":2,"matchings":{"1-0":[[0,0]]}}'),
                "matching key '1-0' must have u < v",
            ),
            (
                lambda: cover_from_json_text(
                    '{"multigraph":{"n":2,"edges":[[0,1,2]]},"k":2,"matchings":{"0-1#2":[]}}'
                ),
                "matching key '0-1#2': slot out of range",
            ),
            (  # two spellings of one slot, both empty
                lambda: cover_from_json_text(
                    '{"graph6":"A_","k":2,"matchings":{"0-1":[],"0-01":[]}}'
                ),
                "matching key '0-01': slot given twice",
            ),
            (
                lambda: cover_from_json_text(
                    '{"multigraph":{"n":2,"edges":[[0,1,2]]},"k":2,'
                    '"matchings":{"0-1#1":[[0,0]],"0-1#01":[]}}'
                ),
                "matching key '0-1#01': slot given twice",
            ),
            (  # one edge under both orientations
                lambda: Cover(K2, [2, 2], {(0, 1): [(0, 0)], (1, 0): [(1, 1)]}),
                "matching key (1, 0): edge (0, 1) given twice",
            ),
            (
                lambda: Cover.from_slots(K2, [2, 2], {(0, 1): [[(0, 0)]], (1, 0): [[(1, 1)]]}),
                "matching key (1, 0): edge (0, 1) given twice",
            ),
            (  # misspelled, so the matchings it holds would be lost
                lambda: cover_from_json_text('{"k":2,"graph6":"A_","matching":{"0-1":[[0,0]]}}'),
                "unknown cover JSON key 'matching'",
            ),
            (
                lambda: cover_from_json_text('{"k":2,"list_sizes":[2,2],"graph6":"A_"}'),
                "cover JSON has both 'k' and 'list_sizes'",
            ),
            (
                lambda: cover_from_json_text(
                    '{"graph6":"A_","multigraph":{"n":2,"edges":[[0,1,1]]},"k":2}'
                ),
                "cover JSON has both 'graph6' and 'multigraph'",
            ),
            (
                lambda: cover_from_json_text('{"graph6":"A_","k":2,"matchings":{" 0-1":[]}}'),
                "malformed matching key ' 0-1'",
            ),
            (
                lambda: cover_from_json_text('{"graph6":"A_","k":2,"matchings":{"+0-1":[]}}'),
                "malformed matching key '+0-1'",
            ),
            (
                lambda: cover_from_json_text('{"graph6":"A_","k":2,"matchings":{"0_0-1":[]}}'),
                "malformed matching key '0_0-1'",
            ),
            (
                lambda: cover_from_json_text('{"graph6":"A_","k":2,"matchings":{"٠-١":[]}}'),
                "malformed matching key '٠-١'",
            ),
            (
                lambda: cover_from_json_text('{"graph6":"A_","k":2,"matchings":{"0-1#+0":[]}}'),
                "malformed matching key '0-1#+0'",
            ),
            (
                lambda: cover_from_json_text('{"graph6":"A_","k":2,"matchings":{"0-1# 0":[]}}'),
                "malformed matching key '0-1# 0'",
            ),
        ],
        ids=[
            "non-int",
            "bool",
            "u-range",
            "v-range",
            "u-twice",
            "v-twice",
            "flipped-key",
            "slot-twice",
            "from-slots-range",
            "json-float",
            "json-bool",
            "json-u-range",
            "json-v-range",
            "json-u-twice",
            "json-v-twice",
            "json-slot-twice",
            "json-flipped-key",
            "json-slot-range",
            "json-slot-given-twice",
            "json-parallel-slot-given-twice",
            "both-orientations",
            "from-slots-both-orientations",
            "json-unknown-key",
            "json-k-and-list-sizes",
            "json-graph6-and-multigraph",
            "json-key-space",
            "json-key-plus",
            "json-key-underscore",
            "json-key-arabic-indic",
            "json-key-slot-plus",
            "json-key-slot-space",
        ],
    )
    def test_single_fault_messages_are_exact(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_cover_from_lists_always_validates(self):
        rng = Random(20108)
        for _ in range(100):
            g = random_connected_graph(rng, rng.randint(2, 6), extra_p=0.3)
            lists = [rng.sample(range(6), rng.randint(1, 3)) for _ in g.vertices]
            c = cover_from_lists(g, lists)
            assert cover_from_json(cover_to_json(c)) == c


class TestCoverFromLists:
    def test_shared_colors_become_matched_pairs(self):
        g = SimpleGraph(2, [(0, 1)])
        c = cover_from_lists(g, [[1, 2, 3], [2, 3, 4]])
        # sorted lists: indices 0,1,2 name colors in order; 2 and 3 are shared
        assert matched_pairs(c, 0, 1) == {(1, 0), (2, 1)}

    def test_disjoint_lists_give_empty_matching(self):
        g = SimpleGraph(2, [(0, 1)])
        c = cover_from_lists(g, [[1], [2]])
        assert matched_pairs(c, 0, 1) == frozenset()
        assert len(brute_force_colorings(c)) == 1

    def test_repeated_colors_rejected(self):
        g = SimpleGraph(2, [(0, 1)])
        with pytest.raises(ValueError):
            cover_from_lists(g, [[5, 5, 7], [7]])

    def test_wrong_number_of_lists_rejected(self):
        with pytest.raises(ValueError, match="got 1 lists for 2 vertices"):
            cover_from_lists(K2, [[0, 1]])

    def test_identity_lists_make_identity_matchings(self):
        c = identity_cover(K3, 3)
        for u, v in c.edge_pairs():
            assert matched_pairs(c, u, v) == frozenset({(0, 0), (1, 1), (2, 2)})

    def test_faithful_to_list_coloring_counts(self):
        rng = Random(6023)
        for _ in range(100):
            g = random_connected_graph(rng, rng.randint(2, 5), extra_p=0.4)
            lists = [rng.sample(range(5), rng.randint(1, 3)) for _ in g.vertices]
            direct = 0
            for combo in itertools.product(*lists):
                if all(combo[u] != combo[v] for u, v in g.edges()):
                    direct += 1
            assert len(brute_force_colorings(cover_from_lists(g, lists))) == direct

    def test_multigraph_lists_duplicate_across_parallel_edges(self):
        g = MultiGraph(2, [(0, 1, 3)])
        c = cover_from_lists(g, [[0, 1], [1, 2]])
        assert all(slot == ((1, 0),) for slot in c.slot_matchings(0, 1))


class TestPartialColoring:
    def test_picks_and_dom(self):
        p = PartialColoring({2: 1, 0: 0})
        assert p.picks == {0: 0, 2: 1}
        assert p.dom == frozenset({0, 2})
        assert p.get(1) is None
        assert p.pick(2) == 1
        assert 0 in p and 1 not in p
        assert len(p) == 2

    def test_rejects_double_and_negative_picks(self):
        with pytest.raises(ValueError):
            PartialColoring([(0, 1), (0, 2)])
        with pytest.raises(ValueError):
            PartialColoring({0: -1})

    @pytest.mark.parametrize(
        "picks",
        [{0.5: 0}, {0: 0.5}, {"a": 0}, {"a": 0, 1: 0}, {True: 0}, {0: None}, [(0, 1), (1.0, 2)]],
    )
    def test_rejects_non_int_picks(self, picks):
        with pytest.raises(ValueError, match="invalid pick"):
            PartialColoring(picks)

    def test_extended_is_a_new_value(self):
        p = PartialColoring({0: 0})
        q = p.extended({1: 1})
        assert p.picks == {0: 0}
        assert q.picks == {0: 0, 1: 1}

    def test_uncolored_pick_and_recolored_extension_refused(self):
        p = PartialColoring({0: 0})
        with pytest.raises(KeyError, match="vertex 1 not colored"):
            p.pick(1)
        with pytest.raises(ValueError, match="vertex 0 already colored"):
            p.extended({0: 1})

    def test_is_independent(self):
        c = Cover(C4, [2] * 4, {(0, 1): [(0, 0), (1, 1)]})
        assert is_independent(c, PartialColoring({0: 0, 1: 1}))
        assert not is_independent(c, PartialColoring({0: 0, 1: 0}))
        assert is_independent(c, PartialColoring({0: 0, 2: 0}))  # not adjacent
        with pytest.raises(ValueError):
            is_independent(c, PartialColoring({0: 9}))


class TestResidualList:
    def test_empty_coloring_keeps_full_list(self):
        c = identity_cover(K3, 3)
        assert residual_list(c, PartialColoring(), 0) == (0, 1, 2)

    def test_identity_k3_loses_matched_color(self):
        c = identity_cover(K3, 3)
        assert residual_list(c, PartialColoring({0: 0}), 1) == (1, 2)

    def test_twisted_c4_one_pick(self):
        _, twisted = make_c4_covers()
        p = PartialColoring({0: 0})
        assert len(residual_list(twisted, p, 1)) == 1
        assert len(residual_list(twisted, p, 3)) == 1
        assert residual_list(twisted, p, 2) == (0, 1)

    def test_rejects_covered_vertex(self):
        c = identity_cover(K3, 3)
        with pytest.raises(ValueError):
            residual_list(c, PartialColoring({0: 0}), 0)

    def test_rejects_vertex_out_of_range(self):
        # -1 would otherwise read the last vertex's colors
        c = identity_cover(SimpleGraph(3, [(0, 1), (1, 2)]), 3)
        for u in (-1, 3):
            with pytest.raises(ValueError, match=f"vertex {u} out of range for n=3"):
                residual_list(c, PartialColoring(), u)

    def test_multigraph_residual_unions_parallel_slots(self):
        g = MultiGraph(2, [(0, 1, 2)])
        c = Cover(g, [3, 3], {(0, 1): [[(0, 0)], [(0, 1)]]})
        assert residual_list(c, PartialColoring({0: 0}), 1) == (2,)

    def test_counting_lower_bound(self):
        # |residual| >= size(u) - (edges with multiplicity into the colored part)
        rng = Random(7412)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(2, 6), extra_p=0.4)
            k = rng.randint(1, 3)
            c = random_cover(rng, g, [k] * g.n)
            prof = degree_profile(g, k)
            p = PartialColoring()
            for u in range(g.n):
                if rng.random() < 0.5:
                    picks = residual_list(c, p, u)
                    if picks:
                        p = p.extended({u: rng.choice(picks)})
            uncovered = [u for u in range(g.n) if u not in p]
            for u in uncovered:
                # phi = deg within the uncovered part minus epsilon
                deg_in = sum(1 for w in g.neighbors(u) if w not in p.dom)
                phi = deg_in - prof.epsilon[u]
                assert phi == k - sum(1 for w in g.neighbors(u) if w in p.dom)
                assert len(residual_list(c, p, u)) >= phi


class TestReadingAPartialColoring:
    def test_agrees_with_a_pairwise_oracle(self):
        # is_independent, residual_list and a seeded find_coloring, against the
        # matched pairs of each edge and a brute-force scan of full colorings
        rng = Random(24)
        seen = {True: 0, False: 0}
        for trial in range(300):
            if trial % 2:
                g = random_multigraph(rng, rng.randint(2, 5))
                sizes = [rng.randint(0, 3) for _ in range(g.n)]
                slots = {
                    (u, v): [random_partial_injection(rng, sizes[u], sizes[v]) for _ in range(t)]
                    for u, v, t in g.pairs()
                }
                c = Cover.from_slots(g, sizes, slots)
            else:
                g = random_connected_graph(rng, rng.randint(1, 5), extra_p=0.4)
                sizes = [rng.randint(0, 3) for _ in range(g.n)]
                c = random_cover(rng, g, sizes, perfect=rng.random() < 0.5)
            picks = {u: rng.randrange(s) for u, s in enumerate(sizes) if s and rng.random() < 0.6}
            p = PartialColoring(picks)
            joined = {}
            for u, v in c.edge_pairs():
                joined[u, v] = matched_pairs(c, u, v)
                joined[v, u] = matched_pairs(c, v, u)
            independent = all(
                (i, picks[w]) not in joined.get((v, w), ())
                for v, i in picks.items()
                for w in picks
            )
            seen[independent] += 1
            assert is_independent(c, p) == independent
            for u in range(c.n):
                if u not in picks:
                    left = tuple(
                        i
                        for i in range(sizes[u])
                        if all((j, i) not in joined.get((w, u), ()) for w, j in picks.items())
                    )
                    assert residual_list(c, p, u) == left
            if not independent:
                with pytest.raises(ValueError, match="seed is not independent"):
                    find_coloring(c, seed=p)
                continue
            extending = [
                x for x in brute_force_colorings(c) if all(x[v] == i for v, i in picks.items())
            ]
            found = find_coloring(c, seed=p)
            if found is None:
                assert extending == []
            else:
                assert tuple(found.pick(u) for u in range(c.n)) in extending
        assert min(seen.values()) >= 30, seen


class TestPartialInjections:
    def test_counts(self):
        # sum over r of C(k,r)^2 r!
        for k, expect in [(1, 2), (2, 7), (3, 34), (4, 209)]:
            got = partial_injections(k)
            assert len(got) == expect == sum(
                math.comb(k, r) ** 2 * math.factorial(r) for r in range(k + 1)
            )
            assert len(set(got)) == expect

    def test_each_is_an_injection(self):
        for pairs in partial_injections(3):
            assert len({i for i, _ in pairs}) == len(pairs)
            assert len({j for _, j in pairs}) == len(pairs)
            assert all(0 <= i < 3 and 0 <= j < 3 for i, j in pairs)

    def test_deterministic_order(self):
        assert partial_injections(2) == partial_injections(2)


class TestEnumerateCovers:
    def test_c4_perfect_is_the_fig1_pair(self):
        covers = list(enumerate_covers(C4, 2, "perfect"))
        assert len(covers) == 2 == count_covers(C4, 2, "perfect")
        verdicts = sorted(is_colorable(c) for c in covers)
        assert verdicts == [False, True]

    def test_tree_has_one_cover(self):
        path = SimpleGraph(4, [(0, 1), (1, 2), (2, 3)])
        covers = list(enumerate_covers(path, 3, "perfect"))
        assert len(covers) == 1
        assert is_colorable(covers[0])

    def test_tree_builds_no_permutation(self):
        # every edge of a tree is pinned, so the k! permutations are never
        # built: 12! of them would not fit in memory
        path = SimpleGraph(3, [(0, 1), (1, 2)])
        start = time.perf_counter()
        assert len(list(enumerate_covers(path, 12, "perfect"))) == 1
        assert count_covers(path, 12, "perfect") == 1
        assert time.perf_counter() - start < 1.0

    def test_c5_perfect(self):
        c5 = SimpleGraph(5, [(i, (i + 1) % 5) for i in range(5)])
        covers = list(enumerate_covers(c5, 2, "perfect"))
        assert len(covers) == 2
        assert sum(not is_colorable(c) for c in covers) == 1

    def test_perfect_count_formula(self):
        rng = Random(3333)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 5), extra_p=0.3)
            for k in (2, 3):
                expect = math.factorial(k) ** (g.m - g.n + 1)
                assert count_covers(g, k, "perfect") == expect
                covers = list(enumerate_covers(g, k, "perfect"))
                assert len(covers) == expect
                assert len(set(covers)) == expect

    def test_partial_count_formula(self):
        path = SimpleGraph(3, [(0, 1), (1, 2)])
        assert count_covers(path, 2, "partial") == 49
        assert len(list(enumerate_covers(path, 2, "partial"))) == 49
        assert count_covers(C4, 2, "partial") == 7**4

    @pytest.mark.parametrize("regime", ["perfect", "partial"])
    def test_count_covers_checks_its_arguments(self, regime):
        two_k2 = SimpleGraph(4, [(0, 1), (2, 3)])  # m - n + 1 = -1
        with pytest.raises(ValueError, match="connected"):
            count_covers(two_k2, 3, regime)
        with pytest.raises(ValueError, match="at least one vertex"):
            count_covers(SimpleGraph(0), 3, regime)  # enumerate_covers has no tree to pin
        with pytest.raises(ValueError, match="k must be at least 1"):
            count_covers(C4, 0, regime)
        with pytest.raises(ValueError, match="unknown regime"):
            count_covers(C4, 2, regime.upper())

    @pytest.mark.parametrize(
        "func", [count_covers, cover_choices, enumerate_covers, first_critical_cover]
    )
    @pytest.mark.parametrize("regime", ["perfect", "partial"])
    def test_cover_functions_refuse_a_multigraph_and_a_non_int_k(self, func, regime):
        mg = MultiGraph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 1)])
        with pytest.raises(ValueError, match="SimpleGraph base, got MultiGraph"):
            func(mg, 3, regime)
        for k in (True, 2.0):
            with pytest.raises(ValueError, match=f"k must be an int, got {k!r}"):
                func(C4, k, regime)

    def test_count_covers_matches_the_closed_forms(self):
        # (k!)^(m-n+1) perfect covers, k! choices on each edge off a spanning tree;
        # P(k)^m partial ones, P(k) = sum_r C(k,r)^2 r! injections per edge
        graphs = [SimpleGraph(1)] + [from_nx(G) for G in atlas_connected(range(2, 6))]
        for g in graphs:
            for k in (1, 2, 3):
                per_edge = sum(math.comb(k, r) ** 2 * math.factorial(r) for r in range(k + 1))
                assert count_covers(g, k, "perfect") == math.factorial(k) ** (g.m - g.n + 1)
                assert count_covers(g, k, "partial") == per_edge**g.m

    def test_all_enumerated_covers_validate(self):
        # each cover passes the constructor's check, and again from its JSON
        for c in enumerate_covers(C4, 2, "partial"):
            assert cover_from_json(cover_to_json(c)) == c

    def test_spanning_tree_edges_pinned_to_identity(self):
        for c in enumerate_covers(C4, 2, "perfect"):
            identity_edges = sum(
                matched_pairs(c, u, v) == frozenset({(0, 0), (1, 1)}) for u, v in c.edge_pairs()
            )
            assert identity_edges >= 3  # n-1 tree edges out of 4

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            list(enumerate_covers(SimpleGraph(2, []), 2, "perfect"))  # disconnected
        with pytest.raises(ValueError):
            list(enumerate_covers(C4, 2, "other"))


class TestRelabelColors:
    def test_identity_relabel_is_equal(self):
        _, twisted = make_c4_covers()
        assert relabel_colors(twisted, [[0, 1]] * 4) == twisted

    def test_twist_moves_under_gauge_but_stays_uncolorable(self):
        _, twisted = make_c4_covers()
        swapped = relabel_colors(twisted, [[1, 0], [0, 1], [0, 1], [0, 1]])
        assert swapped != twisted
        assert not is_colorable(swapped)

    def test_gauge_preserves_coloring_counts(self):
        rng = Random(1199)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 5), extra_p=0.4)
            k = rng.randint(1, 3)
            c = random_cover(rng, g, [k] * g.n)
            perms = []
            for _ in g.vertices:
                perm = list(range(k))
                rng.shuffle(perm)
                perms.append(perm)
            relabeled = relabel_colors(c, perms)
            assert cover_from_json(cover_to_json(relabeled)) == relabeled
            assert len(brute_force_colorings(relabeled)) == len(brute_force_colorings(c))

    def test_rejects_wrong_length(self):
        c = identity_cover(K3, 3)
        with pytest.raises(ValueError):
            relabel_colors(c, [[0, 1, 2]] * 2)
        with pytest.raises(ValueError):
            relabel_colors(c, [[0, 0, 1]] * 3)
        for bad in ([[0, 1, 2], [0, 1, 2], 5], [[0, 1, 2]] * 2 + [[True, False, 2]], [None] * 3):
            with pytest.raises(ValueError, match="is not a permutation"):
                relabel_colors(c, bad)

    def test_monotonicity_adding_pairs(self):
        # growing a matching can only remove colorings
        rng = Random(2290)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 5), extra_p=0.4)
            k = rng.randint(2, 3)
            c = random_cover(rng, g, [k] * g.n)
            edges = c.edge_pairs()
            u, v = edges[rng.randrange(len(edges))]
            current = matched_pairs(c, u, v)
            free_i = set(range(k)) - {i for i, _ in current}
            free_j = set(range(k)) - {j for _, j in current}
            if not free_i or not free_j:
                continue
            grown = dict.fromkeys(edges)
            for e in edges:
                grown[e] = list(matched_pairs(c, *e))
            grown[(u, v)].append((min(free_i), min(free_j)))
            bigger = Cover(g, c.list_size, grown)
            before = {tuple(t) for t in brute_force_colorings(bigger)}
            after = {tuple(t) for t in brute_force_colorings(c)}
            assert before <= after


class TestJson:
    def test_uniform_simple_round_trip(self):
        _, twisted = make_c4_covers()
        data = cover_to_json(twisted)
        assert data["k"] == 2
        assert "graph6" in data
        assert cover_from_json(data) == twisted
        assert cover_from_json_text(cover_to_json_text(twisted)) == twisted

    def test_empty_matchings_omitted(self):
        c = Cover(C4, [2] * 4, {(0, 1): [(0, 0)]})
        data = cover_to_json(c)
        assert list(data["matchings"]) == ["0-1"]
        assert cover_from_json(data) == c

    def test_non_uniform_sizes(self):
        c = Cover(SimpleGraph(2, [(0, 1)]), [2, 3], {(0, 1): [(0, 2)]})
        data = cover_to_json(c)
        assert "k" not in data
        assert data["list_sizes"] == [2, 3]
        assert cover_from_json(data) == c

    def test_multigraph_round_trip(self):
        g = MultiGraph(3, [(0, 1, 2), (1, 2, 1)])
        c = Cover(g, [2] * 3, {(0, 1): [[(0, 0)], [(1, 0)]], (1, 2): [[(0, 1)]]})
        data = cover_to_json(c)
        assert data["multigraph"]["edges"] == [[0, 1, 2], [1, 2, 1]]
        assert set(data["matchings"]) == {"0-1#0", "0-1#1", "1-2"}
        assert cover_from_json(data) == c

    def test_random_round_trips(self):
        rng = Random(555)
        for _ in range(50):
            g = random_connected_graph(rng, rng.randint(2, 6), extra_p=0.3)
            sizes = [rng.randint(1, 3) for _ in g.vertices]
            c = random_cover(rng, g, sizes)
            assert cover_from_json_text(cover_to_json_text(c)) == c
        for _ in range(20):
            mg = random_multigraph(rng, rng.randint(2, 4))
            if mg.m == 0:
                continue
            matchings = {}
            for u, v, t in mg.pairs():
                matchings[(u, v)] = [random_partial_injection(rng, 2, 2) for _ in range(t)]
            c = Cover(mg, [2] * mg.n, matchings)
            assert cover_from_json_text(cover_to_json_text(c)) == c

    def test_rejects_invalid_documents(self):
        with pytest.raises(ValueError):
            cover_from_json({"k": 2, "graph6": "Cl", "matchings": {"0-2": [[0, 0]]}})
        with pytest.raises(ValueError):
            cover_from_json({"k": 2, "graph6": "Cl", "matchings": {"0-1": [[0, 0], [0, 1]]}})
        with pytest.raises(ValueError):
            cover_from_json({"graph6": "Cl", "matchings": {}})
        with pytest.raises((ValueError, json.JSONDecodeError)):
            cover_from_json_text("not json")
        # deeper than the JSON reader can follow
        with pytest.raises(ValueError, match="invalid cover JSON"):
            cover_from_json_text("[" * 100000 + "]" * 100000)

    @pytest.mark.parametrize(
        "doc",
        [
            {"graph6": 5, "k": 2},
            {"multigraph": {"n": 2}, "k": 2},
            {"multigraph": [2], "k": 2},
            {"multigraph": {"n": "2", "edges": []}, "k": 2},
            {"multigraph": {"n": 2, "edges": [[0, 1]]}, "k": 2},
            {"graph6": "Cl", "list_sizes": 4},
            {"graph6": "Cl", "list_sizes": [2, None, 2, 2]},
            {"graph6": "Cl", "k": 2, "matchings": {"0-1": 5}},
            {"graph6": "Cl", "k": 2, "matchings": {"0-1": [5]}},
            {"graph6": "Cl", "k": 2, "matchings": {"0-1": [[0, "a"]]}},
            {"graph6": "Cl", "k": 2, "matchings": [1]},
            {"graph6": "Cl", "k": 2, "matchings": {(0, 1): [[0, 0]]}},
            [["graph6", "Cl"]],
        ],
    )
    def test_malformed_shapes_raise_value_error(self, doc):
        with pytest.raises(ValueError):
            cover_from_json(doc)

    @pytest.mark.parametrize(
        "text",
        [
            '{"graph6":"A_","k":true}',
            '{"graph6":"A_","k":false}',
            '{"graph6":"A_","list_sizes":[true,2]}',
            '{"graph6":"A_","k":2,"matchings":{"0-1":[[true,0]]}}',
            '{"graph6":"A_","k":2,"matchings":{"0-1":[[0,false]]}}',
            '{"multigraph":{"n":true,"edges":[]},"k":1}',
            '{"multigraph":{"n":3,"edges":[[0,true,2]]},"k":2}',
            '{"multigraph":{"n":3,"edges":[[false,1,2]]},"k":2}',
            '{"multigraph":{"n":2,"edges":[[0,1,true]]},"k":2}',
            '{"multigraph":{"n":2,"edges":[[0,1,1]]},"k":2,"matchings":{"0-1":[[0,true]]}}',
        ],
    )
    def test_json_booleans_are_not_ints(self, text):
        with pytest.raises(ValueError):
            cover_from_json_text(text)

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": True, "edges": []},
            {"n": 3, "edges": [[0, True, 2]]},
            {"n": 2, "edges": [[0, 1, True]]},
        ],
    )
    def test_multigraph_json_booleans_are_not_ints(self, doc):
        with pytest.raises(ValueError):
            multigraph_from_json(doc)

    def test_coloring_serialization(self):
        assert coloring_to_json_text(None) == "null"
        p = PartialColoring({2: 0, 0: 1})
        assert coloring_to_json_text(p) == "[[0,1],[2,0]]"
        assert coloring_from_json_text("[[0, 1], [2, 0]]") == p
        assert coloring_from_json_text("null") is None
        assert coloring_from_json_text("[]") == PartialColoring()

    @pytest.mark.parametrize(
        "text",
        [
            "5",
            "true",
            '"[[0, 1]]"',
            '{"0": 1}',
            "[[0, 1.5]]",
            "[[0.0, 1]]",
            "[[0, true]]",
            '[[0, "1"]]',
            "[[0, null]]",
            "[[0]]",
            "[[0, 1, 2]]",
            "[0, 1]",
            "[[0, 1], 5]",
            "[[0, 1], [0, 0]]",
            "[[-1, 0]]",
            "[[0, 1]",
            "",
            pytest.param("[" * 100000 + "]" * 100000, id="deep-array"),
        ],
    )
    def test_malformed_coloring_raises_value_error(self, text):
        with pytest.raises(ValueError) as info:
            coloring_from_json_text(text)
        assert str(info.value)


class TestFullMatching:
    def test_bijection_is_full(self):
        c = Cover(SimpleGraph(2, [(0, 1)]), [3, 3], {(0, 1): [(0, 1), (1, 2), (2, 0)]})
        assert is_full_matching(c, 0, 1) and is_full_matching(c, 1, 0)

    def test_missing_or_stray_pairs_are_not_full(self):
        g = SimpleGraph(2, [(0, 1)])
        assert not is_full_matching(Cover(g, [2, 2], {(0, 1): [(0, 0)]}), 0, 1)
        assert not is_full_matching(Cover(g, [2, 3], {(0, 1): [(0, 0), (1, 1)]}), 0, 1)
        # each slot is a partial injection, but their union need not be:
        # too few pairs, color 1 of u unmatched, color 1 of v unmatched
        mg = MultiGraph(2, [(0, 1, 2)])
        for second in ([(0, 0)], [(0, 1)], [(1, 0)]):
            c = Cover(mg, [2, 2], {(0, 1): [[(0, 0)], second]})
            assert not is_full_matching(c, 0, 1)

    def test_unequal_lists_read_as_before(self):
        # the union covers both lists with size(u) pairs; this shape was
        # accepted by every copy the predicate replaced
        mg = MultiGraph(2, [(0, 1, 2)])
        c = Cover(mg, [3, 2], {(0, 1): [[(0, 0), (1, 1)], [(2, 1)]]})
        assert is_full_matching(c, 0, 1)
        assert not is_full_matching(c, 1, 0)

    def test_parallel_slots_are_read_as_their_union(self):
        mg = MultiGraph(2, [(0, 1, 2)])
        c = Cover(mg, [2, 2], {(0, 1): [[(0, 1)], [(1, 0)]]})
        assert is_full_matching(c, 0, 1)


class TestCountingAgreement:
    def test_brute_force_and_residual_recursion_agree(self):
        rng = Random(911)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(2, 5), extra_p=0.4)
            k = rng.randint(1, 3)
            c = random_cover(rng, g, [k] * g.n, perfect=rng.random() < 0.5)
            assert len(brute_force_colorings(c)) == residual_count(c)
