"""Exact decision procedures: coloring search, criticality, thresholds, enhancement."""

import dataclasses
import re
from random import Random

import pytest

import dpcolor.covers
import dpcolor.solver
from dpcolor import (
    Cover,
    GDPCertificate,
    MultiGraph,
    PartialColoring,
    SearchStats,
    SimpleGraph,
    block_decomposition,
    certificate_is_valid,
    chi_dp,
    color_degree_cover,
    cover_from_lists,
    degree_profile,
    find_coloring,
    find_enhancing_extension,
    is_colorable,
    is_critical,
    is_enhanced,
    is_independent,
    residual_list,
)
from dpcolor.construct import make_c4_covers, make_ks_example, make_wheel

from helpers import (
    atlas_connected,
    brute_force_colorings,
    brute_force_k_colorable,
    from_nx,
    random_connected_graph,
    random_cover,
    reference_kind_certifies,
)

C4 = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def cycle(n):
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


def identity_cover(g, k):
    return cover_from_lists(g, [list(range(k))] * g.n)


class TestFindColoring:
    def test_fig1_pair(self):
        straight, twisted = make_c4_covers()
        got = find_coloring(straight)
        assert got is not None and got.dom == frozenset(range(4))
        assert is_independent(straight, got)
        assert find_coloring(twisted) is None

    def test_k4_identity(self):
        k4 = SimpleGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert find_coloring(identity_cover(k4, 4)) is not None
        assert find_coloring(identity_cover(k4, 3)) is None

    def test_verdict_matches_brute_force(self):
        rng = Random(4096)
        for _ in range(120):
            g = random_connected_graph(rng, rng.randint(2, 5), extra_p=0.4)
            k = rng.randint(1, 3)
            c = random_cover(rng, g, [k] * g.n, perfect=rng.random() < 0.5)
            hits = brute_force_colorings(c)
            got = find_coloring(c)
            assert (got is not None) == bool(hits)
            if got is not None:
                assert tuple(got.pick(u) for u in range(g.n)) in hits

    def test_target_subset(self):
        _, twisted = make_c4_covers()
        got = find_coloring(twisted, target=[0, 1, 2])
        assert got is not None and got.dom == frozenset({0, 1, 2})
        assert is_independent(twisted, got)

    def test_seed_is_kept(self):
        straight, _ = make_c4_covers()
        seed = PartialColoring({0: 1})
        got = find_coloring(straight, seed=seed)
        assert got is not None and got.pick(0) == 1

    def test_seed_conflicts_are_fatal(self):
        straight, _ = make_c4_covers()
        with pytest.raises(ValueError):
            find_coloring(straight, seed=PartialColoring({0: 0, 1: 0}))
        with pytest.raises(ValueError):
            find_coloring(straight, seed=PartialColoring({7: 0}))
        with pytest.raises(ValueError):
            find_coloring(straight, target=[9])

    def test_unsatisfiable_seed_extension(self):
        # both picks kill the middle list completely
        path = SimpleGraph(3, [(0, 1), (1, 2)])
        c = Cover(path, [1, 2, 1], {(0, 1): [(0, 0)], (1, 2): [(1, 0)]})
        assert find_coloring(c, seed=PartialColoring({0: 0, 2: 0})) is None

    def test_empty_list_blocks_coloring(self):
        g = SimpleGraph(2, [(0, 1)])
        c = Cover(g, [0, 2], {})
        assert find_coloring(c) is None
        assert find_coloring(c, target=[1]) is not None

    def test_stats_counters(self):
        _, twisted = make_c4_covers()
        stats = SearchStats()
        find_coloring(twisted, stats=stats)
        assert stats.nodes_expanded > 0


class TestIsColorable:
    def test_matches_find_coloring(self):
        straight, twisted = make_c4_covers()
        assert is_colorable(straight)
        assert not is_colorable(twisted)


class TestIsCritical:
    def test_k4_at_3(self):
        k4 = SimpleGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert is_critical(identity_cover(k4, 3))
        assert not is_critical(identity_cover(k4, 4))  # colorable

    def test_twisted_c4(self):
        _, twisted = make_c4_covers()
        assert is_critical(twisted)

    def test_ks_example(self):
        g, lists = make_ks_example(3)
        assert is_critical(cover_from_lists(g, lists))

    def test_uncolorable_but_not_critical(self):
        # K4 with a pendant vertex: deleting the pendant leaves K4 uncolorable
        g = SimpleGraph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)])
        c = identity_cover(g, 3)
        assert not is_colorable(c)
        assert not is_critical(c)


class TestChiDp:
    def test_cycles_need_three(self):
        for n in range(3, 9):
            assert chi_dp(cycle(n)) == 3

    def test_wheel_and_clique(self):
        assert chi_dp(make_wheel(4)) == 3
        k4 = SimpleGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert chi_dp(k4) == 4

    def test_tiny_graphs(self):
        assert chi_dp(SimpleGraph(1, [])) == 1
        assert chi_dp(SimpleGraph(2, [(0, 1)])) == 2
        assert chi_dp(SimpleGraph(3, [(0, 1), (1, 2)])) == 2

    def test_disconnected_takes_component_max(self):
        g = SimpleGraph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5), (5, 6)])
        assert chi_dp(g) == 4

    def test_max_k_cap(self):
        k4 = SimpleGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert chi_dp(k4, max_k=4) == 4
        with pytest.raises(ValueError):
            chi_dp(k4, max_k=3)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            chi_dp(SimpleGraph(0, []))

    def test_refuses_a_non_int_max_k(self):
        # 1.5 and "3" raised TypeError, and True was read as 1
        p3 = SimpleGraph(3, [(0, 1), (1, 2)])
        for g, max_k in [(p3, 1.5), (C4, "3"), (C4, True), (C4, 3.0)]:
            with pytest.raises(ValueError, match=re.escape(f"max_k must be an int, got {max_k!r}")):
                chi_dp(g, max_k=max_k)

    def test_multigraph_base_rejected(self):
        mg = MultiGraph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 1)])
        with pytest.raises(ValueError, match="SimpleGraph base, got MultiGraph"):
            chi_dp(mg)

    def test_edge_deletion_monotone(self):
        rng = Random(77)
        for _ in range(12):
            g = random_connected_graph(rng, rng.randint(2, 6), extra_p=0.3)
            base = chi_dp(g)
            edges = list(g.edges())
            drop = edges[rng.randrange(len(edges))]
            g2 = SimpleGraph(g.n, [e for e in edges if e != drop])
            assert chi_dp(g2) <= base

    def test_identity_cover_matches_proper_coloring(self):
        rng = Random(3141)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(2, 8), extra_p=0.25)
            for k in (2, 3):
                assert is_colorable(identity_cover(g, k)) == brute_force_k_colorable(g, k)


class TestIsEnhanced:
    def test_empty_coloring_on_regular_graph(self):
        c = identity_cover(C4, 2)
        prof = degree_profile(C4, 2)
        assert not is_enhanced(c, PartialColoring(), 0, prof)

    def test_star_center_enhanced_by_converging_picks(self):
        star = SimpleGraph(4, [(0, 1), (0, 2), (0, 3)])
        # both colored leaves knock out the same center color
        c = Cover(
            star,
            [3] * 4,
            {
                (0, 1): [(0, 0), (1, 1), (2, 2)],
                (0, 2): [(0, 1), (1, 0), (2, 2)],
                (0, 3): [(0, 0), (1, 1), (2, 2)],
            },
        )
        prof = degree_profile(star, 3)
        p = PartialColoring({1: 0, 2: 1})  # both hit center color 0
        assert is_enhanced(c, p, 0, prof)
        q = PartialColoring({1: 0, 2: 0})  # hits center colors 0 and 1
        assert not is_enhanced(c, q, 0, prof)

    def test_twisted_c4_opposite_vertex(self):
        # one pick never enhances vertex 2; with both neighbors colored it
        # depends on whether the picks converge on one color of vertex 2
        _, twisted = make_c4_covers()
        prof = degree_profile(C4, 2)
        assert not is_enhanced(twisted, PartialColoring({0: 0}), 2, prof)
        assert is_enhanced(twisted, PartialColoring({1: 0, 3: 0}), 2, prof)
        assert not is_enhanced(twisted, PartialColoring({1: 0, 3: 1}), 2, prof)

    def test_contract_violations(self):
        c = identity_cover(C4, 2)
        prof = degree_profile(C4, 2)
        with pytest.raises(ValueError):
            is_enhanced(c, PartialColoring({0: 0}), 0, prof)  # u covered
        star = SimpleGraph(4, [(0, 1), (0, 2), (0, 3)])
        sc = identity_cover(star, 3)
        sprof = degree_profile(star, 3)
        with pytest.raises(ValueError):
            is_enhanced(sc, PartialColoring(), 1, sprof)  # leaf degree 1 != 3

    def test_profile_of_another_k_refused(self):
        with pytest.raises(ValueError, match="cover has k=2 but profile has k=3"):
            is_enhanced(identity_cover(C4, 2), PartialColoring(), 0, degree_profile(C4, 3))


class TestFindEnhancingExtension:
    def star_cover(self):
        star = SimpleGraph(4, [(0, 1), (0, 2), (0, 3)])
        c = Cover(
            star,
            [3] * 4,
            {
                (0, 1): [(0, 0), (1, 1), (2, 2)],
                (0, 2): [(0, 1), (1, 0), (2, 2)],
                (0, 3): [(0, 0), (1, 1), (2, 2)],
            },
        )
        return star, c, degree_profile(star, 3)

    def test_empty_attach_returns_p_iff_enhanced(self):
        star, c, prof = self.star_cover()
        p = PartialColoring({1: 0, 2: 1})
        assert find_enhancing_extension(c, p, 0, [], prof) is p
        q = PartialColoring({1: 0})
        assert find_enhancing_extension(c, q, 0, [], prof) is None

    def test_finds_converging_picks(self):
        star, c, prof = self.star_cover()
        got = find_enhancing_extension(c, PartialColoring(), 0, [1, 2], prof)
        assert got is not None
        assert is_enhanced(c, got, 0, prof)
        assert got.dom == frozenset({1, 2})

    def test_identity_cover_extension_converges_on_shared_color(self):
        # equal leaf picks knock out one shared center color, enhancing it
        star = SimpleGraph(4, [(0, 1), (0, 2), (0, 3)])
        c = identity_cover(star, 3)
        prof = degree_profile(star, 3)
        got = find_enhancing_extension(c, PartialColoring(), 0, [1, 2], prof)
        assert got is not None and got.pick(1) == got.pick(2)

    def test_contract_violations(self):
        star, c, prof = self.star_cover()
        with pytest.raises(ValueError):
            find_enhancing_extension(c, PartialColoring(), 0, [1, 5], prof)
        with pytest.raises(ValueError):
            find_enhancing_extension(c, PartialColoring({1: 0}), 0, [1, 2], prof)
        tri_plus = SimpleGraph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)])
        tc = identity_cover(tri_plus, 3)
        tprof = degree_profile(tri_plus, 3)
        with pytest.raises(ValueError):
            find_enhancing_extension(tc, PartialColoring(), 0, [1, 2], tprof)  # 1-2 edge

    def test_picks_out_of_range_refused(self, monkeypatch):
        # a color past its list, or a vertex past the graph, is no pick: the one
        # reading of a partial coloring refuses it wherever it is read
        star, c, prof = self.star_cover()
        refused = []
        real = dpcolor.covers._colors_left

        def spy(c, p):
            try:
                return real(c, p)
            except ValueError as exc:
                refused.append(str(exc))
                raise

        monkeypatch.setattr(dpcolor.covers, "_colors_left", spy)
        for v, i in ((1, 7), (9, 0)):
            p = PartialColoring({v: i})
            message = f"pick ({v}, {i}) out of range"
            calls = (
                lambda: residual_list(c, p, 0),
                lambda: is_independent(c, p),
                lambda: is_enhanced(c, p, 0, prof),
                lambda: find_enhancing_extension(c, p, 0, [2], prof),
            )
            for call in calls:
                refused.clear()
                with pytest.raises(ValueError) as info:
                    call()
                assert refused == [str(info.value)] == [message]
            with pytest.raises(ValueError, match=re.escape(message)):
                find_coloring(c, seed=p)

    def test_bad_profile_refused_when_no_combination_exists(self):
        # vertex 1 has no color, so there is no pick on {1} to try
        star = SimpleGraph(4, [(0, 1), (0, 2), (0, 3)])
        c = Cover(star, [3, 0, 3, 3], {})
        prof = degree_profile(star, 5)
        with pytest.raises(ValueError, match="vertex 0 does not have degree exactly 5"):
            is_enhanced(c, PartialColoring(), 0, prof)
        with pytest.raises(ValueError, match="vertex 0 does not have degree exactly 5"):
            find_enhancing_extension(c, PartialColoring(), 0, [1], prof)

    def test_attach_vertex_off_the_neighborhood_refused(self):
        star, c, prof = self.star_cover()
        with pytest.raises(ValueError, match="attach vertex 2 is not a neighbor of 1"):
            find_enhancing_extension(c, PartialColoring(), 1, [2], prof)

    def test_guarantee_when_hypotheses_hold(self):
        # empty coloring, independent attach set of size >= 2 inside N(u),
        # u of degree k: phi = k > 0 everywhere and the sum exceeds deg(u)
        rng = Random(90210)
        found = 0
        while found < 50:
            g = random_connected_graph(rng, rng.randint(3, 6), extra_p=0.35)
            us = [u for u in g.vertices if g.degree(u) >= 2]
            if not us:
                continue
            u = us[rng.randrange(len(us))]
            k = g.degree(u)
            nbrs = sorted(g.neighbors(u))
            rng.shuffle(nbrs)
            attach = []
            for w in nbrs:
                if all(not g.has_edge(w, x) for x in attach):
                    attach.append(w)
            if len(attach) < 2:
                continue
            c = random_cover(rng, g, [k] * g.n, perfect=True)
            prof = degree_profile(g, k)
            got = find_enhancing_extension(c, PartialColoring(), u, attach, prof)
            assert got is not None
            assert is_enhanced(c, got, u, prof)
            found += 1

    def test_enhancement_persists_under_extension(self):
        star, c, prof = self.star_cover()
        p = PartialColoring({1: 0, 2: 1})
        assert is_enhanced(c, p, 0, prof)
        for i in range(3):
            p2 = p.extended({3: i})
            if is_independent(c, p2):
                assert is_enhanced(c, p2, 0, prof)


class TestColorDegreeCover:
    def k4(self):
        return SimpleGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])

    def test_twisted_c4_certificate(self):
        _, twisted = make_c4_covers()
        cert = color_degree_cover(C4, twisted)
        assert not cert.colorable
        assert cert.blocks == (("cycle", (0, 1, 2, 3)),)
        assert cert.cut_vertices == ()
        assert cert.degree_tight is True
        assert set(cert.saturated_pairs) == set(C4.edges())
        assert certificate_is_valid(C4, twisted, cert)

    def test_k4_identity_certificate(self):
        g = self.k4()
        c = identity_cover(g, 3)
        cert = color_degree_cover(g, c)
        assert not cert.colorable
        assert cert.blocks == (("clique", (0, 1, 2, 3)),)
        assert certificate_is_valid(g, c, cert)

    def test_slack_vertex_always_colorable(self):
        g = self.k4()
        c = cover_from_lists(g, [[0, 1, 2, 3]] + [[0, 1, 2]] * 3)
        cert = color_degree_cover(g, c)
        assert cert.colorable
        assert cert.coloring is not None
        assert certificate_is_valid(g, c, cert)

    def test_non_gdp_tree_always_colorable(self):
        # one block of K4 minus an edge is neither clique nor cycle
        g = SimpleGraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        rng = Random(515)
        for _ in range(30):
            c = random_cover(rng, g, g.degrees(), perfect=False)
            cert = color_degree_cover(g, c)
            assert cert.colorable
            assert certificate_is_valid(g, c, cert)

    def test_colorable_verdicts_on_random_degree_covers(self):
        rng = Random(626)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 6), extra_p=0.3)
            c = random_cover(rng, g, g.degrees(), perfect=True)
            cert = color_degree_cover(g, c)
            assert certificate_is_valid(g, c, cert)
            if not cert.colorable:
                assert cert.blocks is not None

    def test_tampered_certificates_rejected(self):
        _, twisted = make_c4_covers()
        cert = color_degree_cover(C4, twisted)
        import dataclasses

        bad_kind = dataclasses.replace(cert, blocks=(("clique", (0, 1, 2, 3)),))
        assert not certificate_is_valid(C4, twisted, bad_kind)
        bad_pairs = dataclasses.replace(cert, saturated_pairs=cert.saturated_pairs[:-1])
        assert not certificate_is_valid(C4, twisted, bad_pairs)
        straight, _ = make_c4_covers()
        ok = color_degree_cover(C4, straight)
        bad_coloring = dataclasses.replace(ok, coloring=PartialColoring({0: 0}))
        assert not certificate_is_valid(C4, straight, bad_coloring)

    def bowtie(self):
        # two triangles glued at the cut vertex 0; the center's colors split
        # between the triangles, so no pick at 0 leaves either one colorable
        g = SimpleGraph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
        c = cover_from_lists(g, [[0, 1, 2, 3], [0, 1], [0, 1], [2, 3], [2, 3]])
        cert = color_degree_cover(g, c)
        assert cert.blocks == (("clique", (0, 1, 2)), ("clique", (0, 3, 4)))
        assert cert.cut_vertices == (0,)
        assert cert.saturated_pairs == ((1, 2), (3, 4))
        return g, c, cert

    @pytest.mark.parametrize(
        "change",
        [
            {"blocks": (("cycle", (0, 1, 2)), ("cycle", (0, 3, 4)))},
            {"blocks": (("clique", (0, 3, 4)), ("cycle", (0, 1, 2)))},
            {"saturated_pairs": ((3, 4), (1, 2))},
        ],
        ids=["triangles-as-cycles", "blocks-reordered", "pairs-reordered"],
    )
    def test_equivalent_certificates_accepted(self, change):
        g, c, cert = self.bowtie()
        assert certificate_is_valid(g, c, dataclasses.replace(cert, **change))

    @pytest.mark.parametrize(
        "change",
        [
            {"blocks": (("path", (0, 1, 2)), ("clique", (0, 3, 4)))},
            {"blocks": (("clique", (0, 1, 2)),)},
            # a block named twice, once with a kind it does not have
            {"blocks": (("path", (0, 1, 2)), ("clique", (0, 1, 2)), ("clique", (0, 3, 4)))},
            {"cut_vertices": ()},
            {"cut_vertices": (0, 1)},
            {"degree_tight": False},
            {"degree_tight": None},
            {"degree_tight": 1},
            {"saturated_pairs": ((3, 4),)},
            {"saturated_pairs": ((1, 2), (3, 4), (0, 1))},
        ],
        ids=[
            "unknown-kind",
            "block-missing",
            "block-twice",
            "cut-dropped",
            "cut-added",
            "not-tight",
            "tight-none",
            "tight-truthy",
            "pair-dropped",
            "pair-added",
        ],
    )
    def test_tampered_bowtie_certificates_rejected(self, change):
        g, c, cert = self.bowtie()
        assert certificate_is_valid(g, c, cert)
        assert not certificate_is_valid(g, c, dataclasses.replace(cert, **change))

    def test_k4_certified_as_cycle_rejected(self):
        g = self.k4()
        c = identity_cover(g, 3)
        cert = color_degree_cover(g, c)
        as_cycle = dataclasses.replace(cert, blocks=(("cycle", (0, 1, 2, 3)),))
        assert not certificate_is_valid(g, c, as_cycle)

    def test_block_kinds_against_the_induced_oracle(self):
        # each kind, known or not, at each block of uncolorable degree covers
        rng = Random(1717)
        seen = set()
        for _ in range(300):
            g = random_connected_graph(rng, rng.randint(2, 6), extra_p=0.3)
            c = random_cover(rng, g, g.degrees(), perfect=True)
            cert = color_degree_cover(g, c)
            if cert.colorable:
                continue
            for at, (_, vs) in enumerate(cert.blocks):
                for kind in ("clique", "cycle", None, "path"):
                    blocks = list(cert.blocks)
                    blocks[at] = (kind, vs)
                    want = all(reference_kind_certifies(g, ws, kd) for kd, ws in blocks)
                    changed = dataclasses.replace(cert, blocks=tuple(blocks))
                    assert certificate_is_valid(g, c, changed) == want
                    seen.add((len(vs), kind, want))
        # edges, triangles as either kind, and cycles, each accepted and refused
        assert {(2, "clique", True), (2, "cycle", False), (3, "cycle", True)} <= seen
        assert {(4, "cycle", True), (4, "clique", False), (3, None, False)} <= seen

    def test_every_atlas_block_kind_against_the_induced_oracle(self, monkeypatch):
        # taken as uncolorable with full matchings, so that the block kinds alone
        # decide, blocks of no shape included
        monkeypatch.setattr(dpcolor.solver, "find_coloring", lambda c: None)
        monkeypatch.setattr(dpcolor.solver, "is_full_matching", lambda c, u, v: True)
        for G in atlas_connected(range(1, 8)):
            g = from_nx(G)
            c = Cover(g, g.degrees())
            bd = block_decomposition(g)
            cuts = tuple(sorted(bd.cut_vertices))
            pairs = tuple((u, v) for u, v in g.edges() if u not in cuts and v not in cuts)
            blocks = [("clique", tuple(sorted(b))) for b in bd.blocks]
            for at, (_, vs) in enumerate(blocks):
                for kind in ("clique", "cycle", None, "path"):
                    changed = list(blocks)
                    changed[at] = (kind, vs)
                    cert = GDPCertificate(False, None, tuple(changed), cuts, True, pairs)
                    want = all(reference_kind_certifies(g, ws, kd) for kd, ws in changed)
                    assert certificate_is_valid(g, c, cert) == want

    def test_certificate_rejected_for_wrong_cover(self):
        straight, twisted = make_c4_covers()
        cert = color_degree_cover(C4, twisted)
        assert not certificate_is_valid(C4, straight, cert)

    def test_kept_answer_is_not_trusted(self):
        # a colorable cover whose kept whole-cover answer says uncolorable:
        # the recheck searches a fresh cover, so the forged certificate fails
        straight, twisted = make_c4_covers()
        forged = color_degree_cover(C4, twisted)
        straight._whole = (None,)
        assert find_coloring(straight) is None
        assert not certificate_is_valid(C4, straight, forged)

    def test_preconditions(self):
        g = SimpleGraph(2, [])
        with pytest.raises(ValueError):
            color_degree_cover(g, Cover(g, [1, 1], {}))  # disconnected
        path = SimpleGraph(2, [(0, 1)])
        with pytest.raises(ValueError):
            color_degree_cover(path, Cover(path, [0, 1], {}))  # list below degree
        other = SimpleGraph(2, [(0, 1)])
        with pytest.raises(ValueError):
            color_degree_cover(C4, Cover(other, [1, 1], {}))  # base mismatch

    def test_certificates_refused_past_the_structure_checks(self):
        straight, twisted = make_c4_covers()
        ok = color_degree_cover(C4, straight)
        picks = dict(ok.coloring.items)
        picks[0] = straight.size(0)  # one past the last color of vertex 0
        out_of_range = dataclasses.replace(ok, coloring=PartialColoring(picks))
        assert not certificate_is_valid(C4, straight, out_of_range)
        cert = color_degree_cover(C4, twisted)
        assert not certificate_is_valid(C4, twisted, dataclasses.replace(cert, blocks=None))
        # uncolorable because vertex 0 has no color, not because its list is tight
        k2 = SimpleGraph(2, [(0, 1)])
        short = GDPCertificate(False, None, (("clique", (0, 1)),), (), True, ((0, 1),))
        assert not certificate_is_valid(k2, Cover(k2, [0, 1], {}), short)

    def test_an_uncolorable_verdict_the_structure_contradicts_raises(self, monkeypatch):
        monkeypatch.setattr(dpcolor.solver, "find_coloring", lambda c: None)
        diamond = SimpleGraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        with pytest.raises(RuntimeError, match="neither a clique nor a cycle"):
            color_degree_cover(diamond, Cover(diamond, diamond.degrees()))
        k2 = SimpleGraph(2, [(0, 1)])
        with pytest.raises(RuntimeError, match="strictly larger than a degree"):
            color_degree_cover(k2, Cover(k2, [2, 1]))
        with pytest.raises(RuntimeError, match=r"edge \(0, 1\) .* not a full matching"):
            color_degree_cover(C4, Cover(C4, [2] * 4))
