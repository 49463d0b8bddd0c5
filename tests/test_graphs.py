"""Graph types, graph6 I/O, blocks, cliques, degree bookkeeping."""

import itertools
import pickle
import re
from random import Random

import networkx as nx
import pytest

from dpcolor import (
    Graph6Error,
    MultiGraph,
    SimpleGraph,
    block_decomposition,
    clique_number,
    contains_clique,
    degree_profile,
    emit_graph6,
    is_gdp_forest,
    parse_graph6,
)
from dpcolor.graphs import _first_clique, _graph6_layout, block_shape
from dpcolor.construct import make_dirac, make_wheel

from helpers import (
    atlas_connected,
    atlas_graphs,
    from_nx,
    is_clique,
    is_cycle_block,
    nx_block_kind,
    nx_clique_number,
    nx_graph6,
    random_connected_graph,
    reference_block_shape,
    reference_parse_graph6,
    to_nx,
)


def random_graph(rng: Random, n: int) -> SimpleGraph:
    """A graph on n vertices, each pair an edge with one random probability."""
    p = rng.random()
    return SimpleGraph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


def graph6_outcome(parse, text: str):
    """What a decoder makes of a line: its neighbor masks, or its error text and offset."""
    try:
        return parse(text)._nbr
    except Graph6Error as e:
        return str(e), e.offset


class TestSimpleGraph:
    def test_basic_accounting(self):
        g = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.n == 4
        assert g.m == 4
        assert g.edges() == ((0, 1), (0, 3), (1, 2), (2, 3))
        assert g.degrees() == (2, 2, 2, 2)
        assert g.neighbors(0) == frozenset({1, 3})
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.max_degree == 2 and g.min_degree == 2

    def test_duplicate_edges_collapse(self):
        g = SimpleGraph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_rejects_loops_and_bad_vertices(self):
        with pytest.raises(ValueError):
            SimpleGraph(3, [(0, 0)])
        with pytest.raises(ValueError):
            SimpleGraph(3, [(0, 3)])
        with pytest.raises(ValueError):
            SimpleGraph(-1, [])

    def test_induced_relabels_in_sorted_order(self):
        g = SimpleGraph(5, [(0, 2), (2, 4), (4, 0), (1, 3)])
        sub = g.induced([4, 0, 2])
        # vertex i of the result is the i-th smallest chosen vertex
        assert sub.n == 3
        assert sub.edges() == ((0, 1), (0, 2), (1, 2))

    def test_refuses_non_int_counts_and_endpoints(self):
        with pytest.raises(ValueError, match=r"vertex count must be an int, got 2\.5"):
            SimpleGraph(2.5)
        with pytest.raises(ValueError, match="vertex count must be an int, got True"):
            SimpleGraph(True)
        with pytest.raises(ValueError, match=r"edge \(0, 1\.0\) must have int endpoints"):
            SimpleGraph(3, [(0, 1.0)])
        with pytest.raises(ValueError, match=r"edge \('a', 1\) must have int endpoints"):
            SimpleGraph(3, [("a", 1)])

    def test_induced_refuses_vertices_out_of_range(self):
        # 0.0 raised TypeError from a shift, and a set folded True into 1
        for vs, u in [([0, 3], 3), ([0.0, 1], 0.0), ([1, True], True)]:
            with pytest.raises(ValueError, match=re.escape(f"vertex {u!r} out of range for n=3")):
                SimpleGraph(3, [(0, 1)]).induced(vs)

    def test_components_sorted_by_smallest_vertex(self):
        g = SimpleGraph(6, [(3, 4), (0, 5)])
        comps = g.connected_components()
        assert comps == (frozenset({0, 5}), frozenset({1}), frozenset({2}), frozenset({3, 4}))
        assert not g.is_connected()
        assert SimpleGraph(1, []).is_connected()
        assert SimpleGraph(0, []).is_connected()

    def test_degree_and_neighbors_refuse_vertices_out_of_range(self):
        # -1 would otherwise wrap round to vertex 2, 3 raise IndexError, 1.0
        # raise TypeError from a shift, and True be read as vertex 1
        g = SimpleGraph(3, [(0, 1), (1, 2)])
        for u in (-1, 3, 1.0, True):
            want = re.escape(f"vertex {u!r} out of range for n=3")
            with pytest.raises(ValueError, match=want):
                g.degree(u)
            with pytest.raises(ValueError, match=want):
                g.neighbors(u)

    def test_equality_and_hash(self):
        a = SimpleGraph(3, [(0, 1), (1, 2)])
        b = SimpleGraph(3, [(1, 2), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != SimpleGraph(3, [(0, 1)])


class TestMultiGraph:
    def test_multiplicity_accounting(self):
        g = MultiGraph(3, [(0, 1, 2), (1, 2, 3)])
        assert g.m == 5
        assert g.multiplicity(0, 1) == 2 == g.multiplicity(1, 0)
        assert g.multiplicity(0, 2) == 0
        assert g.degree(1) == 5
        assert g.degrees() == (2, 5, 3)
        assert g.pairs() == ((0, 1, 2), (1, 2, 3))

    def test_parallel_entries_accumulate(self):
        g = MultiGraph(2, [(0, 1, 1), (1, 0, 2)])
        assert g.multiplicity(0, 1) == 3

    def test_simple_projection(self):
        g = MultiGraph(3, [(0, 1, 2), (1, 2, 1)])
        assert g.simple() == SimpleGraph(3, [(0, 1), (1, 2)])

    def test_rejects_loops_and_bad_multiplicity(self):
        with pytest.raises(ValueError):
            MultiGraph(2, [(1, 1, 1)])
        with pytest.raises(ValueError):
            MultiGraph(2, [(0, 1, -1)])

    def test_rejects_vertices_out_of_range(self):
        with pytest.raises(ValueError, match="vertex count must be at least 0, got -1"):
            MultiGraph(-1)
        with pytest.raises(ValueError, match=r"edge \(0, 2\) out of range for n=2"):
            MultiGraph(2, [(0, 2, 1)])
        # 1.0 and True were read as vertex 1
        for u in (2, 1.0, True):
            with pytest.raises(ValueError, match=re.escape(f"vertex {u!r} out of range for n=2")):
                MultiGraph(2, [(0, 1, 1)]).degree(u)

    def test_refuses_non_int_counts_endpoints_and_multiplicities(self):
        with pytest.raises(ValueError, match=r"vertex count must be an int, got 3\.0"):
            MultiGraph(3.0)
        with pytest.raises(ValueError, match=r"edge \(0, 1, 1\.5\) must have int entries"):
            MultiGraph(3, [(0, 1, 1.5)])
        with pytest.raises(ValueError, match=r"edge \(0, 1, True\) must have int entries"):
            MultiGraph(3, [(0, 1, True)])
        with pytest.raises(ValueError, match=r"edge \(0\.0, 1, 1\) must have int entries"):
            MultiGraph(3, [(0.0, 1, 1)])

    def test_connectivity_ignores_multiplicity(self):
        assert MultiGraph(2, [(0, 1, 5)]).is_connected()
        assert not MultiGraph(3, [(0, 1, 5)]).is_connected()


class TestMultigraphProtocol:
    """A simple graph answers the multigraph calls as its all-ones twin."""

    def test_matches_all_ones_twin(self):
        rng = Random(2718)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(1, 7), extra_p=0.3)
            twin = MultiGraph(g.n, [(u, v, 1) for u, v in g.edges()])
            assert g.pairs() == twin.pairs()
            assert g.degrees() == twin.degrees()
            assert g.m == twin.m
            for u, v in itertools.product(g.vertices, repeat=2):
                assert g.multiplicity(u, v) == twin.multiplicity(u, v)
            assert g.simple() is g
            assert twin.simple() == g

    def test_multiplicity_range_checked(self):
        g = SimpleGraph(3, [(0, 1)])
        twin = MultiGraph(3, [(0, 1, 1)])
        # 1.0 raised TypeError from a shift on the simple graph and was read as
        # vertex 1 on the multigraph, as True was on both
        for h in (g, twin):
            for u, v in [(0, 3), (-1, 0), (0, 1.0), (True, 0)]:
                with pytest.raises(ValueError, match="out of range for n=3"):
                    h.multiplicity(u, v)


class TestGraph6:
    def test_k4(self):
        g = parse_graph6("C~")
        assert g.n == 4 and g.m == 6
        assert emit_graph6(g) == "C~"

    def test_single_vertex(self):
        g = parse_graph6("@")
        assert g.n == 1 and g.m == 0
        assert emit_graph6(SimpleGraph(1, [])) == "@"

    def test_empty_graph(self):
        assert parse_graph6("?").n == 0

    def test_c7_round_trip(self):
        c7 = SimpleGraph(7, [(i, (i + 1) % 7) for i in range(7)])
        assert parse_graph6(emit_graph6(c7)) == c7

    def test_header_prefix_tolerated(self):
        assert parse_graph6(">>graph6<<C~") == parse_graph6("C~")
        assert parse_graph6("  C~\n") == parse_graph6("C~")
        assert parse_graph6(" \tC~\r\n\x0b\x0c") == parse_graph6("C~")  # all of string.whitespace

    def test_against_networkx_atlas(self):
        for G in atlas_connected(range(1, 8))[::7]:
            s = nx_graph6(G)
            assert parse_graph6(s) == from_nx(G)
            assert emit_graph6(from_nx(G)) == s

    def test_random_round_trips_match_reference_encoder(self):
        # up to the short form's n = 62; the parse builds its masks
        # unchecked, so its counts must match the validating constructor
        rng = Random(60341)
        for n in [rng.randint(1, 10) for _ in range(100)] + list(range(11, 63)):
            g = random_connected_graph(rng, n, extra_p=rng.random())
            s = emit_graph6(g)
            assert s == nx_graph6(to_nx(g))
            parsed = parse_graph6(s)
            assert parsed == g and hash(parsed) == hash(g)
            assert (parsed.n, parsed.m) == (g.n, g.m)
            assert parsed.degrees() == g.degrees()
            assert parsed.edges() == g.edges()

    def test_error_offsets(self):
        with pytest.raises(Graph6Error) as e:
            parse_graph6("")
        assert e.value.offset == 0
        with pytest.raises(Graph6Error) as e:
            parse_graph6("~??")  # long form unsupported
        assert e.value.offset == 0
        with pytest.raises(Graph6Error) as e:
            parse_graph6("\x1f")  # header below printable range
        assert e.value.offset == 0
        with pytest.raises(Graph6Error) as e:
            parse_graph6("C~~")  # payload too long: one byte needed
        assert e.value.offset == 2
        with pytest.raises(Graph6Error) as e:
            parse_graph6("C")  # payload missing
        assert e.value.offset == 1
        with pytest.raises(Graph6Error) as e:
            parse_graph6("C>")  # bad payload byte (below 63)
        assert e.value.offset == 1
        with pytest.raises(Graph6Error) as e:
            parse_graph6("E?~\x7f")  # bad payload byte after good ones
        assert e.value.offset == 3
        assert str(e.value) == "invalid payload byte 127 (byte offset 3)"
        with pytest.raises(Graph6Error) as e:
            parse_graph6("C\x1f")  # a control byte that is not whitespace is payload
        assert str(e.value) == "invalid payload byte 31 (byte offset 1)"
        with pytest.raises(Graph6Error) as e:
            parse_graph6("C~\x1f")  # a byte past the full payload of K4
        assert str(e.value) == "payload too long: need 1 bytes, got 2 (byte offset 2)"
        with pytest.raises(Graph6Error) as e:
            parse_graph6("\x85C~")
        assert str(e.value) == "invalid header byte 133 (byte offset 0)"

    def test_padding_must_be_zero(self):
        # K2 is "A_"; "A" + chr(63 + 0b011111) sets padding bits
        with pytest.raises(Graph6Error) as e:
            parse_graph6("A" + chr(63 + 0b011111))
        assert e.value.offset == 1
        assert str(e.value) == "nonzero padding bits (byte offset 1)"
        # n = 5 needs 10 bits: the second payload byte carries two padding bits
        with pytest.raises(Graph6Error) as e:
            parse_graph6("D~" + chr(63 + 0b000001))
        assert e.value.offset == 2
        # a bad byte is reported before bad padding
        with pytest.raises(Graph6Error) as e:
            parse_graph6("D>" + chr(63 + 0b000001))
        assert e.value.offset == 1

    def test_matches_the_bit_by_bit_decoder(self):
        # every n of the short form, the edgeless and the complete graph
        # too, read twice so the second read finds every byte in its table;
        # the rows take 8-, 16-, 32- or 64-bit words, so n = 8, 16 and 32
        # fill a width and n = 9, 17 and 33 start the next
        rng = Random(8190)
        for n in range(63):
            graphs = [SimpleGraph(n), SimpleGraph(n, itertools.combinations(range(n), 2))]
            graphs += [random_graph(rng, n) for _ in range(6)]
            for g in graphs + graphs:
                s = emit_graph6(g)
                parsed = parse_graph6(s)
                assert parsed == reference_parse_graph6(s) == g
                assert hash(parsed) == hash(g)
                assert (parsed.m, parsed.degrees(), parsed.edges()) == (g.m, g.degrees(), g.edges())
                assert all(type(x) is int for x in parsed._nbr)
                kept = pickle.loads(pickle.dumps(parsed))
                assert kept == parsed and (kept.m, kept.edges()) == (g.m, g.edges())

    def test_every_error_path_matches_the_bit_by_bit_decoder(self):
        # a bad byte at each position, nonzero padding in the last byte,
        # each line read twice; a valid line of the same n read after a
        # refusal still decodes, and the refused byte is never entered
        rng = Random(6202)
        bad_bytes = ["\x00", " ", ">", "\x7f", "\x85", "\u0100"]
        for n in list(range(2, 16)) + [31, 62]:
            good = {}
            for _ in range(3):
                g = random_graph(rng, n)
                good[emit_graph6(g)] = g
            nbytes = len(next(iter(good))) - 1
            lines = []
            for pos in range(1, nbytes + 1):
                # every bad byte at each position of the small n, one at the large
                for bad in bad_bytes if n < 16 else [bad_bytes[pos % len(bad_bytes)]]:
                    if bad == " " and pos == nbytes:
                        continue  # trailing whitespace is trimmed, not payload
                    base = rng.choice(list(good))
                    lines.append(base[:pos] + bad + base[pos + 1 :])
            pad = 6 * nbytes - n * (n - 1) // 2
            for bits in range(1, 1 << pad):
                base = rng.choice(list(good))
                last = chr((ord(base[-1]) - 63 | bits) + 63)
                lines.append(base[:-1] + last)
            for line in lines + lines:
                refused = graph6_outcome(parse_graph6, line)
                assert refused == graph6_outcome(reference_parse_graph6, line)
                assert isinstance(refused[0], str), line
                offset = refused[1]
                assert line[offset] not in _graph6_layout(n)[offset - 1]
                s = rng.choice(list(good))
                assert parse_graph6(s) == good[s]

    def test_emit_rejects_oversized(self):
        with pytest.raises(ValueError):
            emit_graph6(SimpleGraph(63, []))


class TestBlockDecomposition:
    def test_cycle_is_one_block(self):
        g = SimpleGraph(5, [(i, (i + 1) % 5) for i in range(5)])
        bd = block_decomposition(g)
        assert len(bd.blocks) == 1
        assert set(bd.blocks[0]) == set(range(5))
        assert bd.cut_vertices == frozenset()

    def test_two_triangles_sharing_a_vertex(self):
        g = SimpleGraph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
        bd = block_decomposition(g)
        assert sorted(sorted(b) for b in bd.blocks) == [[0, 1, 2], [0, 3, 4]]
        assert bd.cut_vertices == frozenset({0})

    def test_path_is_bridges(self):
        g = SimpleGraph(4, [(0, 1), (1, 2), (2, 3)])
        bd = block_decomposition(g)
        assert sorted(sorted(b) for b in bd.blocks) == [[0, 1], [1, 2], [2, 3]]
        assert bd.cut_vertices == frozenset({1, 2})

    def test_isolated_vertices_are_singleton_blocks(self):
        g = SimpleGraph(3, [(0, 1)])
        bd = block_decomposition(g)
        assert sorted(sorted(b) for b in bd.blocks) == [[0, 1], [2]]
        assert bd.cut_vertices == frozenset()

    def test_every_edge_in_exactly_one_block(self):
        rng = Random(8120)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 9), extra_p=0.25)
            bd = block_decomposition(g)
            for u, v in g.edges():
                owners = [b for b in bd.blocks if u in b and v in b]
                assert len(owners) == 1

    def test_against_networkx(self):
        for G in atlas_connected(range(1, 8))[::5]:
            g = from_nx(G)
            bd = block_decomposition(g)
            nx_blocks = {frozenset(b) for b in nx.biconnected_components(G)}
            if g.n == 1:
                nx_blocks = {frozenset({0})}
            assert {frozenset(b) for b in bd.blocks} == nx_blocks
            assert bd.cut_vertices == frozenset(nx.articulation_points(G))

    def test_cut_vertex_removal_disconnects(self):
        rng = Random(5571)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(3, 9), extra_p=0.2)
            bd = block_decomposition(g)
            before = len(g.connected_components())
            for cut in bd.cut_vertices:
                rest = [v for v in g.vertices if v != cut]
                after = len(g.induced(rest).connected_components())
                assert after > before

    def test_against_networkx_with_components_and_isolated_vertices(self):
        rng = Random(2031)
        for _ in range(60):
            n = rng.randint(1, 14)
            order = list(range(n))
            rng.shuffle(order)
            # split the shuffled vertices into parts and draw edges inside each
            edges = []
            start = 0
            while start < n:
                part = order[start : start + rng.randint(1, 6)]
                p = rng.random()
                edges += [e for e in itertools.combinations(part, 2) if rng.random() < p]
                start += len(part)
            g = SimpleGraph(n, edges)
            G = to_nx(g)
            bd = block_decomposition(g)
            nx_blocks = {frozenset(b) for b in nx.biconnected_components(G)}
            nx_blocks |= {frozenset((v,)) for v in g.vertices if g.degree(v) == 0}
            assert set(bd.blocks) == nx_blocks and len(bd.blocks) == len(nx_blocks)
            assert list(bd.blocks) == sorted(bd.blocks, key=lambda b: tuple(sorted(b)))
            assert bd.cut_vertices == frozenset(nx.articulation_points(G))

    def test_long_path_and_cycle_need_no_recursion(self):
        n = 3000
        path = block_decomposition(SimpleGraph(n, [(i, i + 1) for i in range(n - 1)]))
        assert path.blocks == tuple(frozenset((i, i + 1)) for i in range(n - 1))
        assert path.cut_vertices == frozenset(range(1, n - 1))
        cycle = SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])
        whole = block_decomposition(cycle)
        assert whole.blocks == (frozenset(range(n)),)
        assert whole.cut_vertices == frozenset()
        assert is_gdp_forest(cycle)


class TestBlockShape:
    def test_small_shapes(self):
        assert block_shape(SimpleGraph(1)) == "clique"
        assert block_shape(SimpleGraph(2, [(0, 1)])) == "clique"
        triangle = SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])
        assert is_clique(triangle) and is_cycle_block(triangle)
        assert block_shape(triangle) == "clique"
        c4 = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert block_shape(c4) == "cycle" and not is_clique(c4)
        diamond = SimpleGraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        assert block_shape(diamond) is None

    def test_against_networkx(self):
        for G in atlas_connected(range(1, 7)):
            g = from_nx(G)
            for block in block_decomposition(g).blocks:
                assert block_shape(g.induced(block)) == nx_block_kind(G, block)

    def test_a_block_of_g_against_the_induced_shape(self):
        # blocks, components, the whole graph and random vertex sets of every atlas graph
        rng = Random(1616)
        for g in atlas_graphs():
            sets = [list(g.vertices), *block_decomposition(g).blocks, *g.connected_components()]
            sets += [[v for v in g.vertices if rng.random() < 0.5] for _ in range(4)]
            for vs in sets:
                assert block_shape(g, vs) == reference_block_shape(g, vs)
            assert block_shape(g) == reference_block_shape(g, g.vertices)


class TestCliques:
    def test_empty_graph_has_clique_number_0(self):
        assert clique_number(SimpleGraph(0)) == 0

    def test_k4_contains_k4(self):
        assert contains_clique(parse_graph6("C~"), 4)

    def test_c5_has_no_triangle(self):
        c5 = SimpleGraph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert not contains_clique(c5, 3)
        assert contains_clique(c5, 2)

    def test_dirac_graph_is_k4_free(self):
        assert not contains_clique(make_dirac(3, 1), 4)

    def test_trivial_thresholds(self):
        g = SimpleGraph(3, [])
        assert contains_clique(g, 1)
        assert not contains_clique(g, 2)
        assert not contains_clique(SimpleGraph(0, []), 1)
        with pytest.raises(ValueError):
            contains_clique(g, 0)

    def test_refuses_a_non_int_size(self):
        # True was read as 1, so every nonempty graph held a "True-clique"
        c4 = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        for t in (True, 2.0, 2.5):
            want = f"clique size must be an int, got {t!r}"
            with pytest.raises(ValueError, match=re.escape(want)):
                contains_clique(c4, t)

    def test_against_exhaustive_subsets(self):
        rng = Random(90125)
        for _ in range(30):
            n = rng.randint(1, 8)
            g = random_connected_graph(rng, n, extra_p=0.4)
            for t in range(1, n + 1):
                expect = any(
                    all(g.has_edge(a, b) for a, b in itertools.combinations(sub, 2))
                    for sub in itertools.combinations(range(n), t)
                )
                assert contains_clique(g, t) == expect

    def test_first_clique_against_combinations(self):
        # the first t-clique in combinations order, for every t up to n + 1
        rng = Random(6113)
        for _ in range(200):
            n = rng.randint(0, 10)
            p = rng.random()
            g = SimpleGraph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
            for t in range(1, n + 2):
                first = next(
                    (
                        sub
                        for sub in itertools.combinations(range(n), t)
                        if all(g.has_edge(a, b) for a, b in itertools.combinations(sub, 2))
                    ),
                    (),
                )
                assert _first_clique(g._nbr, t) == sum(1 << v for v in first)

    def test_clique_deeper_than_the_recursion_limit(self):
        # the search keeps its own stack, so a clique of 1,100 vertices is
        # found; no vertex has 1,100 neighbors, so none of 1,101 is tried
        n = 1100
        g = SimpleGraph(n, itertools.combinations(range(n), 2))
        assert contains_clique(g, n)
        assert not contains_clique(g, n + 1)

    def test_clique_number_against_networkx(self):
        rng = Random(417)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(1, 9), extra_p=0.5)
            assert clique_number(g) == nx_clique_number(to_nx(g))


class TestDegreeProfile:
    def test_k4_at_3(self):
        prof = degree_profile(parse_graph6("C~"), 3)
        assert prof.k == 3
        assert prof.epsilon == (0, 0, 0, 0)
        assert prof.D == frozenset(range(4))
        assert prof.epsilon_total == 0

    def test_dirac_equality_slack(self):
        g = make_dirac(3, 1)
        prof = degree_profile(g, 3)
        assert prof.epsilon_total == 2 * g.m - 3 * g.n == 1

    def test_wheel(self):
        prof = degree_profile(make_wheel(4), 3)
        assert prof.epsilon_total == 1
        assert prof.D == frozenset(range(4))  # hub is vertex 4, degree 4

    def test_handshake_identity(self):
        rng = Random(3178)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(1, 9), extra_p=0.3)
            for k in (1, 2, 3, 5):
                prof = degree_profile(g, k)
                assert sum(prof.epsilon) == prof.epsilon_total == 2 * g.m - k * g.n
                assert prof.D == frozenset(u for u in g.vertices if g.degree(u) == k)

    def test_multigraph_degrees_count_multiplicity(self):
        g = MultiGraph(3, [(0, 1, 2), (1, 2, 1)])
        prof = degree_profile(g, 3)
        assert prof.epsilon == (-1, 0, -2)
        assert prof.D == frozenset({1})

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            degree_profile(SimpleGraph(2, [(0, 1)]), 0)

    def test_refuses_a_non_int_k(self):
        # a float k gave float epsilons, and a string raised TypeError
        c4 = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        for k in (3.5, 2.0, True, "3"):
            with pytest.raises(ValueError, match=re.escape(f"k must be an int, got {k!r}")):
                degree_profile(c4, k)
