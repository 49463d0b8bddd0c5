"""The box search against the orbit walk, the reference solver and brute force.

``first_critical_cover`` and ``chi_dp`` split the covers of a graph into
boxes, each decided by one search on the pairs its domains share.  The
boxes must partition the covers, every coloring must color each cover
it is credited with, and every verdict must agree with an independent
route over the public covers of ``enumerate_covers``.  The orbit walk
of ``helpers.cover_colorings``, which decides one cover per orbit of the
global relabelings, is the oracle for ``chi_dp``; its own checks against
brute force, with orbits found by relabeling every cover, stay here.
"""

from collections import Counter
from itertools import permutations, product
from math import prod
from pathlib import Path
from random import Random

import pytest

import dpcolor.solver
from dpcolor import (
    Cover,
    PartialColoring,
    SearchStats,
    SimpleGraph,
    candidate_filter,
    chi_dp,
    count_covers,
    cover_choices,
    emit_graph6,
    enumerate_covers,
    first_critical_cover,
    find_coloring,
    is_colorable,
    is_critical,
    is_independent,
    parse_graph6,
    relabel_colors,
)
from dpcolor.construct import make_c4_covers, make_dirac
from dpcolor.covers import _bits
from dpcolor.solver import _BoxSearch

from helpers import (
    atlas_connected,
    box_tables_from_scratch,
    brute_force_colorings,
    connected_cubic_8,
    cover_colorings,
    first_brute_force_coloring,
    from_nx,
    orbit_walk,
    random_connected_graph,
    random_cover,
    walk_chi_dp,
)

ROOT = Path(__file__).resolve().parents[1]
C4 = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def criterion06_candidate(n: int) -> SimpleGraph:
    pool = connected_cubic_8() if n == 8 else [from_nx(G) for G in atlas_connected([n])]
    return next(g for g in pool if candidate_filter(g, 3) is None)


def relabelings(k: int, regime: str) -> list[tuple[int, ...]]:
    """The global relabelings the walk reduces by: all of S_k when a tree is pinned."""
    return list(permutations(range(k))) if regime == "perfect" else [tuple(range(k))]


def rank(choices, digits) -> int:
    """Position of a choice-index tuple in enumerate_covers order (product order)."""
    out = 0
    for (_, options), d in zip(choices, digits):
        out = out * len(options) + d
    return out


def brute_force_orbits(g: SimpleGraph, k: int, regime: str) -> list[tuple[int, tuple[int, ...]]]:
    """Per cover of enumerate_covers, its orbit's least member and a relabeling onto it.

    Every relabeling sigma is applied to every edge's matching, as the
    pairs (sigma(i), sigma(j)), and the lexicographically least image
    wins; returns its position and that sigma.
    """
    choices = cover_choices(g, k, regime)
    where = [{m: d for d, m in enumerate(options)} for _, options in choices]
    sigmas = relabelings(k, regime)
    image = [
        [[where[p][tuple(sorted((s[i], s[j]) for i, j in m))] for m in options] for s in sigmas]
        for p, (_, options) in enumerate(choices)
    ]
    out = []
    for digits in product(*(range(len(options)) for _, options in choices)):
        least, s = min(
            (tuple(image[p][t][d] for p, d in enumerate(digits)), t) for t in range(len(sigmas))
        )
        out.append((rank(choices, least), sigmas[s]))
    return out


def check_walk(g: SimpleGraph, k: int, regime: str, oracle) -> int:
    """Every cover gets its orbit representative's verdict, and the oracle agrees.

    The walk yields one (coloring, orbit size) per representative, in
    cover order; ``brute_force_orbits`` names every cover's
    representative.  Each cover of ``enumerate_covers`` is checked
    against the oracle, and where its representative is colorable, that
    coloring carried back by the relabeling must be independent in it.
    """
    covers = list(enumerate_covers(g, k, regime))
    orbits = brute_force_orbits(g, k, regime)
    reps = sorted({r for r, _ in orbits})
    walked = list(cover_colorings(g, k, regime))
    assert len(walked) == len(reps)
    members = Counter(r for r, _ in orbits)
    verdict = {}
    for r, (coloring, size) in zip(reps, walked):
        assert size == members[r]
        verdict[r] = coloring
    for cover, (r, sigma) in zip(covers, orbits):
        coloring = verdict[r]
        assert (coloring is not None) == oracle(cover)
        if coloring is not None:
            back = PartialColoring((u, sigma.index(i)) for u, i in enumerate(coloring))
            assert is_independent(cover, back)
    assert len(covers) == count_covers(g, k, regime) == sum(members.values())
    return len(covers)


def burnside(k: int, r: int) -> int:
    """Orbits of S_k acting on r-tuples of permutations by simultaneous conjugation.

    Burnside: the mean over sigma of the tuples it fixes, |C(sigma)|^r,
    with each centralizer C(sigma) counted by brute force.
    """
    sigmas = list(permutations(range(k)))

    def compose(a, b):
        return tuple(a[b[i]] for i in range(k))

    fixed = sum(sum(compose(s, p) == compose(p, s) for p in sigmas) ** r for s in sigmas)
    assert fixed % len(sigmas) == 0
    return fixed // len(sigmas)


def cycle_rank(g: SimpleGraph) -> int:
    return g.m - g.n + 1


# a tree, C4, the triangle, K4 minus an edge, K4 and the 4-wheel: cycle ranks 0 to 4
ORBIT_GRAPHS = [
    SimpleGraph(4, [(0, 1), (1, 2), (1, 3)]),
    C4,
    SimpleGraph(3, [(0, 1), (1, 2), (0, 2)]),
    SimpleGraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    SimpleGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    SimpleGraph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4)]),
]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("g", ORBIT_GRAPHS, ids=lambda g: f"r{cycle_rank(g)}")
def test_walk_decides_the_least_member_of_each_orbit(g, k):
    # relabel every public cover by every global sigma; the walk's covers
    # must be exactly the orbits' least members, with their orbit sizes
    covers = list(enumerate_covers(g, k, "perfect"))
    index = {c: i for i, c in enumerate(covers)}
    orbit_of = [
        frozenset(index[relabel_colors(c, [s] * g.n)] for s in permutations(range(k)))
        for c in covers
    ]
    least = {min(orbit): len(orbit) for orbit in orbit_of}
    choices = cover_choices(g, k, "perfect")
    walked = orbit_walk(g.n, k, choices, "perfect")
    got = {rank(choices, digits): size for _, _, digits, size in walked}
    assert got == least
    assert list(got) == sorted(got)  # in enumerate_covers order


@pytest.mark.parametrize(
    "g6, k",
    [("Dl{", 3), ("G}GOW[", 3), ("C~", 4), ("EtTg", 2), ("Dl{", 4)],
)
def test_orbit_counts_follow_burnside(g6, k):
    g = parse_graph6(g6)
    sizes = [size for _, size in cover_colorings(g, k, "perfect")]
    assert len(sizes) == burnside(k, cycle_rank(g))
    assert sum(sizes) == count_covers(g, k, "perfect")


def test_burnside_counts_for_k3():
    # 251 orbits instead of 6^4 = 1,296 covers, 1,393 instead of 7,776
    assert (burnside(3, 4), burnside(3, 5)) == (251, 1393)
    assert burnside(2, 5) == 2**5  # S_2 is abelian: every orbit is one cover


def test_partial_regime_is_not_reduced():
    for g in small_graphs(6100):
        sizes = [size for _, size in cover_colorings(g, 2, "partial")]
        assert sizes == [1] * count_covers(g, 2, "partial")


# picks of every vertex (or None) and nodes expanded, for the first covers
# of the generator below, as the fewest-colors-first rule with ties to the
# lowest index and colors tried in ascending order gives them
PINNED = [
    ([0, 0, 0, 0, 1, 0, 0], 7),
    (None, 4),
    (None, 4),
    ([0, 2, 2, 2, 2, 2], 11),
    ([0, 1, 1, 1, 0, 0], 6),
    ([0, 1, 1, 0, 1, 1, 0], 7),
    ([0, 0, 1, 0], 4),
    ([0, 0, 0, 0, 1, 1], 6),
    ([0, 1, 0, 0, 0], 5),
    (None, 7),
    ([0, 0, 2, 1, 0, 1, 2], 9),
    (None, 5),
]


def test_find_coloring_keeps_the_branching_rule():
    rng = Random(4242)
    for picks, nodes in PINNED:
        g = random_connected_graph(rng, rng.randint(4, 7), extra_p=0.5)
        k = rng.randint(2, 3)
        c = random_cover(rng, g, [k] * g.n, perfect=rng.random() < 0.5)
        stats = SearchStats()
        p = find_coloring(c, stats=stats)
        assert (None if p is None else [i for _, i in p.items], stats.nodes_expanded) == (
            picks,
            nodes,
        )


def test_first_brute_force_coloring_is_the_scans_first_hit():
    rng = Random(2718)
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(1, 6), extra_p=0.4)
        c = random_cover(rng, g, [rng.randint(0, 3) for _ in g.vertices])
        hits = brute_force_colorings(c)
        assert first_brute_force_coloring(c) == (hits[0] if hits else None)


def test_walk_matches_brute_force_on_criterion06_candidate_n5():
    g = criterion06_candidate(5)
    walked = check_walk(g, 3, "perfect", lambda c: bool(brute_force_colorings(c)))
    assert walked == 6 ** (g.m - g.n + 1)


def test_walk_matches_brute_force_on_criterion06_candidate_n8():
    g = criterion06_candidate(8)
    walked = check_walk(g, 3, "perfect", lambda c: first_brute_force_coloring(c) is not None)
    assert walked == 6 ** (g.m - g.n + 1)


def small_graphs(seed: int) -> list[SimpleGraph]:
    """The twisted-C4 base, a triangle, and random connected graphs with m <= 4."""
    rng = Random(seed)
    graphs = [C4, SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])]
    while len(graphs) < 7:
        g = random_connected_graph(rng, rng.randint(3, 4), extra_p=0.4)
        if g.m <= 4:
            graphs.append(g)
    return graphs


def test_walk_matches_reference_solver_in_partial_regime():
    uncolorable = 0
    for g in small_graphs(5150):
        check_walk(g, 2, "partial", is_colorable)
        uncolorable += sum(p is None for p, _ in cover_colorings(g, 2, "partial"))
    assert uncolorable > 0  # the failing side is exercised


def reference_first_critical(g: SimpleGraph, k: int, regime: str):
    for examined, cover in enumerate(enumerate_covers(g, k, regime), 1):
        if is_critical(cover):
            return examined, cover
    return count_covers(g, k, regime), None


def test_first_critical_cover_matches_reference_in_partial_regime():
    found = 0
    for g in small_graphs(7331):
        got = first_critical_cover(g, 2, "partial")
        assert got == reference_first_critical(g, 2, "partial")
        found += got[1] is not None
    assert found >= 2  # C4 and the triangle have critical partial covers


# the first critical 3-fold cover of each sits deep in enumerate_covers order;
# on EyVw a box decided after the one at 1,318 holds a critical cover ranked
# past it, so only the cut at the bound inside a box keeps the least
DEEP_WITNESSES = {"Dn{": 4918, "E^NG": 653, "EyUw": 22, "EyVw": 1318}
# the criterion-06 candidates on at most 6 vertices, and the 3-Dirac
# graph the sweep keeps under include_dirac (witness at the first cover)
CRITERION06_SMALL = ["Dl{", "EtTg", "ElUg", "F{cZG"]


@pytest.mark.parametrize("g6", [*DEEP_WITNESSES, *CRITERION06_SMALL])
def test_first_critical_cover_matches_reference_in_perfect_regime(g6):
    g = parse_graph6(g6)
    got = first_critical_cover(g, 3, "perfect")
    assert got == reference_first_critical(g, 3, "perfect")
    if g6 in DEEP_WITNESSES:
        assert got[0] == DEEP_WITNESSES[g6]


def test_first_critical_cover_matches_reference_at_k2():
    rng = Random(8128)
    found = 0
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(3, 7), extra_p=0.4)
        got = first_critical_cover(g, 2, "perfect")
        assert got == reference_first_critical(g, 2, "perfect")
        found += got[1] is not None
    assert found > 0  # some random graph has a critical 2-fold cover


def test_first_critical_cover_on_c4_is_the_twisted_cover():
    # the straight cover comes first; the twisted one differs from the
    # construction's only by swapping the two colors of vertex 3
    examined, witness = first_critical_cover(C4, 2, "perfect")
    _, twisted = make_c4_covers()
    assert examined == 2
    assert witness == relabel_colors(twisted, [[0, 1], [0, 1], [0, 1], [1, 0]])


@pytest.mark.parametrize("a", [1, 2, 3])
def test_first_critical_cover_of_k4_equality_graphs_is_the_identity(a):
    # the identity cover comes first; once it is found, no later box is
    # decided, so these take well under a second each
    g = make_dirac(4, a)
    examined, witness = first_critical_cover(g, 4, "perfect")
    identity = tuple((i, i) for i in range(4))
    assert examined == 1
    assert witness == Cover(g, [4] * g.n, {e: identity for e in g.edges()})
    assert is_critical(witness)


def test_walk_rejects_bad_input_on_the_call():
    with pytest.raises(ValueError):
        cover_colorings(SimpleGraph(2, []), 2, "perfect")
    with pytest.raises(ValueError):
        first_critical_cover(SimpleGraph(2, []), 2, "perfect")
    with pytest.raises(ValueError):
        first_critical_cover(C4, 2, "other")


# ---------------------------------------------------------------------------
# the box search


def decided_boxes(g: SimpleGraph, k: int, regime: str):
    """The choices and every (domains, coloring or None) the box search decides."""
    boxes = _BoxSearch(g, k, regime)
    return boxes.choices, [(list(box), phi) for box, phi in boxes]


def box_cover(g: SimpleGraph, k: int, choices, digits) -> Cover:
    """The public cover that picks option digits[p] at every edge p."""
    return Cover(g, [k] * g.n, {e: options[d] for (e, options), d in zip(choices, digits)})


K4 = SimpleGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def box_graphs(seed: int, k: int, regime: str) -> list[SimpleGraph]:
    """C4, the triangle, K4 and random connected graphs, those with at most 20,000 covers."""
    rng = Random(seed)
    graphs = [C4, SimpleGraph(3, [(0, 1), (1, 2), (0, 2)]), K4]
    graphs += [random_connected_graph(rng, rng.randint(3, 6), extra_p=0.4) for _ in range(12)]
    return [g for g in graphs if count_covers(g, k, regime) <= 20000]


@pytest.mark.parametrize("regime, k", [("perfect", 2), ("perfect", 3), ("partial", 2)])
def test_boxes_partition_the_covers(regime, k):
    uncolorable = 0
    for g in box_graphs(9001 + k, k, regime):
        _, boxes = decided_boxes(g, k, regime)
        sizes = [prod(dom.bit_count() for dom in box) for box, _ in boxes]
        assert sum(sizes) == count_covers(g, k, regime)
        for i, (a, _) in enumerate(boxes):
            for b, _ in boxes[i + 1 :]:
                assert any(x & y == 0 for x, y in zip(a, b))
        uncolorable += sum(phi is None for _, phi in boxes)
    assert uncolorable > 0  # C4 at k = 2 and K4 at k = 3 have uncolorable covers


@pytest.mark.parametrize("regime, k", [("perfect", 2), ("perfect", 3), ("partial", 2)])
def test_each_box_verdict_holds_on_its_covers(regime, k):
    # every cover of each box: the coloring, from the union tables or the
    # shared ones, is independent in every cover credited to it, and no
    # cover of an all-uncolorable box is colorable
    spared = 0
    for g in box_graphs(9001 + k, k, regime):
        boxes = _BoxSearch(g, k, regime)
        for box, phi in boxes:
            for digits in product(*map(_bits, box)):
                cover = box_cover(g, k, boxes.choices, digits)
                if phi is None:
                    assert not is_colorable(cover)
                else:
                    assert is_independent(cover, PartialColoring(phi))
        spared += boxes.spared
    # the two permutations of [2] together match all four pairs, so no
    # 2-fold perfect box has an edge to spare
    assert (spared > 0) == ((regime, k) != ("perfect", 2))


def entries(conf) -> list[list]:
    """Every row of a table set in dict order: what a search reads."""
    return [list(nbrs.items()) for nbrs in conf]


@pytest.mark.parametrize("regime, k", [("perfect", 2), ("perfect", 3), ("partial", 2)])
def test_patched_tables_match_tables_built_from_scratch(regime, k):
    # one load patches both table sets on the edges whose domain changed;
    # each load must still give what building afresh gives, row for row
    # and in dict order, with the same live colors or None: on the boxes
    # the search decides, on each box it yields (cut down to the covers
    # phi colors), and on the one-bit boxes of each uncolorable box
    outcomes = Counter()
    one_bit_loads = 0
    for g in box_graphs(9001 + k, k, regime):
        boxes = _BoxSearch(g, k, regime)
        load = boxes.load

        def checked_load(box):
            live = load(box)
            shared, union, want = box_tables_from_scratch(boxes.choices, g.n, k, box)
            assert entries(boxes.conf) == entries(shared)
            assert entries(boxes.union) == entries(union)
            assert live == want
            outcomes[live is None] += 1
            return live

        boxes.load = checked_load
        for box, phi in boxes:
            live = checked_load(box)
            if live is not None:
                # the search consumes the live colors it is given
                live[:] = [0] * g.n
            if phi is None:
                for cover in product(*(tuple(1 << d for d in _bits(dom)) for dom in box)):
                    boxes.load(cover)
                    one_bit_loads += 1
    assert one_bit_loads > 0
    # two permutations of [2] match all four pairs: no union tables at perfect k = 2
    assert outcomes[True] > 0
    assert (outcomes[False] > 0) == ((regime, k) != ("perfect", 2))


def permutation_domain(options, perms) -> int:
    """The domain bitmask of the options that are these permutations of [k]."""
    return sum(1 << options.index(tuple(enumerate(perm))) for perm in perms)


def test_union_rows_stand_in_for_shared_rows_only_on_edges_that_can_be_spared():
    boxes = _BoxSearch(K4, 3, "perfect")
    full = (1 << 3) - 1
    free = [p for p, (_, options) in enumerate(boxes.choices) if len(options) > 1]
    one = [p for p, (_, options) in enumerate(boxes.choices) if len(options) == 1]
    assert len(free) == len(one) == 3
    a, b, c = free
    options = boxes.choices[a][1]
    box = [(1 << len(opts)) - 1 for _, opts in boxes.choices]
    # edge a: the three rotations, which together match all 9 pairs;
    # edge b: two permutations, which leave 3 pairs unmatched;
    # edge c: four permutations whose rows 0 and 1 are full, so they
    # leave one pair, (2, 0), unmatched
    box[a] = permutation_domain(options, [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    box[b] = permutation_domain(options, [(0, 1, 2), (1, 0, 2)])
    box[c] = permutation_domain(options, [(0, 2, 1), (2, 0, 1), (0, 1, 2), (1, 0, 2)])
    live = boxes.load(box)
    shared, union = boxes.conf, boxes.union

    def rows(conf, p):
        u, v = boxes.choices[p][0]
        return conf[u][v], conf[v][u]

    for p in one:
        # a one-option edge has the same rows in both tables
        assert rows(union, p) == rows(shared, p) == ([1, 2, 4], [1, 2, 4])
    # the rotations share no pair and match every pair: shared rows in both
    assert rows(shared, a) == ([0, 0, 0], [0, 0, 0]) == rows(union, a)
    assert rows(shared, b) == ([0, 0, 4], [0, 0, 4])
    assert rows(union, b) == ([3, 3, 4], [3, 3, 4])
    assert rows(union, c) == ([full, full, 6], [3, full, full])
    (u, v), _ = boxes.choices[c]
    assert live[u] == 1 << 2 and live[v] == 1 << 0
    assert all(live[w] == full for w in range(4) if w not in (u, v))
    # edge b now rules color 0 out at v, the one color edge c leaves it:
    # a vertex with no live color skips the union search, and so does a
    # box with no edge to spare
    assert boxes.choices[b][0][1] == v
    box[b] = permutation_domain(options, [(0, 1, 2), (1, 0, 2), (1, 2, 0)])
    assert boxes.load(box) is None
    assert boxes.load([(1 << len(opts)) - 1 for _, opts in boxes.choices]) is None


def box_counters(boxes: _BoxSearch) -> tuple[int, ...]:
    """(boxes, uncolorable, spared, nodes, deletion_tests) of a box search."""
    return boxes.boxes, boxes.uncolorable, boxes.spared, boxes.stats.nodes_expanded, boxes.deletion_tests


def search_counters(g: SimpleGraph, k: int, regime: str) -> tuple[int, ...]:
    """The counters of one ``first_critical`` run."""
    boxes = _BoxSearch(g, k, regime)
    boxes.first_critical()
    return box_counters(boxes)


# the counters of the 11 frozen criterion-06 candidates, in stream order;
# they move only when what the box search searches moves
CRITERION06_COUNTERS = [
    ("Dl{", (37, 0, 18, 473, 0)),
    ("EtTg", (18, 0, 15, 149, 0)),
    ("ElUg", (18, 0, 15, 121, 0)),
    ("FBjN_", (50, 0, 39, 570, 0)),
    ("FLNMO", (40, 0, 31, 377, 0)),
    ("Frq_w", (41, 0, 31, 373, 0)),
    ("G}GOW[", (40, 0, 31, 480, 0)),
    ("G{S_g[", (65, 0, 31, 1071, 0)),
    ("G{O_ww", (39, 0, 31, 401, 0)),
    ("GsXP_[", (46, 0, 31, 556, 0)),
    ("GsXPGs", (46, 0, 31, 530, 0)),
]


def test_criterion06_search_counters_are_pinned():
    lines = (ROOT / "perfbench" / "data" / "criterion06.g6").read_text().split()
    graphs = [g for g in map(parse_graph6, lines) if candidate_filter(g, 3) is None]
    assert [(emit_graph6(g), search_counters(g, 3, "perfect")) for g in graphs] == (
        CRITERION06_COUNTERS
    )


SEARCH_COUNTERS = {
    # the k-Dirac graph that --include-dirac adds to the stream
    "F{cZG": (parse_graph6("F{cZG"), 3, "perfect", (21, 1, 12, 384, 1)),
    "dirac-4-1": (make_dirac(4, 1), 4, "perfect", (5865, 1, 2971, 98450, 1)),
    "dirac-4-2": (make_dirac(4, 2), 4, "perfect", (708, 1, 323, 21034, 1)),
    # W4, 34**8 covers
    "W4-partial": (parse_graph6("Dl{"), 3, "partial", (22391, 0, 6071, 351648, 0)),
}


@pytest.mark.parametrize(
    "g, k, regime, want", list(SEARCH_COUNTERS.values()), ids=list(SEARCH_COUNTERS)
)
def test_search_counters_are_pinned(g, k, regime, want):
    assert search_counters(g, k, regime) == want


@pytest.mark.parametrize("name", ["F{cZG", "dirac-4-1", "dirac-4-2"])
def test_witness_path_makes_no_whole_cover_search(name, monkeypatch):
    # each cover of an uncolorable box comes with the box's verdict, so
    # is_critical runs only the deletion test: every search is a box
    # search or leaves one vertex out
    g, k, regime, want = SEARCH_COUNTERS[name]
    whole = []
    search = dpcolor.solver._search

    def counted(adj, avail, todo, stats):
        todo = list(todo)
        if len(todo) == g.n and adj is not boxes._conf_adj and adj is not boxes._union_adj:
            whole.append(todo)
        return search(adj, avail, todo, stats)

    monkeypatch.setattr(dpcolor.solver, "_search", counted)
    boxes = _BoxSearch(g, k, regime)
    examined, witness = boxes.first_critical()
    assert whole == []
    assert box_counters(boxes) == want
    # the witness and its rank are those of deciding every cover from scratch
    assert (examined, witness) == reference_first_critical(g, k, regime)


@pytest.mark.parametrize(
    "g, k", [(parse_graph6("F{cZG"), 3), (make_dirac(3, 1), 3)], ids=["F{cZG", "dirac-3-1"]
)
def test_deletion_tests_go_through_is_critical(g, k, monkeypatch):
    # each cover of an uncolorable box is built once as a Cover and
    # decided by is_critical; the last cover that passes is the witness
    decided = []
    test = dpcolor.solver.is_critical

    def recorded(c):
        verdict = test(c)
        decided.append((c, verdict))
        return verdict

    monkeypatch.setattr(dpcolor.solver, "is_critical", recorded)
    boxes = _BoxSearch(g, k, "perfect")
    _, witness = boxes.first_critical()
    assert len(decided) == boxes.deletion_tests > 0
    passed = [c for c, verdict in decided if verdict]
    assert witness is not None and passed[-1] is witness


def test_union_tables_keep_the_criterion06_box_count_down():
    # the first coloring of the shared tables decided 1,308 boxes here;
    # the pin above holds the counts the search really makes
    assert sum(counters[0] for _, counters in CRITERION06_COUNTERS) <= 500


def test_boxes_match_brute_force_on_criterion06_candidate_n5():
    g = criterion06_candidate(5)
    choices, boxes = decided_boxes(g, 3, "perfect")
    verdict = {}
    for box, phi in boxes:
        for digits in product(*map(_bits, box)):
            cover = box_cover(g, 3, choices, digits)
            assert cover not in verdict
            verdict[cover] = phi
    covers = list(enumerate_covers(g, 3, "perfect"))
    assert len(verdict) == len(covers) == 6 ** (g.m - g.n + 1)
    for cover in covers:
        phi = verdict[cover]
        assert (phi is not None) == bool(brute_force_colorings(cover))
        if phi is not None:
            assert is_independent(cover, PartialColoring(phi))


def test_chi_dp_matches_the_walk_on_small_connected_graphs():
    graphs = [from_nx(G) for G in atlas_connected(range(1, 6))]
    assert len(graphs) == 31
    assert [chi_dp(g) for g in graphs] == [walk_chi_dp(g) for g in graphs]
