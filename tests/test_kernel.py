"""The compiled cover walk against the reference solver and brute force.

``cover_colorings`` and ``first_critical_cover`` decide covers on
conflict tables rewritten in place, reusing the previous cover's
coloring where it survives.  Every verdict and every reported coloring
is checked here against an independent route over the public covers of
``enumerate_covers``, which walks the same order.
"""

from random import Random

import pytest

from dpcolor import (
    PartialColoring,
    SearchStats,
    SimpleGraph,
    candidate_filter,
    count_covers,
    cover_colorings,
    enumerate_covers,
    first_critical_cover,
    find_coloring,
    is_colorable,
    is_critical,
    is_independent,
    relabel_colors,
)
from dpcolor.construct import make_c4_covers

from helpers import (
    atlas_connected,
    brute_force_colorings,
    connected_cubic_8,
    first_brute_force_coloring,
    from_nx,
    random_connected_graph,
    random_cover,
)

C4 = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def criterion06_candidate(n: int) -> SimpleGraph:
    pool = connected_cubic_8() if n == 8 else [from_nx(G) for G in atlas_connected([n])]
    return next(g for g in pool if candidate_filter(g, 3) is None)


def check_walk(g: SimpleGraph, k: int, regime: str, oracle) -> int:
    """Walk verdicts equal the oracle's; every reported coloring is independent."""
    walked = 0
    for cover, coloring in zip(enumerate_covers(g, k, regime), cover_colorings(g, k, regime)):
        walked += 1
        assert (coloring is not None) == oracle(cover)
        if coloring is not None:
            assert is_independent(cover, PartialColoring(enumerate(coloring)))
    assert walked == count_covers(g, k, regime)
    return walked


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
        uncolorable += sum(p is None for p in cover_colorings(g, 2, "partial"))
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


def test_first_critical_cover_on_c4_is_the_twisted_cover():
    # the straight cover comes first; the twisted one differs from the
    # construction's only by swapping the two colors of vertex 3
    examined, witness = first_critical_cover(C4, 2, "perfect")
    _, twisted = make_c4_covers()
    assert examined == 2
    assert witness == relabel_colors(twisted, [[0, 1], [0, 1], [0, 1], [1, 0]])


def test_walk_rejects_bad_input_on_the_call():
    with pytest.raises(ValueError):
        cover_colorings(SimpleGraph(2, []), 2, "perfect")
    with pytest.raises(ValueError):
        first_critical_cover(C4, 2, "other")
