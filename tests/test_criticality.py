"""Criticality decided once: the shared deletion test and the answer a Cover keeps.

``_survives_every_deletion`` lets one coloring of G - u settle every
deletion it can, and must agree with one search per vertex
(``helpers.deletion_test_by_vertex``) and with brute force.  A ``Cover``
keeps the answer of its whole-cover search and its criticality, so a
cover gets one deletion test; callers that pass ``stats``, a target or
a seed always get a search of their own.
"""

import copy
import pickle
from random import Random

import pytest

import dpcolor.solver
from dpcolor import (
    Cover,
    PartialColoring,
    SearchStats,
    SimpleGraph,
    cover_from_json_text,
    cover_from_lists,
    cover_to_json_text,
    find_coloring,
    is_critical,
    verify_critical_structure,
)
from dpcolor.construct import (
    make_c4_covers,
    make_dirac,
    make_ks_example,
    make_multigraph_counterexample,
)
from dpcolor.solver import _survives_every_deletion

from helpers import (
    brute_force_colorings,
    brute_force_survives_deletions,
    deletion_test_by_vertex,
    random_connected_graph,
    random_cover,
    random_multigraph,
    random_partial_injection,
)


def planted_covers() -> list[tuple[str, Cover]]:
    """The named covers of the construct module, critical but for the straight C4 cover."""
    out = []
    for k in (3, 4):
        for a in range(1, k):
            g = make_dirac(k, a)
            out.append((f"dirac({k},{a})", cover_from_lists(g, [list(range(k))] * g.n)))
        g, lists = make_ks_example(k)
        out.append((f"ks({k})", cover_from_lists(g, lists)))
    straight, twisted = make_c4_covers()
    out += [("straight C4", straight), ("twisted C4", twisted)]
    out.append(("multigraph(3)", make_multigraph_counterexample(3)[1]))
    return out


PLANTED = planted_covers()


def random_multigraph_cover(rng: Random, sizes_up_to: int) -> Cover:
    while True:
        mg = random_multigraph(rng, rng.randint(2, 5))
        if mg.m:
            break
    sizes = [rng.randint(0, sizes_up_to) for _ in range(mg.n)]
    slots = {
        (u, v): [random_partial_injection(rng, sizes[u], sizes[v]) for _ in range(t)]
        for u, v, t in mg.pairs()
    }
    return Cover.from_slots(mg, sizes, slots)


def random_covers(seed: int, count: int) -> list[Cover]:
    """Simple and multigraph bases, partial and perfect matchings, list sizes 0-3."""
    rng = Random(seed)
    out = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.3:
            out.append(random_multigraph_cover(rng, 3))
            continue
        g = random_connected_graph(rng, rng.randint(1, 6), extra_p=0.4)
        if roll < 0.6:
            k = rng.randint(1, 3)
            out.append(random_cover(rng, g, [k] * g.n, perfect=True))
        else:
            out.append(random_cover(rng, g, [rng.randint(0, 3) for _ in g.vertices]))
    return out


def count_searches(monkeypatch) -> list[int]:
    """Count the calls the solver makes to its search from now on."""
    calls = [0]
    search = dpcolor.solver._search

    def counted(*args):
        calls[0] += 1
        return search(*args)

    monkeypatch.setattr(dpcolor.solver, "_search", counted)
    return calls


# ---------------------------------------------------------------------------
# the shared deletion test


@pytest.mark.parametrize("name, cover", PLANTED, ids=[name for name, _ in PLANTED])
def test_deletion_test_matches_the_oracles_on_the_planted_covers(name, cover):
    conf = [dict(nbrs) for nbrs in cover._adj]
    got = _survives_every_deletion(cover._adj, cover.list_size)
    assert got == deletion_test_by_vertex(conf, cover.list_size)
    assert got == brute_force_survives_deletions(cover)
    assert got


def test_deletion_test_matches_the_oracles_on_random_covers():
    covers = random_covers(8080, 300)
    verdicts = set()
    for cover in covers:
        conf = [dict(nbrs) for nbrs in cover._adj]
        got = _survives_every_deletion(cover._adj, cover.list_size)
        assert got == deletion_test_by_vertex(conf, cover.list_size)
        assert got == brute_force_survives_deletions(cover)
        verdicts.add((bool(brute_force_colorings(cover)), got))
    # colorable covers, critical ones, and uncolorable ones that are not critical
    assert verdicts >= {(True, True), (False, True), (False, False)}


def test_a_free_color_of_u_settles_every_deletion(monkeypatch):
    # the straight C4 cover is colorable: a coloring of the path 1-2-3
    # leaves vertex 0 a color no neighbor's pick conflicts with
    straight, _ = make_c4_covers()
    calls = count_searches(monkeypatch)
    assert _survives_every_deletion(straight._adj, straight.list_size)
    # one search settles at most u and one neighbor per color of u, three
    # of the four vertices, so the fourth was settled by the free color
    assert calls[0] == 1


@pytest.mark.parametrize("name, cover", PLANTED, ids=[name for name, _ in PLANTED])
def test_planted_covers_take_at_most_three_deletion_searches(name, cover, monkeypatch):
    calls = count_searches(monkeypatch)
    assert _survives_every_deletion(cover._adj, cover.list_size)
    assert calls[0] <= 3


# ---------------------------------------------------------------------------
# the whole-cover answer kept on a Cover


def fresh(cover: Cover) -> Cover:
    return cover_from_json_text(cover_to_json_text(cover))


@pytest.mark.parametrize("name, cover", PLANTED, ids=[name for name, _ in PLANTED])
def test_find_coloring_does_not_depend_on_what_ran_first(name, cover):
    expected = find_coloring(fresh(cover))
    first = fresh(cover)
    critical = is_critical(first)
    assert find_coloring(first) == expected
    if critical and cover.k is not None:
        second = fresh(cover)
        verify_critical_structure(second)
        assert find_coloring(second) == expected


def test_find_coloring_does_not_depend_on_what_ran_first_on_random_covers():
    for cover in random_covers(9090, 120):
        expected = find_coloring(fresh(cover))
        first = fresh(cover)
        is_critical(first)
        # the first call may search or read the kept answer; the second reads it
        assert find_coloring(first) == expected
        assert find_coloring(first) == expected


def test_the_kept_answer_is_returned_without_a_search(monkeypatch):
    _, twisted = make_c4_covers()
    calls = count_searches(monkeypatch)
    assert find_coloring(twisted) is None
    assert calls[0] == 1
    assert find_coloring(twisted) is None
    # is_critical reads the kept answer; only its deletion test searches
    assert is_critical(twisted)
    assert calls[0] == 1 + 2


def test_targeted_and_seeded_calls_neither_read_nor_fill_the_kept_answer(monkeypatch):
    straight, twisted = make_c4_covers()
    straight, twisted = fresh(straight), fresh(twisted)
    calls = count_searches(monkeypatch)
    # served first: a targeted or seeded call searches, and answers for itself
    assert find_coloring(twisted, target=[0, 1, 2]) is not None
    assert find_coloring(straight, seed=PartialColoring({0: 1})).get(0) == 1
    assert find_coloring(straight, target=[0]).dom == frozenset({0})
    assert calls[0] == 3
    # and they left no whole-cover answer behind
    assert find_coloring(twisted) is None
    whole = find_coloring(straight)
    assert calls[0] == 5 and whole.dom == frozenset(range(4))
    # with the answer kept, targeted and seeded calls still search
    assert find_coloring(twisted, target=[0, 1, 2]) is not None
    assert find_coloring(straight, seed=PartialColoring({0: 1 - whole.pick(0)})) is not None
    assert find_coloring(straight, target=[0]).dom == frozenset({0})
    assert calls[0] == 8


def test_stats_calls_always_search():
    _, twisted = make_c4_covers()
    assert find_coloring(twisted) is None
    for _ in range(2):
        stats = SearchStats()
        assert find_coloring(twisted, stats=stats) is None
        assert stats.nodes_expanded > 0


def test_equality_and_hash_ignore_the_kept_answer():
    for _, cover in PLANTED:
        decided, undecided = fresh(cover), fresh(cover)
        find_coloring(decided)
        critical = is_critical(decided)
        # both answers are kept on the decided cover, none on the other
        assert decided._whole and decided._critical is critical
        assert not undecided._whole and undecided._critical is None
        assert decided == undecided and hash(decided) == hash(undecided)
        assert len({decided, undecided}) == 1


def count_deletion_tests(monkeypatch) -> list[int]:
    """Count the calls the solver makes to its deletion test from now on."""
    calls = [0]
    test = dpcolor.solver._survives_every_deletion

    def counted(*args):
        calls[0] += 1
        return test(*args)

    monkeypatch.setattr(dpcolor.solver, "_survives_every_deletion", counted)
    return calls


def test_criticality_is_decided_once_per_cover(monkeypatch):
    # is_critical, then the structure check, which asks is_critical
    # again: one deletion test serves all three
    _, twisted = make_c4_covers()
    g = make_dirac(3, 1)
    dirac = cover_from_lists(g, [[0, 1, 2]] * g.n)
    calls = count_deletion_tests(monkeypatch)
    for cover in (fresh(twisted), dirac):
        before = calls[0]
        assert is_critical(cover)
        verify_critical_structure(cover)
        assert is_critical(cover)
        assert calls[0] == before + 1
    # a colorable cover needs no deletion test, and keeps its False
    straight, _ = make_c4_covers()
    straight = fresh(straight)
    before = calls[0]
    assert not is_critical(straight) and not is_critical(straight)
    assert calls[0] == before
    # a fresh copy of a decided cover decides again
    assert is_critical(fresh(twisted)) and calls[0] == before + 1


@pytest.mark.parametrize("duplicate", [copy.copy, lambda c: pickle.loads(pickle.dumps(c))])
def test_copies_keep_value_and_verdicts(duplicate):
    for _, cover in PLANTED:
        expected = (find_coloring(fresh(cover)), is_critical(fresh(cover)))
        for decide_first in (False, True):
            original = fresh(cover)
            if decide_first:
                find_coloring(original)
            twin = duplicate(original)
            assert twin == original and hash(twin) == hash(original)
            assert (find_coloring(twin), is_critical(twin)) == expected
            assert cover_to_json_text(twin) == cover_to_json_text(cover)


def test_a_cover_on_one_vertex():
    g = SimpleGraph(1, [])
    for size, colorable in ((0, False), (2, True)):
        c = Cover(g, [size])
        assert (find_coloring(c) is not None) == colorable
        assert _survives_every_deletion(c._adj, c.list_size)
        assert is_critical(c) == (not colorable)
