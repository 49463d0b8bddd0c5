"""Property checks over generated graphs and covers on simple and multigraph bases."""

import itertools
import json
import random
import string

import networkx as nx
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpcolor import (
    Cover,
    Graph6Error,
    MultiGraph,
    SimpleGraph,
    cover_from_json,
    cover_from_json_text,
    cover_from_lists,
    cover_to_json_text,
    emit_graph6,
    find_coloring,
    is_colorable,
    is_independent,
    parse_graph6,
    relabel_colors,
)

from dpcolor.covers import is_full_matching
from dpcolor.solver import SearchStats, _BoxSearch, _search

from helpers import (
    ReferenceCover,
    box_tables_from_scratch,
    brute_force_colorings,
    matched_pairs,
    random_connected_graph,
    random_cover,
    reference_search,
)

# small enough that brute force stays under a millisecond per cover
MAX_N = 5
MAX_SIZE = 3
FEW = settings(max_examples=80, deadline=None)


@st.composite
def matchings(draw, a: int, b: int):
    """A partial injection from the colors 0..a-1 into 0..b-1."""
    rows = draw(st.lists(st.integers(0, a - 1), unique=True, max_size=min(a, b))) if a else []
    cols = draw(st.permutations(range(b)))[: len(rows)]
    return tuple(sorted(zip(rows, cols)))


@st.composite
def covers(draw, max_n: int = MAX_N):
    """A valid cover of a simple graph or a multigraph, built through the constructor."""
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if draw(st.booleans()):
        sizes = [draw(st.integers(0, MAX_SIZE))] * n
    else:
        sizes = draw(st.lists(st.integers(0, MAX_SIZE), min_size=n, max_size=n))
    if draw(st.booleans()):
        mult = {e: draw(st.integers(1, 3)) for e in edges}
        base = MultiGraph(n, [(u, v, t) for (u, v), t in mult.items()])
        given_ = {
            (u, v): [draw(matchings(sizes[u], sizes[v])) for _ in range(t)]
            for (u, v), t in mult.items()
        }
        return Cover(base, sizes, given_)
    given_ = {(u, v): draw(matchings(sizes[u], sizes[v])) for u, v in edges}
    return Cover(SimpleGraph(n, edges), sizes, given_)


@st.composite
def cover_arguments(draw):
    """Cover arguments whose matchings may carry one arbitrary small int pair."""
    n = draw(st.integers(1, 4))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    sizes = draw(st.lists(st.integers(0, MAX_SIZE), min_size=n, max_size=n))
    color = st.integers(-1, MAX_SIZE)

    def slot(u, v, flip):
        out = list(draw(matchings(sizes[u], sizes[v])))
        if draw(st.integers(0, 3)) == 0:
            out.insert(draw(st.integers(0, len(out))), (draw(color), draw(color)))
        return [(j, i) for i, j in out] if flip else out

    multi = draw(st.booleans())
    mult = {e: draw(st.integers(1, 3)) if multi else 1 for e in edges}
    given_ = {}
    for (u, v), t in mult.items():
        flip = draw(st.booleans())  # the key (v, u) has its pairs read as (j, i)
        slots = [slot(u, v, flip) for _ in range(t)]
        given_[(v, u) if flip else (u, v)] = slots if multi else slots[0]
    if multi:
        base = MultiGraph(n, [(u, v, t) for (u, v), t in mult.items()])
    else:
        base = SimpleGraph(n, edges)
    return base, sizes, given_


@settings(max_examples=300, deadline=None)
@given(cover_arguments())
def test_cover_is_well_formed_or_not_built(args):
    try:
        c = Cover(*args)
    except ValueError:
        return
    # every pair the cover reports is a conflict the solver sees, and back
    for u, v in c.edge_pairs():
        for a, b in ((u, v), (v, u)):
            read_back = {(i, j) for i in range(c.size(a)) for j in c.matched_colors(a, b, i)}
            assert matched_pairs(c, a, b) == read_back


@st.composite
def cover_specs(draw):
    """Valid Cover.from_slots arguments: uneven sizes, absent pairs, flipped keys, parallel slots.

    Returns the base, the sizes, each given pair's list of matchings (pairs
    in any order, read as (j, i) under a key (v, u)) and whether the base is
    a multigraph.
    """
    n = draw(st.integers(0, MAX_N))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if draw(st.booleans()):
        sizes = [draw(st.integers(0, MAX_SIZE))] * n
    else:
        sizes = draw(st.lists(st.integers(0, MAX_SIZE), min_size=n, max_size=n))
    multi = draw(st.booleans())
    mult = {e: draw(st.integers(1, 3)) if multi else 1 for e in edges}
    if multi:
        base = MultiGraph(n, [(u, v, t) for (u, v), t in mult.items()])
    else:
        base = SimpleGraph(n, edges)
    slots = {}
    for (u, v), t in mult.items():
        if draw(st.integers(0, 4)) == 0:
            continue  # an absent pair has empty matchings
        given_ = [list(draw(st.permutations(draw(matchings(sizes[u], sizes[v]))))) for _ in range(t)]
        if draw(st.booleans()):
            slots[(v, u)] = [[(j, i) for i, j in m] for m in given_]
        else:
            slots[(u, v)] = given_
    return base, sizes, slots, multi


def _agrees_with(c, ref: ReferenceCover) -> None:
    assert [dict(nbrs) for nbrs in c._adj] == ref.conflict_tables()
    assert cover_to_json_text(c) == json.dumps(ref.to_json(), separators=(",", ":"))
    for u, v in ref.slots:
        for a, b in ((u, v), (v, u)):
            assert c.slot_matchings(a, b) == ref.slot_matchings(a, b)
            assert matched_pairs(c, a, b) == matched_pairs(ref, a, b)
            assert is_full_matching(c, a, b) == ref.is_full_matching(a, b)


# specs cover_specs does not reach, in its form: colors past the writer's
# table of pair texts (16), two-digit vertex keys, a graph6 string holding
# the one byte JSON escapes, and a multigraph with empty slots and an
# absent pair
_PAST_THE_PAIR_TABLE = (
    SimpleGraph(3, [(0, 1), (1, 2)]),
    [17, 3, 20],
    {(0, 1): [[(16, 2), (0, 0)]], (2, 1): [[(19, 1), (3, 0)]]},
    False,
)
_UNIFORM_PAST_THE_PAIR_TABLE = (
    SimpleGraph(2, [(0, 1)]),
    [18, 18],
    {(0, 1): [[(17, 0), (3, 17), (16, 16)]]},
    False,
)
_TWO_DIGIT_KEYS = (
    SimpleGraph(12, [(0, 11), (9, 10), (10, 11)]),
    [2] * 12,
    {(0, 11): [[(0, 1)]], (10, 9): [[(1, 0), (0, 1)]], (10, 11): [[(1, 1)]]},
    False,
)
_BACKSLASH_GRAPH6 = (
    parse_graph6("C\\"),
    [2, 1, 3, 2],
    {(0, 2): [[(1, 2)]], (1, 2): [[(0, 0)]], (3, 2): [[(0, 1), (1, 0)]]},
    False,
)
_EMPTY_SLOTS = (
    MultiGraph(4, [(0, 1, 3), (1, 2, 2), (2, 3, 1)]),
    [2, 2, 3, 1],
    {(0, 1): [[(0, 1)], [], [(1, 0), (0, 1)]], (2, 1): [[], [(2, 1)]]},
    True,
)


@settings(max_examples=200, deadline=None)
@given(cover_specs(), st.randoms(use_true_random=False))
@example(_PAST_THE_PAIR_TABLE, random.Random(0))
@example(_UNIFORM_PAST_THE_PAIR_TABLE, random.Random(0))
@example(_TWO_DIGIT_KEYS, random.Random(0))
@example(_BACKSLASH_GRAPH6, random.Random(0))
@example(_EMPTY_SLOTS, random.Random(0))
def test_stored_rows_agree_with_the_pair_tuple_reference(spec, rnd):
    base, sizes, slots, multi = spec
    ref = ReferenceCover(base, sizes, slots, bare=False)
    c = Cover(base, sizes, slots if multi else {e: m[0] for e, m in slots.items()})
    built = [
        c,
        Cover.from_slots(base, sizes, slots),
        cover_from_json(ref.to_json()),
        cover_from_json_text(cover_to_json_text(c)),
        relabel_colors(c, [list(range(s)) for s in sizes]),
    ]
    for b in built:
        assert b == c and hash(b) == hash(c)
        _agrees_with(b, ref)

    # which covers compare equal follows the reference
    perms = [rnd.sample(range(s), s) for s in sizes]
    moved = {
        (u, v): [[(perms[u][i], perms[v][j]) for i, j in m] for m in ms]
        for (u, v), ms in ref.slots.items()
    }
    ref_moved = ReferenceCover(base, sizes, moved, bare=False)
    relabeled = relabel_colors(c, perms)
    _agrees_with(relabeled, ref_moved)
    assert (relabeled == c) == (ref_moved.key() == ref.key())
    swapped = {e: ms[::-1] for e, ms in ref.slots.items()}  # parallel slots in reverse
    ref_swapped = ReferenceCover(base, sizes, swapped, bare=False)
    assert (Cover.from_slots(base, sizes, swapped) == c) == (ref_swapped.key() == ref.key())


@FEW
@given(cover_specs(), st.data())
def test_cover_from_lists_agrees_with_the_pair_tuple_reference(spec, data):
    base = spec[0]
    lists = [data.draw(st.lists(st.integers(0, 4), unique=True, max_size=3)) for _ in range(base.n)]
    index = [{color: i for i, color in enumerate(sorted(lst))} for lst in lists]
    shared = {
        (u, v): [[(index[u][x], index[v][x]) for x in set(lists[u]) & set(lists[v])]] * t
        for u, v, t in base.pairs()
    }
    ref = ReferenceCover(base, [len(lst) for lst in lists], shared, bare=False)
    c = cover_from_lists(base, lists)
    assert c == Cover.from_slots(base, ref.sizes, shared)
    _agrees_with(c, ref)


@FEW
@given(covers())
def test_cover_json_round_trips_byte_for_byte(c):
    text = cover_to_json_text(c)
    back = cover_from_json_text(text)
    assert back == c
    assert cover_to_json_text(back) == text


@FEW
@given(st.data())
def test_relabel_colors_keeps_colorability(data):
    c = data.draw(covers())
    perms = [data.draw(st.permutations(range(c.size(u)))) for u in range(c.n)]
    relabeled = relabel_colors(c, perms)
    assert is_colorable(relabeled) == is_colorable(c)
    assert len(brute_force_colorings(relabeled)) == len(brute_force_colorings(c))


# JSON values a mutation may plant; ints stay small so that a mutated vertex
# count or list size cannot ask for a huge allocation
scalars = st.none() | st.booleans() | st.integers(-3, 70) | st.floats(allow_nan=False)
json_values = st.recursive(
    scalars | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, prefix + (index,))


def _replace(value, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {k: _replace(v, rest, new) if k == head else v for k, v in value.items()}
    return [_replace(v, rest, new) if i == head else v for i, v in enumerate(value)]


@st.composite
def mutated_documents(draw):
    text = cover_to_json_text(draw(covers()))
    if draw(st.booleans()):
        # edit the text: delete, insert or overwrite one to three characters
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(text)))
            ch = draw(st.sampled_from('{}[]",:-#0123456789ektn '))
            how = draw(st.sampled_from(["delete", "insert", "replace"]))
            if how == "insert":
                text = text[:at] + ch + text[at:]
            elif text:
                at = min(at, len(text) - 1)
                text = text[:at] + ("" if how == "delete" else ch) + text[at + 1 :]
        return text
    # edit the structure: replace one value, or add one key
    data = json.loads(text)
    if draw(st.booleans()):
        path = draw(st.sampled_from(list(_paths(data))))
        data = _replace(data, path, draw(json_values))
    else:
        key = draw(st.sampled_from(["k", "list_sizes", "graph6", "multigraph", "matchings"]))
        data[key] = draw(json_values)
    return json.dumps(data)


@settings(max_examples=150, deadline=None)
@given(mutated_documents())
def test_mutated_cover_json_raises_only_value_error(text):
    try:
        c = cover_from_json_text(text)
    except ValueError:
        return
    assert all(type(s) is int for s in c.list_size)  # JSON true/false are not sizes
    assert cover_from_json_text(cover_to_json_text(c)) == c


@FEW
@given(covers())
def test_find_coloring_agrees_with_brute_force(c):
    hits = brute_force_colorings(c)
    got = find_coloring(c)
    assert (got is None) == (not hits)
    if got is not None:
        assert is_independent(c, got)
        assert tuple(got.pick(u) for u in range(c.n)) in hits


# ---------------------------------------------------------------------------
# the search over neighbor lists against the dict-table search it replaced


@st.composite
def search_instances(draw):
    """A cover, start masks that may hold zeros, and a todo set.

    The cover is any drawn cover, or a dense perfect one, which makes
    the search backtrack.  The todo set is every vertex, every vertex
    but one (the shape of a deletion test), or any subset.
    """
    if draw(st.booleans()):
        c = draw(covers(max_n=8))
    else:
        rnd = draw(st.randoms(use_true_random=False))
        n, k = draw(st.integers(2, 8)), draw(st.integers(2, 4))
        c = random_cover(rnd, random_connected_graph(rnd, n, extra_p=0.6), [k] * n, perfect=True)
    n = c.n
    shape = draw(st.sampled_from(["all", "all but one", "subset"]))
    if shape == "all" or n == 0:
        todo = list(range(n))
    elif shape == "all but one":
        gone = draw(st.integers(0, n - 1))
        todo = [w for w in range(n) if w != gone]
    else:
        todo = sorted(draw(st.sets(st.integers(0, n - 1))))
    full = [(1 << s) - 1 for s in c.list_size]
    avail = [draw(st.integers(0, f)) if draw(st.integers(0, 3)) == 0 else f for f in full]
    return c, avail, todo


def assert_same_search(conf, adjs, avail, todo) -> None:
    """Every neighbor-list form of the tables gives the reference's picks and node count."""
    want_stats = SearchStats()
    want = reference_search(conf, list(avail), todo, want_stats)
    for adj in adjs:
        stats = SearchStats()
        assert _search(adj, list(avail), todo, stats) == want
        assert stats.nodes_expanded == want_stats.nodes_expanded


@settings(max_examples=300, deadline=None)
@given(search_instances())
def test_search_matches_the_dict_table_search(instance):
    c, avail, todo = instance
    conf = [dict(nbrs) for nbrs in c._adj]
    assert_same_search(conf, [c._adj], avail, todo)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_box_searches_match_the_dict_table_search(rnd, data):
    # a few boxes loaded in turn, so the patched lists must search as the
    # dict tables built afresh for each box do
    g = random_connected_graph(rnd, data.draw(st.integers(2, 5)), extra_p=0.4)
    k = data.draw(st.integers(2, 3))
    boxes = _BoxSearch(g, k, data.draw(st.sampled_from(["perfect", "partial"])))
    for _ in range(data.draw(st.integers(1, 4))):
        box = [data.draw(st.integers(1, (1 << len(options)) - 1)) for _, options in boxes.choices]
        live = boxes.load(box)
        shared, union, want = box_tables_from_scratch(boxes.choices, g.n, k, box)
        assert live == want
        assert_same_search(shared, [boxes.conf], [(1 << k) - 1] * g.n, range(g.n))
        if live is not None:
            assert_same_search(union, [boxes.union], live, range(g.n))


@st.composite
def simple_graphs(draw, max_n: int = 62):
    """Any simple graph graph6's short form can carry (n <= 62)."""
    n = draw(st.integers(0, max_n))
    if n < 2:
        return SimpleGraph(n)
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=40))
    return SimpleGraph(n, pairs)


@st.composite
def graph6_like(draw):
    """Text near graph6: a header, a payload of about the right length, optional frame."""
    n = draw(st.integers(0, 64))
    size = (n * (n - 1) // 2 + 5) // 6 + draw(st.sampled_from([0, 0, 0, -1, 1]))
    low, high = draw(st.sampled_from([(63, 126), (63, 126), (56, 130)]))
    chars = st.characters(min_codepoint=low, max_codepoint=high)
    body = draw(st.text(chars, min_size=max(size, 0), max_size=max(size, 0)))
    prefix = draw(st.sampled_from(["", ">>graph6<<", " "]))
    return prefix + chr(n + 63) + body + draw(st.sampled_from(["", "\n", " \t"]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=12), graph6_like()))
def test_any_string_parses_or_raises_graph6_error(text):
    try:
        g = parse_graph6(text)
    except Graph6Error:
        return
    assert isinstance(g, SimpleGraph)
    # a string that parses is already the canonical encoding of its graph
    assert emit_graph6(g) == text.strip(string.whitespace).removeprefix(">>graph6<<")


@FEW
@given(simple_graphs())
def test_graph6_round_trips(g):
    text = emit_graph6(g)
    assert parse_graph6(text) == g
    assert parse_graph6(f">>graph6<<{text}\n") == g


@st.composite
def edge_lists(draw, max_n: int = 12):
    """A vertex count and an edge list on it, with repeats, both orientations, any order."""
    n = draw(st.integers(0, max_n))
    if n < 2:
        return n, []
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=40))


@settings(max_examples=200, deadline=None)
@given(edge_lists(), st.data())
def test_simple_graph_agrees_with_a_set_reference(args, data):
    n, edges = args
    g = SimpleGraph(n, edges)
    ref = {(min(e), max(e)) for e in edges}
    nbrs = [frozenset(v for e in ref if u in e for v in e if v != u) for u in range(n)]
    degrees = tuple(len(s) for s in nbrs)
    assert g.m == len(ref)
    assert g.edges() == tuple(sorted(ref))
    assert g.pairs() == tuple((u, v, 1) for u, v in sorted(ref))
    assert [g.neighbors(u) for u in range(n)] == nbrs
    assert g.degrees() == degrees
    assert [g.degree(u) for u in range(n)] == list(degrees)
    assert (g.min_degree, g.max_degree) == (min(degrees, default=0), max(degrees, default=0))
    for u, v in itertools.product(range(n), repeat=2):
        assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in ref)

    ref_nx = nx.Graph()
    ref_nx.add_nodes_from(range(n))
    ref_nx.add_edges_from(ref)
    comps = sorted((frozenset(c) for c in nx.connected_components(ref_nx)), key=min)
    assert g.connected_components() == tuple(comps)
    assert g.is_connected() == (len(comps) <= 1)

    keep = sorted(data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)) if n else [])
    index = {v: i for i, v in enumerate(keep)}
    sub = g.induced(keep)
    assert sub.n == len(keep)
    assert set(sub.edges()) == {(index[u], index[v]) for u, v in ref if u in index and v in index}

    # the same edge set in any order, orientation and multiplicity is the same graph
    again = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in sorted(ref) * 2]
    same = SimpleGraph(n, data.draw(st.permutations(again)))
    assert same == g and hash(same) == hash(g)
    if ref:
        assert SimpleGraph(n, sorted(ref)[1:]) != g
    assert parse_graph6(emit_graph6(g)) == g
