"""Covers (correspondence assignments) over simple graphs and multigraphs.

A cover assigns each vertex ``u`` a list of ``size(u)`` colors, indexed
0..size(u)-1, and each edge a partial injection ("matching") between the
endpoint lists.  Lists are pairwise disjoint by construction since colors
are per-vertex indices, and each list is implicitly a clique, so a
coloring is a set of picks, one per covered vertex, no two of which are
joined by a matching pair.  An edge of multiplicity t in a multigraph
carries t matchings, one per parallel edge; the cross-list constraints
are their union.

The k-fold covers of a connected simple graph are enumerated in one of
the ``REGIMES``, which ``cover_choices`` alone defines: it lists the
matchings each edge ranges over, and the covers are their product.
``count_covers``, ``enumerate_covers`` and the solver's box search all
read that one list, and share its one check: a ``MultiGraph`` base, or
a k that is not an int, raises ValueError.  Counting builds the lists,
so it costs what an enumeration's start does: the k! permutations of
the perfect regime, about 250 MB at k = 9, and none on a tree.

* ``"perfect"``: every matching is a full bijection.  Pinning the
  identity on the edges of a fixed spanning tree factors out every
  per-vertex relabeling but one: the same relabeling sigma at every
  vertex, which sends each matching pi to sigma pi sigma^-1 and keeps
  the tree's identity.  An orbit of these k! relabelings can still
  appear up to k! times.
* ``"partial"``: every edge independently ranges over all partial
  injections of [k], with no relabeling reduction.

A cover is stored as the neighbor lists the solver searches, built in
the one pass that checks each matching: ``adj[u]`` holds a ``(v, rows)``
pair per neighbor v, ascending, where ``rows[i]`` is the bitmask of the
colors of v matched to color i of u, the union over parallel edges.  Bit
j stands for color j.  These lists, ``Adjacency``, are the one table
form of the package: the solver's box search keeps its tables in it
too.  What a partial coloring leaves each vertex is read in one place,
``_colors_left``.

A cover's canonical JSON text has one writer, ``cover_to_json_text``,
which reads it straight off these rows; ``cover_to_json`` is that text
read back, so key names, slot order and pair order live in one place.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import combinations, permutations, product
from typing import Optional, Union

from .graphs import (
    BaseGraph,
    SimpleGraph,
    _bits,
    _check_int,
    _check_vertex,
    emit_graph6,
    is_json_int,
    multigraph_from_json,
    parse_graph6,
)

Matching = tuple[tuple[int, int], ...]

# per edge of a graph, the matchings it ranges over in cover enumeration
EdgeChoices = tuple[tuple[tuple[int, int], tuple[Matching, ...]], ...]

# adj[u]: a (v, rows) pair for each neighbor v of u, ascending, where rows[i]
# is the bitmask of the colors of v matched to color i of u
Adjacency = list[list[tuple[int, list[int]]]]

# one matching of the pair (u, v) as its rows u -> v and v -> u; per pair, each
# slot's rows, or None for a slot not given
_SlotRows = tuple[list[int], list[int]]
_Given = dict[tuple[int, int], list[Optional[_SlotRows]]]


def _checked_slot(
    pairs: Iterable, e: tuple[int, int], s: int, count: int, sizes: Sequence[int], flip: bool
) -> _SlotRows:
    """Slot s of the pair e = (u, v), which has count slots, as its rows u -> v and v -> u.

    The pairs are checked in the order given: each i must be a color of u
    and each j a color of v, and no color may be matched twice, which the
    rows already show when a pair comes to be written.  With flip set the
    given pairs read (j, i).
    """
    u, v = e
    size_u, size_v = sizes[u], sizes[v]
    fwd, bwd = [0] * size_u, [0] * size_v
    problem = None
    try:
        for i, j in pairs:
            if flip:
                i, j = j, i
            # is_json_int, inlined: this loop runs once per pair of every cover read
            if type(i) is not int or type(j) is not int:
                problem = f"matching {pairs!r} is not a list of int pairs"
            elif not 0 <= i < size_u:
                problem = f"pair {(i, j)} has no color {i} at vertex {u}"
            elif not 0 <= j < size_v:
                problem = f"pair {(i, j)} has no color {j} at vertex {v}"
            elif fwd[i]:
                problem = f"pair {(i, j)} matches color {i} of vertex {u} twice"
            elif bwd[j]:
                problem = f"pair {(i, j)} matches color {j} of vertex {v} twice"
            else:
                fwd[i] = 1 << j
                bwd[j] = 1 << i
                continue
            break
    except (TypeError, ValueError):  # not iterable, or an entry not a pair
        problem = f"matching {pairs!r} is not a list of int pairs"
    if problem is not None:
        where = f"edge {e}" + (f" slot {s}" if count > 1 else "")
        raise ValueError(f"{where}: {problem}")
    return fwd, bwd


def _checked_sizes(base: BaseGraph, sizes: Sequence[int]) -> tuple[int, ...]:
    if not isinstance(sizes, Sequence):
        raise ValueError(f"list sizes must be a sequence, got {sizes!r}")
    if len(sizes) != base.n:
        raise ValueError(f"got {len(sizes)} list sizes for {base.n} vertices")
    if not all(is_json_int(s) and s >= 0 for s in sizes):
        raise ValueError(f"list sizes must be non-negative ints, got {list(sizes)!r}")
    return tuple(sizes)


class Cover:
    """A cover of ``base``: per-vertex list sizes plus per-pair matchings.

    Every base is read through ``base.pairs()``: a pair of multiplicity t
    (always 1 on a simple graph) carries t matchings, one per parallel
    edge.  ``matchings`` maps a pair (u, v) to one bare matching on a
    ``SimpleGraph`` base and to exactly t matchings on a ``MultiGraph``
    base; ``Cover.from_slots`` takes the list of t on either base.  Pairs
    absent from the mapping get empty matchings.

    Every cover is well-formed, or it is not built: the sizes are a
    sequence of non-negative ints, the matchings a mapping, each matching
    key is a pair of the base, and each matching is a partial injection
    between the endpoint lists, every pair naming a color of both lists
    and no color matched twice.  Every constructor raises ValueError
    naming the edge and the pair otherwise.

    A cover is stored as its neighbor lists ``_adj`` (see the module
    docstring).  A pair of multiplicity t > 1 also keeps the rows of each
    of its t matchings, so that slots and equality can tell them apart.

    A cover never changes, so what is decided about it is kept on it:
    ``_whole``, which holds ``(find_coloring(c),)`` once the solver has
    searched the whole cover with no target and no seed; and
    ``_critical``, ``is_critical(c)`` once it has been decided, else
    None.  Equality and hashing ignore both.
    """

    __slots__ = ("base", "list_size", "_adj", "_parallel", "_whole", "_critical")

    def __init__(self, base: BaseGraph, sizes: Sequence[int], matchings: Mapping = {}):
        self._fill(base, sizes, matchings, bare=isinstance(base, SimpleGraph))

    @classmethod
    def from_slots(cls, base: BaseGraph, sizes: Sequence[int], slots: Mapping) -> "Cover":
        """A cover from the list of matchings of each pair, on any base."""
        cover = cls.__new__(cls)
        cover._fill(base, sizes, slots, bare=False)
        return cover

    def _fill(self, base: BaseGraph, sizes: Sequence[int], matchings: Mapping, bare: bool):
        sizes = _checked_sizes(base, sizes)
        if not isinstance(matchings, Mapping):
            raise ValueError(f"matchings must be a mapping from vertex pairs, got {matchings!r}")
        mult = {(u, v): t for u, v, t in base.pairs()}
        given: _Given = {}
        for key, value in matchings.items():
            try:
                u, v = key
                e = (u, v) if u < v else (v, u)
            except (TypeError, ValueError):
                raise ValueError(f"matching key {key!r} is not a vertex pair") from None
            if e not in mult:
                raise ValueError(f"matching key {key!r} is not an edge of the base graph")
            if e in given:
                raise ValueError(f"matching key {key!r}: edge {e} given twice")
            try:
                slots = (value,) if bare else list(value)
            except TypeError:
                raise ValueError(f"edge {e}: {value!r} is not a list of matchings") from None
            if len(slots) != mult[e]:
                raise ValueError(
                    f"edge {e} has multiplicity {mult[e]} but {len(slots)} matchings given"
                )
            flip = e != (u, v)
            given[e] = [
                _checked_slot(slot, e, s, len(slots), sizes, flip) for s, slot in enumerate(slots)
            ]
        self._keep(base, sizes, mult, given)

    def _keep(self, base: BaseGraph, sizes: tuple[int, ...], mult: dict, given: _Given) -> None:
        """Store the checked rows of each pair's slots; a pair or slot not given is empty.

        ``mult`` maps each pair of the base to its multiplicity, in
        ``base.pairs()`` order, sorted, so each neighbor list ascends.
        """
        self.base = base
        self.list_size = sizes
        adj: Adjacency = [[] for _ in range(base.n)]
        parallel: dict[tuple[int, int], tuple[_SlotRows, ...]] = {}
        for (u, v), t in mult.items():
            size_u, size_v = sizes[u], sizes[v]
            slots = given.get((u, v))
            if t == 1:
                fwd, bwd = slots[0] if slots else ([0] * size_u, [0] * size_v)
            else:
                kept = tuple([rows or ([0] * size_u, [0] * size_v) for rows in slots or [None] * t])
                fwd, bwd = [0] * size_u, [0] * size_v
                for f, b in kept:
                    fwd = [x | y for x, y in zip(fwd, f)]
                    bwd = [x | y for x, y in zip(bwd, b)]
                parallel[(u, v)] = kept
            adj[u].append((v, fwd))
            adj[v].append((u, bwd))
        self._adj = adj
        self._parallel = parallel
        self._whole: tuple[PartialColoring | None, ...] = ()
        self._critical: bool | None = None

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def k(self) -> int | None:
        """The uniform list size, or None if sizes differ."""
        if self.n == 0:
            return None
        first = self.list_size[0]
        return first if all(s == first for s in self.list_size) else None

    def size(self, u: int) -> int:
        return self.list_size[u]

    def edge_pairs(self) -> tuple[tuple[int, int], ...]:
        """Adjacent vertex pairs (u, v) with u < v, sorted."""
        # each neighbor list ascends; from a list, as in SimpleGraph.edges()
        return tuple([(u, v) for u, nbrs in enumerate(self._adj) for v, _ in nbrs if v > u])

    def _rows(self, u: int, v: int) -> list[int]:
        """The union of the pair's matchings as rows u -> v."""
        _check_vertex(u, self.n)
        _check_vertex(v, self.n)
        for w, row in self._adj[u]:
            if w == v:
                return row
        raise ValueError(f"({u}, {v}) is not an edge of the base graph")

    def slot_matchings(self, u: int, v: int) -> tuple[Matching, ...]:
        """Per-parallel-edge matchings for the pair, oriented u -> v, as sorted pairs."""
        union = self._rows(u, v)
        slots = self._parallel.get((u, v) if u < v else (v, u))
        rows = (union,) if slots is None else [fwd_bwd[u > v] for fwd_bwd in slots]
        # tuples from lists, as in SimpleGraph.degrees()
        return tuple(
            [tuple([(i, row.bit_length() - 1) for i, row in enumerate(r) if row]) for r in rows]
        )

    def matched_colors(self, u: int, v: int, i: int) -> tuple[int, ...]:
        """Colors of v joined to color i of u (empty if none, or if u, v or i is out of range)."""
        for w, row in self._adj[u] if 0 <= u < self.n else ():
            if w == v and 0 <= i < len(row):
                return _bits(row[i])
        return ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cover):
            return NotImplemented
        return (
            self.base == other.base
            and self.list_size == other.list_size
            and self._adj == other._adj
            and self._parallel == other._parallel
        )

    def __hash__(self) -> int:
        rows = tuple([tuple(row) for u, nbrs in enumerate(self._adj) for v, row in nbrs if v > u])
        return hash((self.base, self.list_size, rows))

    def __repr__(self) -> str:
        return f"Cover(n={self.n}, list_size={self.list_size})"


class PartialColoring:
    """Immutable map from covered vertices to picked color indices."""

    __slots__ = ("items", "_picks")

    def __init__(self, picks: Union[Mapping[int, int], Iterable[tuple[int, int]]] = ()):
        pairs = []
        for v, i in picks.items() if isinstance(picks, Mapping) else map(tuple, picks):
            if not (is_json_int(v) and is_json_int(i)) or v < 0 or i < 0:
                raise ValueError(f"invalid pick ({v!r}, {i!r})")
            pairs.append((v, i))
        pairs.sort()
        lookup: dict[int, int] = {}
        for v, i in pairs:
            if v in lookup:
                raise ValueError(f"vertex {v} picked twice")
            lookup[v] = i
        self.items: tuple[tuple[int, int], ...] = tuple(pairs)
        self._picks = lookup

    @property
    def dom(self) -> frozenset[int]:
        return frozenset(self._picks)

    def get(self, u: int) -> int | None:
        return self._picks.get(u)

    def pick(self, u: int) -> int:
        i = self.get(u)
        if i is None:
            raise KeyError(f"vertex {u} not colored")
        return i

    def __contains__(self, u: int) -> bool:
        return u in self._picks

    def __len__(self) -> int:
        return len(self.items)

    @property
    def picks(self) -> dict[int, int]:
        return dict(self._picks)

    def extended(self, picks: Mapping[int, int]) -> "PartialColoring":
        merged = self.picks
        for v, i in picks.items():
            if v in merged:
                raise ValueError(f"vertex {v} already colored")
            merged[v] = i
        return PartialColoring(merged)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartialColoring):
            return NotImplemented
        return self.items == other.items

    def __hash__(self) -> int:
        return hash(self.items)

    def __repr__(self) -> str:
        return f"PartialColoring({dict(self.items)!r})"


def is_full_matching(c: Cover, u: int, v: int) -> bool:
    """The union of the pair's matchings has size(u) pairs and touches every color of u and v."""
    fwd, bwd = c._rows(u, v), c._rows(v, u)
    return sum(row.bit_count() for row in fwd) == c.size(u) and all(fwd) and all(bwd)


def cover_from_lists(g: BaseGraph, lists: Sequence[Sequence[object]]) -> Cover:
    """Cover whose matchings join equal colors of adjacent lists.

    Color i of vertex u stands for sorted(lists[u])[i]; adjacent lists are
    matched on shared colors.  Colorings of the result are exactly the
    proper list-colorings of ``g`` from ``lists``.
    """
    if len(lists) != g.n:
        raise ValueError(f"got {len(lists)} lists for {g.n} vertices")
    sorted_lists = []
    for u, lst in enumerate(lists):
        values = list(lst)
        if len(set(values)) != len(values):
            raise ValueError(f"list of vertex {u} has repeated colors")
        sorted_lists.append(sorted(values))  # type: ignore[type-var]
    index = [{c: i for i, c in enumerate(lst)} for lst in sorted_lists]

    def shared(u: int, v: int) -> Matching:
        common = set(sorted_lists[u]) & set(sorted_lists[v])
        return tuple(sorted((index[u][c], index[v][c]) for c in common))

    slots = {(u, v): [shared(u, v)] * t for u, v, t in g.pairs()}
    return Cover.from_slots(g, [len(lst) for lst in sorted_lists], slots)


def _colors_left(c: Cover, p: PartialColoring) -> list[int]:
    """Per vertex, picked or not, the mask of its colors that no pick of p is joined to."""
    left = [(1 << s) - 1 for s in c.list_size]
    for v, i in p.items:
        if not 0 <= v < c.n or not 0 <= i < c.size(v):
            raise ValueError(f"pick ({v}, {i}) out of range")
        for w, row in c._adj[v]:
            left[w] &= ~row[i]
    return left


def residual_list(c: Cover, p: PartialColoring, u: int) -> tuple[int, ...]:
    """Colors of u not joined to any pick of p.  u must be uncovered."""
    _check_vertex(u, c.n)
    if u in p:
        raise ValueError(f"vertex {u} is already colored")
    return _bits(_colors_left(c, p)[u])


def is_independent(c: Cover, p: PartialColoring) -> bool:
    """True iff no two picks of p are joined by a matching pair: each pick's color is left."""
    left = _colors_left(c, p)
    return all(left[v] >> i & 1 for v, i in p.items)


def _spanning_tree_edges(g: SimpleGraph) -> set[tuple[int, int]]:
    # BFS from 0, neighbors ascending: deterministic
    nbr = g._nbr
    tree: set[tuple[int, int]] = set()
    seen = 1
    queue = [0]
    for u in queue:  # the loop reads what it appends
        new = nbr[u] & ~seen
        seen |= new
        for w in _bits(new):
            tree.add((u, w) if u < w else (w, u))
            queue.append(w)
    return tree


def partial_injections(k: int) -> tuple[Matching, ...]:
    """All partial injections of {0..k-1} into itself, deterministic order."""
    out: list[Matching] = []
    for r in range(k + 1):
        for dom in combinations(range(k), r):
            for img in permutations(range(k), r):
                out.append(tuple(zip(dom, img)))
    return tuple(out)


# the cover regimes, in the order the CLI lists them; cover_choices defines each
REGIMES = ("perfect", "partial")


def count_covers(g: SimpleGraph, k: int, regime: str) -> int:
    """Number of covers enumerate_covers will yield: the product of the edges' choices."""
    return math.prod(len(options) for _, options in cover_choices(g, k, regime))


def cover_choices(g: SimpleGraph, k: int, regime: str) -> EdgeChoices:
    """The matchings each edge of g ranges over, in g.edges() order.

    Perfect regime: the identity alone on the edges of a fixed spanning
    tree, every permutation of [k] elsewhere.  Partial regime: every
    partial injection of [k] on every edge.  The covers are the product
    of these choices, the last edge varying fastest.  The base must be a
    connected ``SimpleGraph`` on at least one vertex, k an int of at
    least 1 and the regime one of ``REGIMES``; ValueError otherwise.
    """
    if not isinstance(g, SimpleGraph):
        raise ValueError(f"cover enumeration needs a SimpleGraph base, got {type(g).__name__}")
    _check_int("k", k, 1)
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if g.n == 0 or not g.is_connected():
        raise ValueError("cover enumeration requires a connected graph on at least one vertex")
    if regime == "partial":
        injections = partial_injections(k)
        return tuple((e, injections) for e in g.edges())
    tree = _spanning_tree_edges(g)
    identity: Matching = tuple((i, i) for i in range(k))
    # a tree has every edge on the spanning tree, and needs no permutation
    perms = tuple(tuple(enumerate(p)) for p in permutations(range(k))) if g.m >= g.n else ()
    return tuple((e, (identity,) if e in tree else perms) for e in g.edges())


def enumerate_covers(g: SimpleGraph, k: int, regime: str) -> Iterator[Cover]:
    """Yield every k-fold cover of a connected graph, deterministically.

    Perfect regime: matchings are full bijections, and a spanning tree
    is pinned to the identity.  Every cover up to per-vertex relabeling
    appears, but a global relabeling's orbit can appear up to k! times.
    Partial regime: every edge ranges over all partial injections, with
    no reduction.  Bad arguments raise on the call, before the first
    cover.
    """
    choices = cover_choices(g, k, regime)
    edges = [e for e, _ in choices]
    sizes = [k] * g.n
    return (
        Cover(g, sizes, dict(zip(edges, combo)))
        for combo in product(*(options for _, options in choices))
    )


def relabel_colors(c: Cover, perms: Sequence[Sequence[int]]) -> Cover:
    """Apply a per-vertex color permutation; preserves colorability exactly."""
    if len(perms) != c.n:
        raise ValueError(f"got {len(perms)} permutations for {c.n} vertices")
    tables = []
    for u, perm in enumerate(perms):
        try:
            table = tuple(perm)
            ok = all(is_json_int(x) for x in table) and sorted(table) == list(range(c.size(u)))
        except TypeError:  # not iterable
            ok = False
        if not ok:
            raise ValueError(f"entry {u} is not a permutation of 0..{c.size(u) - 1}")
        tables.append(table)
    slots = {
        (u, v): [
            tuple(sorted((tables[u][i], tables[v][j]) for i, j in slot))
            for slot in c.slot_matchings(u, v)
        ]
        for u, v in c.edge_pairs()
    }
    return Cover.from_slots(c.base, c.list_size, slots)


def cover_to_json(c: Cover) -> dict:
    """Plain-dict form of a cover; inverse of cover_from_json.

    It is ``cover_to_json_text(c)`` read back with ``json.loads``, so the
    text stays the one place the format is written.
    """
    return json.loads(cover_to_json_text(c))


_COVER_KEYS = frozenset(("k", "list_sizes", "graph6", "multigraph", "matchings"))


def cover_from_json(data: Mapping) -> Cover:
    """Rebuild a cover from its plain-dict form, validating shape.

    Every malformed document raises ValueError, as does a key the form
    does not have and a document giving both of ``k`` and ``list_sizes``,
    or both of ``graph6`` and ``multigraph``.
    """
    if not isinstance(data, Mapping):
        raise ValueError("cover JSON must be an object")
    for key in data:
        if key not in _COVER_KEYS:
            raise ValueError(f"unknown cover JSON key {key!r}")
    for a, b in (("graph6", "multigraph"), ("k", "list_sizes")):
        if a in data and b in data:
            raise ValueError(f"cover JSON has both {a!r} and {b!r}")
    if "graph6" in data:
        if not isinstance(data["graph6"], str):
            raise ValueError(f"graph6 entry must be a string, got {data['graph6']!r}")
        base: BaseGraph = parse_graph6(data["graph6"])
    elif "multigraph" in data:
        base = multigraph_from_json(data["multigraph"])
    else:
        raise ValueError("cover JSON needs a 'graph6' or 'multigraph' entry")
    if "k" in data:
        _check_int("k", data["k"], 0)
        sizes = (data["k"],) * base.n
    elif "list_sizes" in data:
        if not isinstance(data["list_sizes"], list):
            raise ValueError(f"list_sizes must be a list, got {data['list_sizes']!r}")
        sizes = _checked_sizes(base, data["list_sizes"])
    else:
        raise ValueError("cover JSON needs a 'k' or 'list_sizes' entry")
    given = data.get("matchings", {})
    if not isinstance(given, Mapping):
        raise ValueError(f"matchings must be an object, got {given!r}")

    mult = {(u, v): t for u, v, t in base.pairs()}
    rows: _Given = {}
    for key, pairs in given.items():
        if not isinstance(key, str):
            raise ValueError(f"malformed matching key {key!r}")
        head, sep, slot_txt = key.partition("#")
        u_txt, _, v_txt = head.partition("-")
        nums = u_txt + v_txt + slot_txt
        try:
            # each number is ASCII decimal digits: int() would also take signs,
            # spaces, underscores and other scripts' digits
            if not (
                u_txt and v_txt and (slot_txt or not sep) and nums.isdigit() and nums.isascii()
            ):
                raise ValueError
            # int() still refuses more digits than sys.get_int_max_str_digits()
            u, v, slot = int(u_txt), int(v_txt), int(slot_txt or 0)
        except ValueError:
            raise ValueError(f"malformed matching key {key!r}") from None
        if u >= v:
            raise ValueError(f"matching key {key!r} must have u < v")
        t = mult.get((u, v))
        if t is None:
            raise ValueError(f"matching key {key!r} is not an edge of the base graph")
        if not 0 <= slot < t:
            raise ValueError(f"matching key {key!r}: slot out of range")
        slots = rows.setdefault((u, v), [None] * t)
        if slots[slot] is not None:
            raise ValueError(f"matching key {key!r}: slot given twice")
        slots[slot] = _checked_slot(pairs, (u, v), slot, t, sizes, False)

    cover = Cover.__new__(Cover)
    cover._keep(base, sizes, mult, rows)
    return cover


# _PAIR_TEXT[i][1 << j] is the text "[i,j]" of a matched pair, for colors
# below _TABLE_COLORS; larger colors are formatted as they come
_TABLE_COLORS = 16
_PAIR_TEXT = [{1 << j: f"[{i},{j}]" for j in range(_TABLE_COLORS)} for i in range(_TABLE_COLORS)]


def _pairs_text(fwd: list[int], size_v: int) -> str:
    """The pairs of a matching given as its rows u -> v, as JSON text; sorted since i ascends."""
    if len(fwd) <= _TABLE_COLORS and size_v <= _TABLE_COLORS:
        return ",".join([_PAIR_TEXT[i][row] for i, row in enumerate(fwd) if row])
    return ",".join([f"[{i},{row.bit_length() - 1}]" for i, row in enumerate(fwd) if row])


def cover_to_json_text(c: Cover) -> str:
    """The canonical JSON text of a cover, written straight from its stored rows.

    Keys in order: ``k`` when the list sizes are equal, else
    ``list_sizes``; ``graph6`` on a simple base, else ``multigraph``;
    then ``matchings``, which maps ``"u-v"`` (u < v, ascending) to the
    matching's sorted ``[i, j]`` pairs, or, on a pair of multiplicity
    t > 1, each ``"u-v#s"`` to slot s.  Empty matchings are left out.
    No spaces, so the text is what ``json.dumps`` with
    ``separators=(",", ":")`` writes for ``cover_to_json(c)``.  No dict
    and no ``[i, j]`` list is built on the way: each pair's text comes
    from a table, and only the graph6 string needs escaping.
    """
    k = c.k
    sizes = c.list_size
    if k is not None:
        parts = ['{"k":', str(k)]
    else:
        parts = ['{"list_sizes":[', ",".join(map(str, sizes)), "]"]
    base = c.base
    if isinstance(base, SimpleGraph):
        # graph6 bytes run from ? to ~: the backslash is the one to escape
        parts += [',"graph6":"', emit_graph6(base).replace("\\", "\\\\"), '"']
    else:
        edges = ",".join([f"[{u},{v},{t}]" for u, v, t in base.pairs()])
        parts += [',"multigraph":{"n":', str(base.n), ',"edges":[', edges, "]}"]
    named = []
    parallel = c._parallel
    for u, nbrs in enumerate(c._adj):
        for v, fwd in nbrs:
            if v < u:
                continue
            slots = parallel.get((u, v))
            if slots is None:
                if any(fwd):
                    named.append(f'"{u}-{v}":[{_pairs_text(fwd, sizes[v])}]')
            else:
                for s, (slot_fwd, _) in enumerate(slots):
                    if any(slot_fwd):
                        named.append(f'"{u}-{v}#{s}":[{_pairs_text(slot_fwd, sizes[v])}]')
    parts += [',"matchings":{', ",".join(named), "}}"]
    return "".join(parts)


def cover_from_json_text(text: str) -> Cover:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nested deeper than the JSON reader can follow
        raise ValueError(f"invalid cover JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("cover JSON must be an object")
    return cover_from_json(data)


def coloring_to_json_text(p: PartialColoring | None) -> str:
    if p is None:
        return "null"
    return json.dumps([[v, i] for v, i in p.items], separators=(",", ":"))


def coloring_from_json_text(text: str) -> PartialColoring | None:
    """Read ``null`` or a list of [vertex, color] int pairs; anything else raises ValueError."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nested deeper than the JSON reader can follow
        raise ValueError(f"invalid coloring JSON: {exc}") from None
    if data is None:
        return None
    if not isinstance(data, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(is_json_int(x) for x in p) for p in data
    ):
        raise ValueError(f"coloring JSON must be null or a list of [v, i] int pairs, got {data!r}")
    return PartialColoring([(v, i) for v, i in data])
