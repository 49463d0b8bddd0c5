"""Immutable simple graphs and loopless multigraphs, with graph6 I/O.

Vertices are always 0..n-1.  ``SimpleGraph`` stores one int neighbor
bitmask per vertex and is hashable: degrees are popcounts, and
connectivity, cliques and blocks are searches over masks, with one
clique search (``_first_clique``) for every caller; its sorted edge
tuple is built on first use.  ``MultiGraph`` stores positive edge
multiplicities keyed by sorted vertex pairs.  A simple graph also answers
the multigraph calls (``pairs``, ``multiplicity``, ``simple``) as the
multigraph whose multiplicities are all 1, so covers and structure checks
never ask which kind they hold.  The graph6 codec implements
the short form of McKay's format (n <= 62): one header byte ``n + 63``
followed by ceil(n(n-1)/2 / 6) payload bytes carrying the upper triangle
of the adjacency matrix in column order, six bits per byte, each offset
by 63.  The decoder keeps one entry per header byte, holding n, the
payload length and a layout: for each payload position, a table from a
byte to the adjacency bits it sets, every row in one int, filled the
first time that byte is met there.  Each row takes a machine word of
the int (8, 16, 32 or 64 bits, the least that holds n), so a line costs
one lookup and one OR per byte and one ``struct`` unpack that splits the
rows in C, with no edge list and no per-edge checks; only a byte
missing from its table is checked.  ``_graph6_masks`` is that decoder
and returns bare neighbor masks, which the sweep filters before it
builds a graph; ``parse_graph6`` wraps them in a ``SimpleGraph``.
Parse failures raise :class:`Graph6Error` naming the byte offset.
"""

from __future__ import annotations

import string
import struct
from dataclasses import dataclass
from functools import cache
from math import isqrt
from typing import Iterable, Mapping, Optional, Sequence, Union


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of mask, ascending."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return tuple(found)


def is_json_int(x: object) -> bool:
    """An integer as JSON gives one: bool is an int subclass, but true/false are not numbers."""
    return type(x) is int


def _check_int(name: str, value: object, least: int) -> None:
    """Refuse an argument that is not an int (a bool is none) of at least ``least``."""
    if not is_json_int(value):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def _check_vertex(u: object, n: int) -> None:
    """Refuse anything but an int vertex of 0..n-1."""
    if not (is_json_int(u) and 0 <= u < n):
        raise ValueError(f"vertex {u!r} out of range for n={n}")


def _reach(nbr: Sequence[int], seed: int) -> int:
    """The mask of the component, under neighbor masks nbr, holding the one vertex of mask seed."""
    comp = todo = seed
    while todo:
        low = todo & -todo
        new = nbr[low.bit_length() - 1] & ~comp
        comp |= new
        todo = todo ^ low | new
    return comp


class SimpleGraph:
    """Undirected simple graph on vertices 0..n-1, immutable after construction."""

    __slots__ = ("n", "m", "_nbr", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        _check_int("vertex count", n, 0)
        nbr = [0] * n
        for u, v in edges:
            if not (is_json_int(u) and is_json_int(v)):
                raise ValueError(f"edge ({u!r}, {v!r}) must have int endpoints")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        self._hold(n, nbr)

    @classmethod
    def _from_masks(cls, n: int, nbr: Sequence[int], m: Optional[int] = None) -> "SimpleGraph":
        """The graph with these neighbor masks, unchecked: in range, loop-free, symmetric."""
        g = cls.__new__(cls)
        g._hold(n, nbr, m)
        return g

    def _hold(self, n: int, nbr: Sequence[int], m: Optional[int] = None) -> None:
        """Fill the slots; m, when given, is the edge count of nbr."""
        self.n = n
        # _nbr[u] has bit w set when uw is an edge
        self._nbr: tuple[int, ...] = tuple(nbr)
        self.m = sum(map(int.bit_count, nbr)) // 2 if m is None else m
        # the edge tuple, built on first use
        self._edges: Optional[tuple[tuple[int, int], ...]] = None

    @property
    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (u, v) pairs with u < v, sorted."""
        if self._edges is None:
            # from a list: tuple() of a generator shrinks a guessed tuple, which
            # CPython, once freed, keeps on a free list until a full collection
            self._edges = tuple(
                [(u, v) for u, x in enumerate(self._nbr) for v in _bits(x >> u + 1 << u + 1)]
            )
        return self._edges

    def has_edge(self, u: int, v: int) -> bool:
        _check_vertex(u, self.n)
        _check_vertex(v, self.n)
        return self._nbr[u] >> v & 1 == 1

    def neighbors(self, u: int) -> frozenset[int]:
        _check_vertex(u, self.n)
        return frozenset(_bits(self._nbr[u]))

    def degree(self, u: int) -> int:
        _check_vertex(u, self.n)
        return self._nbr[u].bit_count()

    def degrees(self) -> tuple[int, ...]:
        # from a list: tuple() fed an iterator allocates a guessed size and
        # shrinks it, so each call adds a tuple to the free list of the final
        # size, which only a full collection empties
        return tuple(list(map(int.bit_count, self._nbr)))

    @property
    def max_degree(self) -> int:
        return max(map(int.bit_count, self._nbr), default=0)

    @property
    def min_degree(self) -> int:
        return min(map(int.bit_count, self._nbr), default=0)

    def induced(self, vertices: Iterable[int]) -> "SimpleGraph":
        """Induced subgraph; result vertex i corresponds to sorted(vertices)[i]."""
        vs = list(vertices)
        # each vertex is checked before the set, which would fold 1.0 into 1
        for v in vs:
            _check_vertex(v, self.n)
        vs = sorted(set(vs))
        index = {v: i for i, v in enumerate(vs)}
        keep = sum(1 << v for v in vs)
        return SimpleGraph._from_masks(
            len(vs), [sum(1 << index[w] for w in _bits(self._nbr[v] & keep)) for v in vs]
        )

    def connected_components(self) -> tuple[frozenset[int], ...]:
        """Components sorted by smallest contained vertex."""
        comps: list[frozenset[int]] = []
        left = (1 << self.n) - 1
        while left:
            comp = _reach(self._nbr, left & -left)
            comps.append(frozenset(_bits(comp)))
            left &= ~comp
        return tuple(comps)

    def is_connected(self) -> bool:
        return self.n <= 1 or _reach(self._nbr, 1) == (1 << self.n) - 1

    def pairs(self) -> tuple[tuple[int, int, int], ...]:
        """Edges as (u, v, 1), u < v, sorted: the MultiGraph view."""
        return tuple([(u, v, 1) for u, v in self.edges()])  # from a list, as in edges()

    def multiplicity(self, u: int, v: int) -> int:
        return 1 if self.has_edge(u, v) else 0

    def simple(self) -> "SimpleGraph":
        """Itself: every multiplicity is already 1."""
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.n == other.n and self._nbr == other._nbr

    def __hash__(self) -> int:
        return hash((self.n, self._nbr))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, m={self.m})"


class MultiGraph:
    """Loopless multigraph: positive multiplicities on sorted vertex pairs."""

    __slots__ = ("n", "m", "_mult", "_simple")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]] = ()):
        _check_int("vertex count", n, 0)
        mult: dict[tuple[int, int], int] = {}
        for u, v, t in edges:
            if not (is_json_int(u) and is_json_int(v) and is_json_int(t)):
                raise ValueError(f"edge ({u!r}, {v!r}, {t!r}) must have int entries")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            if t <= 0:
                raise ValueError(f"multiplicity for ({u}, {v}) must be positive, got {t}")
            key = (u, v) if u < v else (v, u)
            mult[key] = mult.get(key, 0) + t
        self.n = n
        self._mult: dict[tuple[int, int], int] = dict(sorted(mult.items()))
        self.m = sum(self._mult.values())
        self._simple: SimpleGraph | None = None

    @property
    def vertices(self) -> range:
        return range(self.n)

    def pairs(self) -> tuple[tuple[int, int, int], ...]:
        """Distinct adjacent pairs as (u, v, multiplicity), u < v, sorted."""
        return tuple([(u, v, t) for (u, v), t in self._mult.items()])

    def multiplicity(self, u: int, v: int) -> int:
        _check_vertex(u, self.n)
        _check_vertex(v, self.n)
        key = (u, v) if u < v else (v, u)
        return self._mult.get(key, 0)

    def degree(self, u: int) -> int:
        """Degree counting multiplicities."""
        _check_vertex(u, self.n)
        return sum(t for (a, b), t in self._mult.items() if a == u or b == u)

    def degrees(self) -> tuple[int, ...]:
        degs = [0] * self.n
        for (a, b), t in self._mult.items():
            degs[a] += t
            degs[b] += t
        return tuple(degs)

    def simple(self) -> SimpleGraph:
        """Underlying simple graph (multiplicities collapsed), built on first use."""
        if self._simple is None:
            self._simple = SimpleGraph(self.n, self._mult.keys())
        return self._simple

    def is_connected(self) -> bool:
        return self.simple().is_connected()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self.n == other.n and self._mult == other._mult

    def __hash__(self) -> int:
        return hash((self.n, tuple(self._mult.items())))

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, m={self.m})"


# read only through n, m, pairs(), multiplicity(u, v), degrees() and simple()
BaseGraph = Union[SimpleGraph, MultiGraph]


def multigraph_from_json(data: object) -> MultiGraph:
    """Build a multigraph from ``{"n": n, "edges": [[u, v, mult], ...]}``.

    Any other shape raises ValueError, as do the MultiGraph checks.
    """
    edges = data.get("edges") if isinstance(data, Mapping) else None
    if (
        not isinstance(data, Mapping)
        or not is_json_int(data.get("n"))
        or not isinstance(edges, (list, tuple))
        or not all(
            isinstance(e, (list, tuple)) and len(e) == 3 and all(is_json_int(x) for x in e)
            for e in edges
        )
    ):
        raise ValueError(
            'multigraph JSON must be {"n": int, "edges": [[u, v, mult], ...]} '
            f"with int entries, got {data!r}"
        )
    return MultiGraph(data["n"], [tuple(e) for e in edges])


@cache
def _graph6_head(c: str) -> tuple[int, int, list[dict[str, int]], int, struct.Struct]:
    """What a line's header character c fixes: (n, payload length, layout, w, rows).

    Raises :class:`Graph6Error` for a header no short-form line has, so
    at most 63 entries are kept (n <= 62).  w is the row stride, the
    least of 8, 16, 32 and 64 bits that holds n, so row u of the packed
    adjacency int sits at bit w * u; the int, written as n * w // 8
    little-endian bytes, unpacks through the Struct ``rows`` as n
    unsigned words, word u being row u.  The layout holds one table per
    payload position, empty until read: table pos - 1 maps a character
    met at byte offset pos to the adjacency bits its six payload bits
    set, so pair uv sets bits w * u + v and w * v + u.  Only
    ``_graph6_learn`` writes an entry, and only for a character it
    accepts, so the tables grow to at most 64 entries each.
    """
    first = ord(c)
    if first == 126:
        raise Graph6Error("long-form graph6 (n > 62) not supported", 0)
    if not 63 <= first <= 125:
        raise Graph6Error(f"invalid header byte {first}", 0)
    n = first - 63
    nbytes = (n * (n - 1) // 2 + 5) // 6
    w = 8
    while w < n:
        w *= 2
    code = {8: "B", 16: "H", 32: "I", 64: "Q"}[w]
    return n, nbytes, [{} for _ in range(nbytes)], w, struct.Struct(f"<{n}{code}")


def _graph6_learn(s: str) -> None:
    """Enter every payload character of line s missing from its layout, in order.

    Raises :class:`Graph6Error` at the first byte no table may hold: a
    byte outside the graph6 range, or padding bits set in the last one.
    Nothing is entered for a refused byte.
    """
    n, _, layout, w, _ = _graph6_head(s[0])
    nbits = n * (n - 1) // 2
    for pos, (table, ch) in enumerate(zip(layout, s[1:]), 1):
        if ch in table:
            continue
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise Graph6Error(f"invalid payload byte {ord(ch)}", pos)
        adj = 0
        # bit b of the byte, from the top, is pair x of the column order
        # (0,1), (0,2), (1,2), (0,3), ...; pairs past nbits are padding
        for b in range(6):
            if val >> 5 - b & 1:
                x = 6 * (pos - 1) + b
                if x >= nbits:
                    # the padding, under six bits, lies in the last byte
                    raise Graph6Error("nonzero padding bits", pos)
                v = (1 + isqrt(1 + 8 * x)) // 2
                u = x - v * (v - 1) // 2
                adj |= 1 << w * u + v | 1 << w * v + u
        table[ch] = adj


def _graph6_masks(s: str) -> tuple[int, tuple[int, ...], int]:
    """Decode a stripped short-form graph6 line into (n, neighbor masks, m).

    The one decoder: ``parse_graph6`` wraps its result in a SimpleGraph,
    and the sweep reads it bare, so that a line it rejects builds no graph.
    """
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    n, nbytes, layout, _, rows = _graph6_head(s[0])
    if len(s) - 1 < nbytes:
        raise Graph6Error(
            f"payload too short: need {nbytes} bytes, got {len(s) - 1}", len(s)
        )
    if len(s) - 1 > nbytes:
        raise Graph6Error(
            f"payload too long: need {nbytes} bytes, got {len(s) - 1}", 1 + nbytes
        )
    adj = 0
    try:
        for table, ch in zip(layout, s[1:]):
            adj |= table[ch]
    except KeyError:
        _graph6_learn(s)
        # the layout now holds every byte of the line
        return _graph6_masks(s)
    return n, rows.unpack(adj.to_bytes(rows.size, "little")), adj.bit_count() // 2


def parse_graph6(text: str) -> SimpleGraph:
    """Decode one short-form graph6 line (n <= 62) into a SimpleGraph.

    Accepts an optional ``>>graph6<<`` prefix and surrounding ASCII whitespace.
    Long-form inputs (leading '~') and any byte outside the printable
    graph6 range raise :class:`Graph6Error` with the byte offset.
    """
    return SimpleGraph._from_masks(*_graph6_masks(text.strip(string.whitespace)))


def emit_graph6(g: SimpleGraph) -> str:
    """Encode a SimpleGraph (n <= 62) as a short-form graph6 string."""
    if g.n > 62:
        raise ValueError(f"graph6 short form requires n <= 62, got {g.n}")
    nbits = g.n * (g.n - 1) // 2
    nbytes = (nbits + 5) // 6
    # bit (u, v), u < v, sits at column-order position v(v-1)/2 + u from the top
    top = 6 * nbytes - 1
    payload = 0
    for v in range(1, g.n):
        for u in _bits(g._nbr[v] & ((1 << v) - 1)):
            payload |= 1 << top - v * (v - 1) // 2 - u
    return chr(g.n + 63) + "".join(
        chr((payload >> 6 * i & 63) + 63) for i in range(nbytes - 1, -1, -1)
    )


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (maximal 2-connected pieces, bridges, isolated vertices) and cut vertices."""

    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]


def block_decomposition(g: SimpleGraph) -> BlockDecomposition:
    """Hopcroft-Tarjan block decomposition, one iterative walk over the masks.

    Every edge lies in exactly one block; an isolated vertex forms a
    singleton block.  Blocks are reported sorted by their vertex tuples.
    The walk takes each vertex's untried neighbors from a mask and keeps
    a stack of the vertices entered and in no block yet: when child u of
    p finishes with ``low[u] >= disc[p]``, p, u and the vertices above u
    form a block.  The cut vertices are the vertices in two blocks or more.
    """
    nbr = g._nbr
    left = list(nbr)
    disc = [-1] * g.n
    low = [0] * g.n
    entered: list[int] = []
    blocks: list[frozenset[int]] = []
    timer = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        if not nbr[root]:
            blocks.append(frozenset((root,)))
            continue
        disc[root] = low[root] = timer
        timer += 1
        path = [root]
        while path:
            u = path[-1]
            rest = left[u]
            if rest:
                w = (rest & -rest).bit_length() - 1
                left[u] = rest & (rest - 1)
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    path.append(w)
                    entered.append(w)
                elif disc[w] < low[u]:
                    # a back edge, or the edge to u's parent: only a bridge test needs it left out
                    low[u] = disc[w]
                continue
            path.pop()
            if path:
                p = path[-1]
                if low[u] >= disc[p]:
                    block = [p]
                    while block[-1] != u:
                        block.append(entered.pop())
                    blocks.append(frozenset(block))
                elif low[u] < low[p]:
                    low[p] = low[u]

    blocks.sort(key=lambda b: tuple(sorted(b)))
    seen: set[int] = set()
    cuts: set[int] = set()
    for b in blocks:
        cuts |= seen & b
        seen |= b
    return BlockDecomposition(tuple(blocks), frozenset(cuts))


def block_shape(g: SimpleGraph, block: Optional[Iterable[int]] = None) -> Optional[str]:
    """``"clique"`` or ``"cycle"`` for a block of g, else None; a triangle is a clique.

    ``block`` is the block's vertices, all of g when not given.  The
    shape is read off the neighbor masks: in a clique each vertex sees
    every other vertex of the block, in a cycle each sees two (so the
    block has at least three vertices).
    """
    nbr = g._nbr
    inside = (1 << g.n) - 1 if block is None else sum(1 << v for v in block)
    seen = [(nbr[v] & inside).bit_count() for v in _bits(inside)]
    if all(d == len(seen) - 1 for d in seen):
        return "clique"
    if all(d == 2 for d in seen):
        return "cycle"
    return None


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex degree excesses relative to a list size k.

    ``epsilon[u]`` is deg(u) - k, ``epsilon_total`` is their sum, i.e.
    2m - kn, and ``D`` collects the vertices of degree exactly k.
    """

    k: int
    D: frozenset[int]
    epsilon: tuple[int, ...]
    epsilon_total: int


def degree_profile(g: BaseGraph, k: int) -> DegreeProfile:
    _check_int("k", k, 1)
    degs = g.degrees()
    eps = tuple([d - k for d in degs])
    return DegreeProfile(
        k=k,
        D=frozenset(u for u, d in enumerate(degs) if d == k),
        epsilon=eps,
        epsilon_total=2 * g.m - k * g.n,
    )


def _first_clique(nbr: Sequence[int], t: int) -> int:
    """The mask of the first t-clique in ``combinations`` order, or 0 (t >= 1).

    A branch and bound on its own stack over the vertices with t - 1
    neighbors or more: each step adds the lowest candidate to the clique
    and keeps its neighbors above it; a frame holds the clique as it was
    before a pick and the candidates left beside the pick.
    """
    clique = 0
    cands = sum(1 << u for u, x in enumerate(nbr) if x.bit_count() >= t - 1)
    stack: list[tuple[int, int]] = []
    while clique.bit_count() < t:
        if clique.bit_count() + cands.bit_count() >= t:
            low = cands & -cands
            stack.append((clique, cands ^ low))
            clique |= low
            cands &= nbr[low.bit_length() - 1]
        elif stack:
            clique, cands = stack.pop()
        else:
            return 0
    return clique


def contains_clique(g: SimpleGraph, t: int) -> bool:
    """Exact test for a clique on t vertices (the branch and bound of ``_first_clique``)."""
    _check_int("clique size", t, 1)
    return _first_clique(g._nbr, t) != 0


def clique_number(g: SimpleGraph) -> int:
    """Largest t such that g contains a t-clique (0 for the empty graph)."""
    if g.n == 0:
        return 0
    t = 1
    while t < g.n and contains_clique(g, t + 1):
        t += 1
    return t
