"""Shared oracles and generators for the test suite.

Everything here recomputes results from first principles (itertools
scans, networkx algorithms) so package behaviour is always checked
against an independent route.  The exceptions are the orbit-reduced
cover walk and the deletion test with one search per vertex, which
share the package's search but decide covers the way the package did
before its box search and its shared deletion test; their own tests
check them against brute force.  The package's earlier search over
dict tables, its earlier block shape and structure check on induced
subgraphs, its bit-by-bit graph6 decoder and its brick search over
every permutation are kept here too, as the oracles of the versions
that replaced them.
"""

from __future__ import annotations

import itertools
import string
from random import Random
from typing import Iterable, Iterator, Optional

import networkx as nx

from dpcolor import (
    BrickWitness,
    Cover,
    Graph6Error,
    MultiGraph,
    PartialColoring,
    SearchStats,
    SimpleGraph,
    clique_number,
    cover_choices,
    cover_from_lists,
    residual_list,
)
from dpcolor.covers import EdgeChoices, Matching
from dpcolor.graphs import BaseGraph, block_decomposition, emit_graph6
from dpcolor.harness import ComponentCheck, CriticalStructureReport
from dpcolor.solver import _search, is_critical


# conf[u][v][i]: bitmask of the colors of v matched to color i of u; the dict
# form of a cover's tables that the oracles here build
ConflictTables = list[dict[int, list[int]]]


def cycle(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def identity_cover(g: SimpleGraph, k: int) -> Cover:
    """The cover of the lists [0, k) at every vertex: equal colors matched."""
    return cover_from_lists(g, [list(range(k))] * g.n)


def to_nx(g: SimpleGraph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def from_nx(G: nx.Graph) -> SimpleGraph:
    G = nx.convert_node_labels_to_integers(G, ordering="sorted")
    return SimpleGraph(G.number_of_nodes(), G.edges())


def nx_graph6(G: nx.Graph) -> str:
    return nx.to_graph6_bytes(G, header=False).decode().strip()


def atlas_graphs() -> list[SimpleGraph]:
    """Every graph of the networkx atlas, connected or not (n <= 7)."""
    from networkx.generators.atlas import graph_atlas_g

    return [from_nx(G) for G in graph_atlas_g()]


def atlas_connected(sizes) -> list[nx.Graph]:
    """Connected atlas graphs with vertex count in ``sizes`` (exhaustive, n <= 7)."""
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for G in graph_atlas_g():
        if G.number_of_nodes() in sizes and G.number_of_nodes() > 0 and nx.is_connected(G):
            out.append(nx.convert_node_labels_to_integers(G, ordering="sorted"))
    return out


# ---------------------------------------------------------------------------
# brute-force coloring oracles


def matched_pairs(c, u: int, v: int) -> frozenset[tuple[int, int]]:
    """The union of the pair's matchings as (color of u, color of v) pairs.

    Read off ``slot_matchings``, so it serves a ``Cover`` and a
    ``ReferenceCover`` alike.
    """
    return frozenset(p for m in c.slot_matchings(u, v) for p in m)


def brute_force_colorings(c: Cover) -> list[tuple[int, ...]]:
    """Every full assignment avoiding all matched pairs, by direct product scan."""
    constraints = [(u, v, matched_pairs(c, u, v)) for u, v in c.edge_pairs()]
    hits = []
    for combo in itertools.product(*[range(c.size(u)) for u in range(c.n)]):
        if all((combo[u], combo[v]) not in h for u, v, h in constraints):
            hits.append(combo)
    return hits


def first_brute_force_coloring(c: Cover) -> tuple[int, ...] | None:
    """The first hit of the product scan above, or None.

    Scans in the same lexicographic order but skips every prefix that
    already joins two picks by a matched pair, so colorable covers with
    many vertices stay cheap.
    """
    earlier: list[list[tuple[int, set]]] = [[] for _ in range(c.n)]
    for u, v in c.edge_pairs():
        earlier[v].append((u, matched_pairs(c, u, v)))
    combo: list[int] = []

    def extend(v: int) -> bool:
        if v == c.n:
            return True
        for i in range(c.size(v)):
            if all((combo[u], i) not in h for u, h in earlier[v]):
                combo.append(i)
                if extend(v + 1):
                    return True
                combo.pop()
        return False

    return tuple(combo) if extend(0) else None


def residual_count(c: Cover) -> int:
    """Count full colorings by recursing on residual lists, vertex by vertex."""

    def rec(p: PartialColoring, todo: list[int]) -> int:
        if not todo:
            return 1
        u, rest = todo[0], todo[1:]
        return sum(rec(p.extended({u: i}), rest) for i in residual_list(c, p, u))

    return rec(PartialColoring(), list(range(c.n)))


def brute_force_survives_deletions(c: Cover) -> bool:
    """Every one-vertex deletion of c is colorable, by a pruned product scan per deletion."""
    earlier: list[list[tuple[int, set]]] = [[] for _ in range(c.n)]
    for u, v in c.edge_pairs():
        earlier[v].append((u, matched_pairs(c, u, v)))
    combo = [0] * c.n

    def colorable_without(gone: int, v: int = 0) -> bool:
        if v == c.n:
            return True
        if v == gone:
            return colorable_without(gone, v + 1)
        for i in range(c.size(v)):
            if all(u == gone or (combo[u], i) not in h for u, h in earlier[v]):
                combo[v] = i
                if colorable_without(gone, v + 1):
                    return True
        return False

    return all(colorable_without(u) for u in range(c.n))


def brute_force_k_colorable(g: SimpleGraph, k: int) -> bool:
    """Proper k-colorability by scanning all k^n assignments."""
    for combo in itertools.product(range(k), repeat=g.n):
        if all(combo[u] != combo[v] for u, v in g.edges()):
            return True
    return g.n == 0


# ---------------------------------------------------------------------------
# the pair-tuple cover: the reference for the rows a Cover stores


def conflict_rows(
    slots: Iterable[Matching], size_u: int, size_v: int
) -> tuple[list[int], list[int]]:
    """Rows of conf[u][v] and conf[v][u] for the union of the given matchings."""
    fwd = [0] * size_u
    bwd = [0] * size_v
    for slot in slots:
        for i, j in slot:
            fwd[i] |= 1 << j
            bwd[j] |= 1 << i
    return fwd, bwd


class ReferenceCover:
    """A cover kept as each pair's matchings, sorted into (i, j) pair tuples.

    This is how ``Cover`` held its matchings before it stored conflict
    rows: every matching normalized to sorted pairs oriented u < v, the
    tables built from them by ``conflict_rows``, the JSON form written
    from them.  The arguments must be valid; nothing is checked here.
    """

    def __init__(self, base: BaseGraph, sizes, matchings, bare: bool):
        self.base = base
        self.sizes = tuple(sizes)
        self.slots = {(u, v): ((),) * t for u, v, t in base.pairs()}
        for (a, b), value in matchings.items():
            e = (a, b) if a < b else (b, a)
            flip = e != (a, b)
            self.slots[e] = tuple(
                tuple(sorted((j, i) if flip else (i, j) for i, j in m))
                for m in ((value,) if bare else value)
            )

    def slot_matchings(self, u: int, v: int) -> tuple[Matching, ...]:
        if u < v:
            return self.slots[(u, v)]
        return tuple(tuple(sorted((j, i) for i, j in m)) for m in self.slots[(v, u)])

    def conflict_tables(self) -> ConflictTables:
        conf: ConflictTables = [{} for _ in range(self.base.n)]
        for (u, v), slots in self.slots.items():
            conf[u][v], conf[v][u] = conflict_rows(slots, self.sizes[u], self.sizes[v])
        return conf

    def is_full_matching(self, u: int, v: int) -> bool:
        pairs = matched_pairs(self, u, v)
        return (
            len(pairs) == self.sizes[u]
            and {i for i, _ in pairs} == set(range(self.sizes[u]))
            and {j for _, j in pairs} == set(range(self.sizes[v]))
        )

    def to_json(self) -> dict:
        out: dict = {}
        uniform = self.base.n > 0 and len(set(self.sizes)) == 1
        if uniform:
            out["k"] = self.sizes[0]
        else:
            out["list_sizes"] = list(self.sizes)
        if isinstance(self.base, SimpleGraph):
            out["graph6"] = emit_graph6(self.base)
        else:
            out["multigraph"] = {
                "n": self.base.n,
                "edges": [[u, v, t] for u, v, t in self.base.pairs()],
            }
        matchings: dict[str, list[list[int]]] = {}
        for (u, v), slots in sorted(self.slots.items()):
            for s, slot in enumerate(slots):
                if slot:
                    key = f"{u}-{v}" if len(slots) == 1 else f"{u}-{v}#{s}"
                    matchings[key] = [list(p) for p in slot]
        out["matchings"] = matchings
        return out

    def key(self) -> tuple:
        """What two covers share exactly when they compare equal."""
        return (self.base, self.sizes, self.slots)


# ---------------------------------------------------------------------------
# the orbit-reduced cover walk


def orbit_relabelings(k: int, choices: EdgeChoices, regime: str) -> list[list[int]]:
    """conj[s][d]: the choice index that relabeling s sends choice d of a moving edge to.

    Perfect regime: s runs over the k! global relabelings sigma in
    ``permutations(range(k))`` order, acting on every edge at once by
    pi -> sigma pi sigma^-1, which keeps the pinned tree's identity.
    Partial regime: the identity alone, so each cover is its own orbit.
    """
    options = next((opts for _, opts in choices if len(opts) > 1), ())
    index = {m: d for d, m in enumerate(options)}
    sigmas = itertools.permutations(range(k)) if regime == "perfect" else [tuple(range(k))]
    return [[index[tuple(sorted((s[i], s[j]) for i, j in m))] for m in options] for s in sigmas]


def orbit_walk(
    n: int, k: int, choices: EdgeChoices, regime: str
) -> Iterator[tuple[Optional[tuple[int, ...]], ConflictTables, list[int], int]]:
    """Decide one cover per orbit of the regime's relabelings, in cover order.

    Steps an odometer over the choice product on n vertices, last edge
    fastest, through the covers that are the least member of their
    orbit.  Yields, per such cover, a coloring (one pick per vertex) or
    None, the live conflict tables, the choice index of every edge, and
    the orbit size; tables and indices are only valid until the next
    step.
    """
    conj = orbit_relabelings(k, choices, regime)
    edges = [e for e, _ in choices]
    rows = [[conflict_rows((m,), k, k) for m in options] for _, options in choices]
    conf: ConflictTables = [{} for _ in range(n)]
    for (u, v), edge_rows in zip(edges, rows):
        conf[u][v], conf[v][u] = edge_rows[0]
    digits = [0] * len(choices)
    moving = [p for p, (_, options) in enumerate(choices) if len(options) > 1]
    radix = len(conj[0])
    # a subgroup of relabelings, by id: its members, the least digit
    # above each that none of them lowers, and the subgroup fixing each
    groups: list[tuple[int, ...]] = []
    ids: dict[tuple[int, ...], int] = {}
    succ: list[list[int]] = []
    fixers: list[dict[int, int]] = []

    def subgroup(members: tuple[int, ...]) -> int:
        if members not in ids:
            ids[members] = len(groups)
            groups.append(members)
            up, nxt = [radix] * radix, radix
            for d in range(radix - 1, -1, -1):
                up[d] = nxt
                if all(conj[s][d] >= d for s in members):
                    nxt = d
            succ.append(up)
            fixers.append({})
        return ids[members]

    # stab[j]: the subgroup fixing the first j moving digits; digit 0 is
    # fixed by all, so a tail of zeros keeps the stabilizer
    stab = [subgroup(tuple(range(len(conj))))] * (len(moving) + 1)
    full = (1 << k) - 1
    stats = SearchStats()
    # live views of the tables, which see every step's patch
    adj = [row.items() for row in conf]
    coloring: Optional[tuple[int, ...]] = None
    changed: list[tuple[int, int]] = []
    while True:
        if coloring is None or any(
            conf[u][v][coloring[u]] >> coloring[v] & 1 for u, v in changed
        ):
            found = _search(adj, [full] * n, range(n), stats)
            coloring = None if found is None else tuple(found[u] for u in range(n))
        yield coloring, conf, digits, len(conj) // len(groups[stab[-1]])
        for at in range(len(moving) - 1, -1, -1):
            p = moving[at]
            d = succ[stab[at]][digits[p]]
            if d < radix:
                digits[p] = d
                break
            digits[p] = 0
        else:
            return
        h = stab[at]
        if d not in fixers[h]:
            fixers[h][d] = subgroup(tuple(s for s in groups[h] if conj[s][d] == d))
        stab[at + 1 :] = [fixers[h][d]] * (len(moving) - at)
        changed = []
        for p in moving[at:]:
            u, v = edges[p]
            conf[u][v], conf[v][u] = rows[p][digits[p]]
            changed.append((u, v))


def cover_colorings(
    g: SimpleGraph, k: int, regime: str
) -> Iterator[tuple[Optional[tuple[int, ...]], int]]:
    """A coloring and the orbit size of each orbit representative of the covers.

    The orbit-reduced cover walk, kept as the oracle the box search of
    ``dpcolor.solver`` is checked against.

    In the perfect regime the k! global relabelings sigma, acting on
    every non-tree matching at once by pi -> sigma pi sigma^-1, keep
    colorability; the walk decides only the least member of each orbit
    in ``enumerate_covers(g, k, regime)`` order, and the orbit sizes sum
    to ``count_covers``.  The partial regime is not reduced: every cover
    comes with orbit size 1.  A coloring is a tuple holding the pick of
    every vertex of the representative, or None where it is
    uncolorable; one carried over from the previous representative may
    differ from what ``find_coloring`` would return.
    """
    walk = orbit_walk(g.n, k, cover_choices(g, k, regime), regime)
    return ((coloring, size) for coloring, _, _, size in walk)


def walk_chi_dp(g: SimpleGraph) -> int:
    """chi_dp of a connected graph by walking one cover per orbit at each k."""
    for k in range(max(1, clique_number(g)), g.max_degree + 1):
        if all(p is not None for p, _ in cover_colorings(g, k, "perfect")):
            return k
    return g.max_degree + 1


def deletion_test_by_vertex(conf: ConflictTables, sizes) -> bool:
    """Colorable after dropping any one vertex, with one search per vertex.

    The deletion test as the package ran it before one coloring of G - u
    settled several deletions; kept as the oracle of
    ``dpcolor.solver._survives_every_deletion``.
    """
    full = [(1 << s) - 1 for s in sizes]
    n = len(full)
    stats = SearchStats()
    adj = [row.items() for row in conf]
    return all(
        _search(adj, list(full), [w for w in range(n) if w != u], stats) is not None
        for u in range(n)
    )


def box_tables_from_scratch(
    choices: EdgeChoices, n: int, k: int, box
) -> tuple[ConflictTables, ConflictTables, Optional[list[int]]]:
    """A box's shared tables, its union tables and their live colors, built afresh.

    The oracle of ``_BoxSearch.load``: every edge, in edge order, gets
    the rows ``conflict_rows`` makes of the pairs all options in its
    domain match (shared) or some option matches (union).  An edge is
    spared when its domain has more than one option and leaves some
    pair unmatched; the union tables give the other edges their shared
    rows.  A color is live unless a spared edge's union row for it is
    full.  The live colors are None when no edge is spared or some
    vertex has no live color.
    """
    full = (1 << k) - 1
    shared: ConflictTables = [{} for _ in range(n)]
    union: ConflictTables = [{} for _ in range(n)]
    live = [full] * n
    spared = False
    for ((u, v), options), dom in zip(choices, box):
        picked = [set(options[d]) for d in range(len(options)) if dom >> d & 1]
        every = sorted(set.intersection(*picked))
        some = sorted(set.union(*picked))
        shared[u][v], shared[v][u] = conflict_rows((every,), k, k)
        if len(picked) > 1 and len(some) < k * k:
            spared = True
            union[u][v], union[v][u] = fwd, bwd = conflict_rows((some,), k, k)
            live[u] &= sum(1 << i for i, row in enumerate(fwd) if row != full)
            live[v] &= sum(1 << j for j, row in enumerate(bwd) if row != full)
        else:
            union[u][v], union[v][u] = shared[u][v], shared[v][u]
    return shared, union, (live if spared and all(live) else None)


# ---------------------------------------------------------------------------
# random instances


def random_connected_graph(rng: Random, n: int, extra_p: float = 0.3) -> SimpleGraph:
    """Random spanning tree plus each remaining pair with probability extra_p."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[rng.randrange(i)]
        v = order[i]
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_p:
                edges.add((u, v))
    return SimpleGraph(n, sorted(edges))


def random_partial_injection(rng: Random, a: int, b: int) -> tuple[tuple[int, int], ...]:
    rows = [i for i in range(a) if rng.random() < 0.6]
    cols = rng.sample(range(b), min(len(rows), b))
    rows = rows[: len(cols)]
    return tuple(sorted(zip(rows, cols)))


def random_perfect_matching(rng: Random, k: int) -> tuple[tuple[int, int], ...]:
    cols = list(range(k))
    rng.shuffle(cols)
    return tuple(sorted(zip(range(k), cols)))


def random_cover(rng: Random, g: SimpleGraph, sizes, perfect: bool = False) -> Cover:
    sizes = list(sizes)
    matchings = {}
    for u, v in g.edges():
        if perfect and sizes[u] == sizes[v]:
            matchings[(u, v)] = random_perfect_matching(rng, sizes[u])
        else:
            matchings[(u, v)] = random_partial_injection(rng, sizes[u], sizes[v])
    return Cover(g, sizes, matchings)


def random_multigraph(rng: Random, n: int, max_mult: int = 2) -> MultiGraph:
    triples = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                triples.append((u, v, rng.randint(1, max_mult)))
    return MultiGraph(n, triples)


# ---------------------------------------------------------------------------
# structural oracles built on networkx


def nx_block_kind(G: nx.Graph, block) -> str | None:
    sub = G.subgraph(block)
    b = sub.number_of_nodes()
    if sub.number_of_edges() == b * (b - 1) // 2:
        return "clique"
    if b >= 3 and all(d == 2 for _, d in sub.degree()):
        return "cycle"
    return None


def nx_is_gdp_forest(G: nx.Graph) -> bool:
    return all(nx_block_kind(G, b) is not None for b in nx.biconnected_components(G))


def nx_is_gallai_forest(G: nx.Graph) -> bool:
    for b in nx.biconnected_components(G):
        kind = nx_block_kind(G, b)
        if kind == "clique":
            continue
        if kind == "cycle" and len(b) % 2 == 1:
            continue
        return False
    return True


def nx_clique_number(G: nx.Graph) -> int:
    if G.number_of_nodes() == 0:
        return 0
    return max(len(c) for c in nx.find_cliques(G))


# ---------------------------------------------------------------------------
# exhaustive graph families


def _canonical_pool():
    """Bucketed isomorphism dedup: key by invariants, confirm by isomorphism."""
    buckets: dict[tuple, list[nx.Graph]] = {}

    def add(G: nx.Graph) -> bool:
        # each vertex's sorted neighbor degrees, as a sorted multiset
        key = (
            G.number_of_nodes(),
            G.number_of_edges(),
            tuple(sorted(tuple(sorted(G.degree(w) for w in G[v])) for v in G)),
        )
        bucket = buckets.setdefault(key, [])
        for H in bucket:
            if nx.is_isomorphic(G, H):
                return False
        bucket.append(G)
        return True

    return add


def connected_gdp_trees(max_n: int) -> list[SimpleGraph]:
    """All connected graphs with every block a clique or a cycle, up to iso.

    Grown by gluing a fresh leaf block (clique or cycle) onto one vertex
    of a smaller member; every such graph arises this way because its
    block-cut tree has a leaf block.
    """
    add = _canonical_pool()
    start = nx.Graph()
    start.add_node(0)
    add(start)
    done: list[nx.Graph] = []
    frontier = [start]
    while frontier:
        done.extend(frontier)
        grown: list[nx.Graph] = []
        for G in frontier:
            n = G.number_of_nodes()
            for v in range(n):
                for b in range(2, max_n - n + 2):
                    fresh = list(range(n, n + b - 1))
                    ring = [v] + fresh
                    for shape in ("clique", "cycle"):
                        if shape == "cycle" and b < 3:
                            continue
                        H = G.copy()
                        if shape == "clique":
                            H.add_edges_from(itertools.combinations(ring, 2))
                        else:
                            H.add_edges_from(zip(ring, ring[1:] + ring[:1]))
                        if add(H):
                            grown.append(H)
        frontier = grown
    return [from_nx(G) for G in done]


def connected_cubic_8() -> list[SimpleGraph]:
    """The connected 3-regular graphs on 8 vertices, exhaustively generated."""
    n = 8
    found: list[nx.Graph] = []
    add = _canonical_pool()
    deg = [0] * n
    adj: set[tuple[int, int]] = set()

    def rec(u: int):
        if u == n:
            G = nx.Graph(sorted(adj))
            G.add_nodes_from(range(n))
            if nx.is_connected(G) and add(G):
                found.append(G)
            return
        need = 3 - deg[u]
        if need < 0:
            return
        cands = [v for v in range(u + 1, n) if deg[v] < 3]
        # every isomorphism class has a labeling with N(0) = {1, 2, 3}
        choices = [(1, 2, 3)] if u == 0 else itertools.combinations(cands, need)
        for picks in choices:
            for v in picks:
                adj.add((u, v))
                deg[v] += 1
            deg[u] += need
            rec(u + 1)
            deg[u] -= need
            for v in picks:
                adj.discard((u, v))
                deg[v] -= 1

    rec(0)
    assert len(found) == 5, f"expected 5 connected cubic graphs on 8 vertices, got {len(found)}"
    return [from_nx(G) for G in found]


# ---------------------------------------------------------------------------
# witness checking


def dirac_witness_holds(g: SimpleGraph, k: int, w) -> bool:
    """Re-verify a claimed V1/V2/V3 split against every defining condition."""
    v1, v2, v3 = set(w.V1), set(w.V2), set(w.V3)
    if len(v1) != k or len(v2) != k - 1 or len(v3) != 2:
        return False
    if v1 | v2 | v3 != set(g.vertices) or len(v1) + len(v2) + len(v3) != g.n:
        return False
    x, y = sorted(v3)
    if g.has_edge(x, y):
        return False
    if any(not g.has_edge(a, b) for a in v1 for b in v1 if a < b):
        return False
    if any(not g.has_edge(a, b) for a in v2 for b in v2 if a < b):
        return False
    for u in v1:
        if len(v3 & g.neighbors(u)) != 1:
            return False
    for z in v3:
        if not (v1 & g.neighbors(z)):
            return False
    for u in v2:
        if v3 - g.neighbors(u):
            return False
    if any(g.has_edge(a, b) for a in v1 for b in v2):
        return False
    attach = dict(w.attachment)
    if set(attach) != v1:
        return False
    if any(not g.has_edge(u, z) or z not in v3 for u, z in attach.items()):
        return False
    return True


# ---------------------------------------------------------------------------
# earlier implementations, kept as the oracles of their replacements


def reference_search(
    conf: ConflictTables, avail: list[int], todo: Iterable[int], stats: SearchStats
) -> Optional[dict[int, int]]:
    """Pick a color for every vertex of todo, or None if impossible.

    ``dpcolor.solver._search`` as it was before it walked neighbor lists
    and undid picks from one trail: it reads ``conf[u].items()`` at each
    node, keeps a list of removals per frame, and scans every free
    vertex for the fewest colors.  Same picks, same node counts.

    avail[u] is the bitmask of u's surviving colors; the search consumes
    it.  Vertices outside todo are ignored.  Nodes expanded are added
    to stats.  The search keeps its own stack, one frame per picked
    vertex, so its depth is not bounded by Python's recursion limit.
    """
    order = sorted(todo)
    free = [False] * len(avail)
    for u in order:
        free[u] = True
    nodes = 0
    # one frame per picked vertex, deepest last: the vertex, its pick, the
    # colors it has left to try, and what the pick removed from its neighbors
    frames: list[tuple[int, int, int, list[tuple[int, int]]]] = []
    while True:
        u = -1
        fewest = 0
        for x in order:
            if free[x]:
                count = avail[x].bit_count()
                if u < 0 or count < fewest:
                    u, fewest = x, count
        if u < 0:
            stats.nodes_expanded += nodes
            return {w: i for w, i, _, _ in frames}
        free[u] = False
        live = avail[u]
        while True:
            if live:
                low = live & -live
                live ^= low
                i = low.bit_length() - 1
                nodes += 1
                removed: list[tuple[int, int]] = []
                dead = False
                for v, row in conf[u].items():
                    if free[v]:
                        hit = avail[v] & row[i]
                        if hit:
                            avail[v] ^= hit
                            removed.append((v, hit))
                            if not avail[v]:
                                dead = True
                                break
                if not dead:
                    frames.append((u, i, live, removed))
                    break
            else:
                # u has no color left: take back the pick before it
                free[u] = True
                if not frames:
                    stats.nodes_expanded += nodes
                    return None
                u, _, live, removed = frames.pop()
            for v, hit in removed:
                avail[v] |= hit


def is_clique(g: SimpleGraph) -> bool:
    """Every two vertices are adjacent (true for 0 and 1 vertices)."""
    return g.m == g.n * (g.n - 1) // 2


def is_cycle_block(g: SimpleGraph) -> bool:
    """At least 3 vertices, all of degree 2: a cycle, when g is a block (2-connected)."""
    return g.n >= 3 and all(d == 2 for d in g.degrees())


def reference_block_shape(g: SimpleGraph, vs) -> Optional[str]:
    """``block_shape(g, vs)`` as it was: the shape of the induced subgraph on vs."""
    sub = g.induced(vs)
    if is_clique(sub):
        return "clique"
    if is_cycle_block(sub):
        return "cycle"
    return None


def reference_is_gdp_forest(g: SimpleGraph) -> bool:
    return all(reference_block_shape(g, b) is not None for b in block_decomposition(g).blocks)


def reference_is_gallai_forest(g: SimpleGraph) -> bool:
    for block in block_decomposition(g).blocks:
        shape = reference_block_shape(g, block)
        if not (shape == "clique" or (shape == "cycle" and len(block) % 2 == 1)):
            return False
    return True


def reference_kind_certifies(g: SimpleGraph, vs, kind) -> bool:
    """The per-block test of ``certificate_is_valid`` as it was; a triangle is both kinds."""
    sub = g.induced(vs)
    return kind == "clique" and is_clique(sub) or kind == "cycle" and is_cycle_block(sub)


def reference_verify_critical_structure(c: Cover) -> CriticalStructureReport:
    """``verify_critical_structure`` as it was, on induced graphs and neighbor sets."""
    k = c.k
    if k is None or k < 1:
        raise ValueError("cover does not have a uniform positive list size")
    if not is_critical(c):
        raise ValueError("cover is not critical")
    base = c.base
    simple = base.simple()
    degrees = base.degrees()
    low = tuple(sorted(u for u in range(base.n) if degrees[u] == k))
    low_set = set(low)
    induced = simple.induced(low)
    forest_ok = reference_is_gdp_forest(induced)
    checks = []
    for comp in induced.connected_components():
        vs = tuple(sorted(low[i] for i in comp))
        boundary = sum(
            base.multiplicity(u, w) for u in vs for w in simple.neighbors(u) if w not in low_set
        )
        sub = simple.induced(vs)
        complete = is_clique(sub)
        is_full = complete and sub.n == k + 1 and base.n == k + 1
        bound_ok = is_full or boundary >= k
        equality = boundary == k
        equality_shape_ok = (not equality) or (complete and sub.n == k)
        checks.append(ComponentCheck(vs, boundary, is_full, bound_ok, equality, equality_shape_ok))
    min_degree = min(degrees) if degrees else 0
    in_scope = k >= 3
    structure_ok = forest_ok and all(ch.bound_ok and ch.equality_shape_ok for ch in checks)
    return CriticalStructureReport(
        k=k,
        in_scope=in_scope,
        min_degree=min_degree,
        min_degree_ok=min_degree >= k,
        D=low,
        gdp_forest=forest_ok,
        components=tuple(checks),
        ok=min_degree >= k and (structure_ok or not in_scope),
    )


def reference_parse_graph6(text: str) -> SimpleGraph:
    """``parse_graph6`` as it was: the payload read as one int, decoded bit by bit."""
    s = text.strip(string.whitespace)
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    first = ord(s[0])
    if first == 126:
        raise Graph6Error("long-form graph6 (n > 62) not supported", 0)
    if not 63 <= first <= 125:
        raise Graph6Error(f"invalid header byte {first}", 0)
    n = first - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) - 1 < nbytes:
        raise Graph6Error(f"payload too short: need {nbytes} bytes, got {len(s) - 1}", len(s))
    if len(s) - 1 > nbytes:
        raise Graph6Error(f"payload too long: need {nbytes} bytes, got {len(s) - 1}", 1 + nbytes)
    payload = 0
    for pos in range(1, len(s)):
        val = ord(s[pos]) - 63
        if not 0 <= val <= 63:
            raise Graph6Error(f"invalid payload byte {ord(s[pos])}", pos)
        payload = payload << 6 | val
    pad = 6 * nbytes - nbits
    if payload & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", nbytes)
    # the last payload bit is the pair (n - 2, n - 1), the first (0, 1)
    pairs = [(u, v) for v in range(n - 1, 0, -1) for u in range(v - 1, -1, -1)]
    bits = payload >> pad
    return SimpleGraph(n, [pair for x, pair in enumerate(pairs) if bits >> x & 1])


def reference_find_brick(
    g: BaseGraph, k: int, allow_submultiplicity: bool = True
) -> Optional[BrickWitness]:
    """``find_brick`` as it was: every permutation of each vertex set for the cycle shape."""
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")

    def pair_ok(u: int, v: int, t: int) -> bool:
        mu = g.multiplicity(u, v)
        return mu >= t if allow_submultiplicity else mu == t

    def no_extra_pairs(vs: tuple[int, ...], wanted: set[tuple[int, int]]) -> bool:
        for u, v in itertools.combinations(sorted(vs), 2):
            if (u, v) not in wanted and g.multiplicity(u, v) != 0:
                return False
        return True

    for r in range(2, g.n + 1):
        for vs in itertools.combinations(range(g.n), r):
            if k % (r - 1) == 0:
                t = k // (r - 1)
                pairs = set(itertools.combinations(vs, 2))
                if all(pair_ok(u, v, t) for u, v in pairs) and (
                    allow_submultiplicity or no_extra_pairs(vs, pairs)
                ):
                    return BrickWitness("clique", vs, t)
            if r >= 4 and k % 2 == 0:
                t = k // 2
                first, rest = vs[0], vs[1:]
                for order in itertools.permutations(rest):
                    if order[0] > order[-1]:
                        continue  # each cycle once, not its reflection
                    cyc = (first,) + order
                    ring = {tuple(sorted((cyc[i], cyc[(i + 1) % r]))) for i in range(r)}
                    if all(pair_ok(u, v, t) for u, v in ring) and (
                        allow_submultiplicity or no_extra_pairs(vs, ring)
                    ):
                        return BrickWitness("cycle", cyc, t)
    return None
