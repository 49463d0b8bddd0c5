"""Exact search over covers: colorability, criticality, and list-size thresholds.

The search runs on a cover's conflict tables, with each vertex's
surviving colors held as an int bitmask.  It assigns color indices to
vertices one at a time, always branching on an uncovered vertex with
the fewest surviving colors (ties to the lowest index), trying colors
in ascending order, and pruning a neighbor's color the moment a
matching pair joins it to the current pick.  All answers are exact;
instances are expected to be desk scale (n at most about 13).

The search walks a list of (neighbor, rows) pairs per vertex: a
``Cover`` is stored as these lists, and a box search keeps its tables
as such lists and patches them in place, so no search builds them.
A seed's picks start it from the colors ``_colors_left`` reads.  A pick
that would empty a neighbor's colors is refused before any mask is
written, and every pick's removals go on one trail that an undo pops
back.  The scan for the fewest colors stops at the first vertex with
one color, which a full scan picks too, so the branching rule, every
pick and every node count stay those of the full scan.  The search
keeps its own stack, so no recursion limit bounds its depth.

A cover is decided once: ``find_coloring(c)`` with no target and no
seed keeps its answer on the cover, and later calls without ``stats``
(``is_colorable``, ``is_critical``) return it, as they return the
verdict a box search hands each cover it builds; ``is_critical`` keeps
its own answer too, so its deletion test runs once per cover.  Calls
with ``stats`` always search.  Nothing is kept across covers, so
``revalidate_row``, which decodes a fresh cover from its text, and
``certificate_is_valid``, which rebuilds one with ``Cover.from_slots``,
decide it again.  ``is_critical`` is the one home of the deletion
test, the box search's included, and it shares its searches: a
coloring of G - u also settles every w that is the one neighbor
conflicting with some color of u, and settles the whole test when some
color of u conflicts with no neighbor.

Deciding every cover of a graph (``first_critical_cover``, ``chi_dp``)
is a box search over the per-edge options of ``cover_choices``.  A box
gives each edge a domain of options and holds every cover that picks
from them.  The search runs on the tables of the pairs that every
option in an edge's domain shares.  Those pairs form a sub-cover of
each cover in the box, and a coloring of a cover is a coloring of every
sub-cover (Dvorak-Postle), so with no coloring every cover in the box
is uncolorable; only then are its covers enumerated, each built as a
``Cover`` that carries that verdict as its whole-cover answer, so
``is_critical`` runs only its deletion test.  A coloring phi colors every
cover in which no edge matches (phi(u), phi(v)).  The rest of the box
is split into disjoint boxes, one per edge whose domain holds such a
matching, and searched in turn.

Which phi is found decides how many boxes follow, so each box is first
searched on its union tables.  There an edge whose options together
leave some pair unmatched, and which has more than one option, gets
every pair that some option in its domain matches; the other edges keep
their shared pairs.  A coloring of the union tables spares each such
edge whole, splitting off no child there, and it colors the shared
tables too, which hold fewer pairs.  Only when the union tables have no
coloring, or no edge can be spared, is the search run on the shared
tables.  Before the union search, a color whose union row toward some
neighbor is full is dropped, and a box where a vertex has no color left
skips it.  Both table sets of a box come from one load, which patches
them together on the edges whose domain changed since the last box and
reads the live colors afresh off the rows of the edges it walks.
Only an edge with more than one option can change, or hold a killer,
so the load and the split walk those edges alone: in the perfect
regime, the edges off the pinned spanning tree.

An edge's rows on a domain depend on nothing but its option list and
the domain, so they are built once per process and shared by every box
search with those options, as are the option masks they are built
from.  The tables hold one (k, regime) at a time: a box search at
another (k, regime) replaces them, so only the current option lists
stay resident.  No row is written after it is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Iterable, Iterator, Optional

from .covers import (
    Adjacency,
    Cover,
    PartialColoring,
    _bits,
    _colors_left,
    cover_choices,
    is_full_matching,
    is_independent,
    residual_list,
)
from .graphs import (
    DegreeProfile,
    SimpleGraph,
    block_decomposition,
    block_shape,
    clique_number,
    is_json_int,
)


@dataclass
class SearchStats:
    """Counters filled in by find_coloring."""

    nodes_expanded: int = 0


def _search(
    adj: Adjacency, avail: list[int], todo: Iterable[int], stats: SearchStats
) -> Optional[dict[int, int]]:
    """Pick a color for every vertex of todo, or None if impossible.

    adj[u] lists a (v, rows) pair per neighbor v of u, ascending, rows[i]
    the mask of v's colors matched to color i of u: a cover's ``_adj`` or
    a box search's table set.  avail[u] is the bitmask of u's surviving
    colors; the search consumes it.  Vertices outside todo are ignored.
    Nodes expanded are added to stats.

    A pick that would empty a free neighbor's colors is refused before
    any mask is written, so every free vertex keeps a color: once no
    todo vertex starts empty, the scan for the fewest colors can stop at
    the first vertex with one, the vertex the full scan picks.  Each
    pick's removals go on one trail, and a frame holds the trail length
    before its pick, so an undo pops the trail back to it.  The search
    keeps its own stack, one frame per picked vertex, so its depth is
    not bounded by Python's recursion limit.
    """
    order = sorted(todo)
    free = [False] * len(avail)
    for u in order:
        if not avail[u]:
            return None
        free[u] = True
    nodes = 0
    # what the picks removed, oldest first: a free neighbor and the colors it lost
    trail: list[tuple[int, int]] = []
    # one frame per picked vertex, deepest last: the vertex, its pick, the
    # colors it has left to try, and the trail length before the pick
    frames: list[tuple[int, int, int, int]] = []
    while True:
        u = -1
        fewest = 0
        for x in order:
            if free[x]:
                count = avail[x].bit_count()
                if count == 1:
                    u = x
                    break
                if u < 0 or count < fewest:
                    u, fewest = x, count
        if u < 0:
            stats.nodes_expanded += nodes
            return {w: i for w, i, _, _ in frames}
        free[u] = False
        live = avail[u]
        mark = len(trail)
        while True:
            if live:
                low = live & -live
                live ^= low
                i = low.bit_length() - 1
                nodes += 1
                for v, row in adj[u]:
                    if free[v]:
                        left = avail[v]
                        hit = left & row[i]
                        if hit:
                            if hit == left:
                                break
                            avail[v] = left ^ hit
                            trail.append((v, hit))
                else:
                    frames.append((u, i, live, mark))
                    break
            else:
                # u has no color left: take back the pick before it
                free[u] = True
                if not frames:
                    stats.nodes_expanded += nodes
                    return None
                u, _, live, mark = frames.pop()
            while len(trail) > mark:
                v, hit = trail.pop()
                avail[v] |= hit


def find_coloring(
    c: Cover,
    target: Optional[Iterable[int]] = None,
    seed: Optional[PartialColoring] = None,
    stats: Optional[SearchStats] = None,
) -> Optional[PartialColoring]:
    """An independent set picking one color at every target vertex, or None.

    The result covers target plus the seed's domain; seed picks are kept
    as-is and must form an independent set.  ``target=None`` means all
    vertices.  Exhaustive: returns None only when no such set exists.
    The answer for the whole cover (no target, no seed) is kept on the
    cover and returned again to callers that pass no ``stats``.
    """
    whole = target is None and seed is None
    if whole and stats is None and c._whole:
        return c._whole[0]
    if seed is None:
        seed = PartialColoring()
    avail = _colors_left(c, seed)
    if not all(avail[v] >> i & 1 for v, i in seed.items):
        raise ValueError("seed is not independent")
    todo = set(range(c.n)) if target is None else set(target)
    for u in todo:
        if not 0 <= u < c.n:
            raise ValueError(f"target vertex {u} out of range")
    todo -= seed.dom
    local = SearchStats()
    assignment = _search(c._adj, avail, todo, local)
    if stats is not None:
        stats.nodes_expanded = local.nodes_expanded
    found = None if assignment is None else seed.extended(assignment)
    if whole:
        c._whole = (found,)
    return found


def is_colorable(c: Cover, stats: Optional[SearchStats] = None) -> bool:
    return find_coloring(c, stats=stats) is not None


def _survives_every_deletion(adj: Adjacency, sizes: Iterable[int]) -> bool:
    """Is the cover with these neighbor lists colorable after dropping any one vertex?

    ``adj`` is a cover's neighbor lists (see ``_search``) and ``sizes``
    its list sizes.  One coloring psi of G - u settles more than u.  A
    color i of u that no pick of psi conflicts with extends psi to the
    whole cover, which settles every deletion.  A color i of u that
    conflicts with the pick of one neighbor w alone gives, with psi, a
    coloring of G - w.
    """
    full = [(1 << s) - 1 for s in sizes]
    n = len(full)
    stats = SearchStats()
    settled = [False] * n
    for u in range(n):
        if settled[u]:
            continue
        psi = _search(adj, list(full), [w for w in range(n) if w != u], stats)
        if psi is None:
            return False
        for i in _bits(full[u]):
            hit = [w for w, row in adj[u] if row[i] >> psi[w] & 1]
            if not hit:
                return True
            if len(hit) == 1:
                settled[hit[0]] = True
    return True


def is_critical(c: Cover) -> bool:
    """Not colorable, yet colorable after dropping any one vertex.

    The answer is kept on the cover, so a cover is tested once.
    """
    if c._critical is None:
        c._critical = not is_colorable(c) and _survives_every_deletion(c._adj, c.list_size)
    return c._critical


_Rows = tuple[list[int], list[int]]
# an edge's shared rows on a domain; its union rows, or None when it cannot
# be spared; and the colors of u and of v the union rows leave live
_EdgeRows = tuple[_Rows, Optional[_Rows], int, int]

# the option tables of the current (k, regime), at most one: for each option
# list, which options match each pair (its ``holds``) and the edge rows built
# on it, per domain
_option_tables: dict[tuple[int, str], dict[tuple, tuple[list[int], dict[int, _EdgeRows]]]] = {}


class _BoxSearch:
    """The covers of one graph, split into boxes that one search decides each.

    A box is a list holding each edge's domain, a bitmask over its
    ``cover_choices`` options; its covers are the product of the
    domains.  Iterating starts from the full domains.  Each box is
    searched on its union tables first, then, if they have no coloring,
    on its shared tables; either coloring phi colors the shared pairs.
    The box is cut down to the covers phi colors, and each edge e_i
    whose domain holds killers, options that match (phi(u), phi(v)),
    pushes a child box limiting e_i to its killers and every earlier
    such edge to its other options; the child of the first killed edge
    is decided next.  An edge that got union rows holds no killer of a
    phi found on them.  The boxes yielded partition the covers, except
    that once ``bound`` is set, a box whose least cover (each domain's
    lowest option) ranks at or above it is dropped undecided.

    An edge's shared rows, union rows and live colors on a domain are
    built in one pass over its ``holds`` and kept in the process-wide
    ``_option_tables``, where every edge and every search with the same
    options finds them; no search writes into them.  Both table sets are
    neighbor lists, built in edge order with the instance, so each
    ascends as a ``Cover``'s does; after that ``load`` is the one writer
    of both.  It keeps the domain each edge holds in them and the
    rows it was loaded with, rewrites both sets only on the edges whose
    domain changed, usually one or two, at the fixed place each holds in
    its endpoints' lists, and reads the live colors afresh off the loaded
    rows.  ``load`` and the split walk only the edges with more than one
    option, since an edge with one option keeps its one domain, holds no
    killer and is never spared.  Boxes keep an entry for every edge.

    The instance counts the boxes it decides, the uncolorable ones among
    them, the spared ones, whose phi came from the union tables, and the
    covers ``first_critical`` hands to ``is_critical`` (``deletion_tests``);
    ``stats`` adds up the nodes of the box searches, and none of
    ``is_critical``'s.
    """

    def __init__(self, g: SimpleGraph, k: int, regime: str):
        self.choices = cover_choices(g, k, regime)
        self.graph = g
        self.k = k
        self.bound: Optional[int] = None
        self.boxes = self.uncolorable = self.spared = self.deletion_tests = 0
        self.stats = SearchStats()
        # picking option d at edge p adds d * weights[p] to a cover's rank
        sizes = [len(options) for _, options in self.choices]
        self.weights = [prod(sizes[p + 1 :]) for p in range(len(sizes))]
        # holds[p][i * k + j]: the options of edge p matching color i of u to
        # color j of v; _built[p]: the edge rows built on them, per domain; both
        # from _option_tables, where each option list is looked up once
        tables = _option_tables.get((k, regime))
        if tables is None:
            _option_tables.clear()
            tables = _option_tables[k, regime] = {}
        looked_up: dict[int, tuple[list[int], dict[int, _EdgeRows]]] = {}
        self.holds: list[list[int]] = []
        self._built: list[dict[int, _EdgeRows]] = []
        for _, options in self.choices:
            entry = looked_up.get(id(options))
            if entry is None:
                entry = tables.get(options)
                if entry is None:
                    masks = [0] * (k * k)
                    for d, matching in enumerate(options):
                        for i, j in matching:
                            masks[i * k + j] |= 1 << d
                    entry = tables[options] = (masks, {})
                looked_up[id(options)] = entry
            self.holds.append(entry[0])
            self._built.append(entry[1])
        # the shared and the union table sets as neighbor lists, the domain
        # each edge holds in both, and the rows it was loaded with
        self.conf: Adjacency = [[] for _ in range(g.n)]
        self.union: Adjacency = [[] for _ in range(g.n)]
        self._held = [(1 << len(options)) - 1 for _, options in self.choices]
        self._loaded = [self._edge_rows(p, dom) for p, dom in enumerate(self._held)]
        # the edges with more than one option and their places in their ends'
        # lists: no other edge's domain changes, holds a killer or is spared
        self._free: list[tuple[int, int, int, int, int]] = []
        for p, ((u, v), options) in enumerate(self.choices):
            if len(options) > 1:
                self._free.append((p, u, v, len(self.conf[u]), len(self.conf[v])))
            shared, spare, _, _ = self._loaded[p]
            (fwd, bwd), (spare_fwd, spare_bwd) = shared, spare or shared
            self.conf[u].append((v, fwd))
            self.conf[v].append((u, bwd))
            self.union[u].append((v, spare_fwd))
            self.union[v].append((u, spare_bwd))

    def load(self, box: list[int]) -> Optional[list[int]]:
        """Load a box into ``conf``, its shared tables, and ``union``, its union tables.

        The shared tables hold the pairs each edge's whole domain shares.
        In the union tables an edge that can be spared gets the pairs some
        option in its domain matches, and the others keep their shared
        pairs.  One pass over the edges with more than one option, the
        only ones whose domain can change, patches both sets in place on
        the edges whose domain changed since the last load, and reads
        each vertex's live colors in the union tables afresh off every
        such edge's rows: a color of u is live unless a union row rules
        out every color of a neighbor with it.  Returns them as a fresh
        list the search may consume; None when no edge can be spared, or
        when some vertex has no live color, so that the union tables have
        no coloring.
        """
        conf, union, held, loaded = self.conf, self.union, self._held, self._loaded
        live = [(1 << self.k) - 1] * len(conf)
        spared = False
        for p, u, v, at_u, at_v in self._free:
            dom = box[p]
            if held[p] != dom:
                held[p] = dom
                loaded[p] = shared, spare, live_u, live_v = self._edge_rows(p, dom)
                (fwd, bwd), (spare_fwd, spare_bwd) = shared, spare or shared
                conf[u][at_u], conf[v][at_v] = (v, fwd), (u, bwd)
                union[u][at_u], union[v][at_v] = (v, spare_fwd), (u, spare_bwd)
            else:
                _, spare, live_u, live_v = loaded[p]
            if spare is not None:
                spared = True
                live[u] &= live_u
                live[v] &= live_v
        return live if spared and all(live) else None

    def _edge_rows(self, p: int, dom: int) -> _EdgeRows:
        """Edge p's shared rows on a domain, and its union rows with the colors they leave live.

        An edge with one option, or whose options together match all
        k * k pairs, cannot be spared; its union rows are None and it
        leaves every color live.  One pass over ``holds[p]`` builds all
        of them, once per (options, domain) in the process: later calls,
        from this search or another, return the same rows.
        """
        memo = self._built[p].get(dom)
        if memo is not None:
            return memo
        k, holds = self.k, self.holds[p]
        full = (1 << k) - 1
        fwd, bwd = [0] * k, [0] * k
        some_fwd, some_bwd = [0] * k, [0] * k
        for x, opts in enumerate(holds):
            opts &= dom
            if opts:
                i, j = divmod(x, k)
                some_fwd[i] |= 1 << j
                some_bwd[j] |= 1 << i
                if opts == dom:
                    fwd[i] |= 1 << j
                    bwd[j] |= 1 << i
        # a color whose union row is full conflicts with every color across the edge
        live_u = sum(1 << i for i, row in enumerate(some_fwd) if row != full)
        live_v = sum(1 << j for j, row in enumerate(some_bwd) if row != full)
        if dom & (dom - 1) == 0 or not live_u:
            memo = ((fwd, bwd), None, full, full)
        else:
            memo = ((fwd, bwd), (some_fwd, some_bwd), live_u, live_v)
        self._built[p][dom] = memo
        return memo

    def __iter__(self) -> Iterator[tuple[list[int], Optional[dict[int, int]]]]:
        """Each decided box with a coloring of all its covers, or None if none has one."""
        k = self.k
        n = len(self.conf)
        full = (1 << k) - 1
        stack = [[(1 << len(options)) - 1 for _, options in self.choices]]
        while stack:
            box = stack.pop()
            if self.bound is not None and self.rank(dom & -dom for dom in box) >= self.bound:
                continue
            self.boxes += 1
            live = self.load(box)
            phi = None if live is None else _search(self.union, live, range(n), self.stats)
            if phi is not None:
                self.spared += 1
            else:
                phi = _search(self.conf, [full] * n, range(n), self.stats)
            if phi is None:
                self.uncolorable += 1
                yield box, None
                continue
            children = []
            for p, u, v, _, _ in self._free:
                kill = box[p] & self.holds[p][phi[u] * k + phi[v]]
                if kill:
                    child = list(box)
                    child[p] = kill
                    children.append(child)
                    box[p] ^= kill
            # the child of the first killed edge pops first
            stack.extend(reversed(children))
            yield box, phi

    def rank(self, cover: Iterable[int]) -> int:
        """The position, from 0, in cover order of the cover picking each one-bit domain."""
        return sum((dom.bit_length() - 1) * w for dom, w in zip(cover, self.weights))

    def first_critical(self) -> tuple[int, Optional[Cover]]:
        """``first_critical_cover`` on these covers; the instance keeps its counters."""
        sizes = [self.k] * self.graph.n
        witness: Optional[Cover] = None
        for box, phi in self:
            if phi is not None:
                continue
            for cover in product(*[[1 << d for d in _bits(dom)] for dom in box]):
                if witness is not None and self.rank(cover) >= self.bound:
                    break
                picked = {
                    e: opts[dom.bit_length() - 1] for (e, opts), dom in zip(self.choices, cover)
                }
                c = Cover(self.graph, sizes, picked)
                # the box's shared tables are a sub-cover of c with no coloring
                c._whole = (None,)
                self.deletion_tests += 1
                if is_critical(c):
                    witness, self.bound = c, self.rank(cover)
                    break
        if witness is None:
            return prod(len(options) for _, options in self.choices), None
        return self.bound + 1, witness


def first_critical_cover(g: SimpleGraph, k: int, regime: str) -> tuple[int, Optional[Cover]]:
    """The first critical cover of ``enumerate_covers(g, k, regime)``.

    Returns the cover's position in that order, counted from 1, and the
    cover; or the number of covers, the product of the edges' option
    counts, and None when none is critical.  A critical cover is
    uncolorable, so it lies in a box whose shared tables have no
    coloring.  Only the covers of those boxes are built as ``Cover``
    objects, each carrying the box's verdict, and decided by
    ``is_critical``, which then runs only its deletion test; each box is
    visited in cover order up to the least critical cover found so far,
    and the cover returned is the one that passed.  Its rank bounds the
    box search from then on.
    """
    return _BoxSearch(g, k, regime).first_critical()


def _chi_dp_connected(g: SimpleGraph, max_k: Optional[int]) -> int:
    lo = max(1, clique_number(g))
    hi = g.max_degree + 1
    # every (max_degree+1)-fold cover is colorable greedily, so k = hi
    # needs no enumeration
    cap = hi if max_k is None else min(hi, max_k + 1)
    for k in range(lo, cap):
        if all(phi is not None for _, phi in _BoxSearch(g, k, "perfect")):
            return k
    if max_k is not None and hi > max_k:
        raise ValueError(f"threshold exceeds max_k={max_k}")
    return hi


def chi_dp(g: SimpleGraph, max_k: Optional[int] = None) -> int:
    """Least k such that every k-fold cover is colorable.

    Checks k from the clique number up to max_degree + 1, testing only
    full-bijection covers with a spanning tree pinned to the identity:
    completing partial matchings never turns an uncolorable cover
    colorable, and per-vertex relabelings preserve colorability, so
    these covers decide every level.  They are decided in boxes (see
    ``first_critical_cover``), and a level fails at the first box whose
    shared pairs have no coloring.  Disconnected graphs take the maximum
    over components.  A base that is not a ``SimpleGraph`` raises
    ValueError, as ``cover_choices`` does, and so does a ``max_k`` that
    is neither None nor an int.
    """
    if not isinstance(g, SimpleGraph):
        raise ValueError(f"chi_dp needs a SimpleGraph base, got {type(g).__name__}")
    if max_k is not None and not is_json_int(max_k):
        raise ValueError(f"max_k must be an int, got {max_k!r}")
    if g.n < 1:
        raise ValueError("threshold undefined for the empty graph")
    best = 1
    for comp in g.connected_components():
        sub = g.induced(comp)
        best = max(best, _chi_dp_connected(sub, max_k))
    return best


def is_enhanced(c: Cover, p: PartialColoring, u: int, profile: DegreeProfile) -> bool:
    """Does u keep more colors than its uncovered degree under p?

    u must be uncovered and have degree exactly profile.k.  The
    comparison is |residual list of u| > number of uncovered neighbors
    of u (counting multiplicities for a multigraph base).
    """
    if c.k is not None and c.k != profile.k:
        raise ValueError(f"cover has k={c.k} but profile has k={profile.k}")
    if u not in profile.D:
        raise ValueError(f"vertex {u} does not have degree exactly {profile.k}")
    if u in p:
        raise ValueError(f"vertex {u} is already colored")
    base = c.base
    deg_u = sum(base.multiplicity(u, w) for w in base.simple().neighbors(u) if w not in p)
    return len(residual_list(c, p, u)) > deg_u


def find_enhancing_extension(
    c: Cover,
    p: PartialColoring,
    u: int,
    attach: Iterable[int],
    profile: DegreeProfile,
) -> Optional[PartialColoring]:
    """Extend p over the set ``attach`` so that u becomes enhanced.

    ``attach`` must be an uncovered independent set of neighbors of u.
    All pick combinations on ``attach`` (each from its residual list)
    are tried in lexicographic order; None means no extension over
    exactly this set enhances u.
    """
    a_sorted = sorted(set(attach))
    simple = c.base.simple()
    for a in a_sorted:
        if a in p:
            raise ValueError(f"attach vertex {a} is already colored")
        if not simple.has_edge(u, a):
            raise ValueError(f"attach vertex {a} is not a neighbor of {u}")
    for i, a in enumerate(a_sorted):
        for b in a_sorted[i + 1 :]:
            if simple.has_edge(a, b):
                raise ValueError(f"attach set is not independent: edge ({a}, {b})")
    enhanced = is_enhanced(c, p, u, profile)
    if not a_sorted:
        return p if enhanced else None
    for combo in product(*[residual_list(c, p, a) for a in a_sorted]):
        p2 = p.extended(dict(zip(a_sorted, combo)))
        if is_enhanced(c, p2, u, profile):
            return p2
    return None


@dataclass(frozen=True)
class GDPCertificate:
    """Outcome of coloring against a cover with list sizes at least degrees.

    Colorable instances carry the coloring.  Uncolorable instances carry
    the structure forced on the graph: every block a clique or a cycle,
    every list size equal to the degree, and a full two-sided matching
    on every edge joining two non-cut vertices.
    """

    colorable: bool
    coloring: Optional[PartialColoring]
    blocks: Optional[tuple[tuple[str, tuple[int, ...]], ...]]
    cut_vertices: Optional[tuple[int, ...]]
    degree_tight: Optional[bool]
    saturated_pairs: Optional[tuple[tuple[int, int], ...]]


def _saturated_pairs(g: SimpleGraph, cuts: frozenset[int]) -> tuple[tuple[int, int], ...]:
    """The edges joining two non-cut vertices, sorted."""
    return tuple([(u, v) for u, v in g.edges() if u not in cuts and v not in cuts])


def color_degree_cover(g: SimpleGraph, c: Cover) -> GDPCertificate:
    """Solve a cover whose list sizes dominate the degrees, with proof.

    Uncolorability here forces a narrow structure; the returned
    certificate records it and ``certificate_is_valid`` rechecks it from
    scratch.  A structural check failing after an uncolorable verdict
    means a bug, and raises.
    """
    if not g.is_connected():
        raise ValueError("degree-cover coloring requires a connected graph")
    if c.base != g:
        raise ValueError("cover base does not match the given graph")
    for u in g.vertices:
        if c.size(u) < g.degree(u):
            raise ValueError(f"list of vertex {u} is smaller than its degree")

    coloring = find_coloring(c)
    if coloring is not None:
        return GDPCertificate(True, coloring, None, None, None, None)

    bd = block_decomposition(g)
    blocks = []
    for block in bd.blocks:
        vs = tuple(sorted(block))
        kind = block_shape(g, vs)
        if kind is None:
            raise RuntimeError(
                f"uncolorable degree cover on a block {vs} that is neither "
                "a clique nor a cycle; solver or decomposition is wrong"
            )
        blocks.append((kind, vs))
    degree_tight = all(c.size(u) == g.degree(u) for u in g.vertices)
    if not degree_tight:
        raise RuntimeError(
            "uncolorable degree cover with a list strictly larger than a "
            "degree; solver is wrong"
        )
    saturated = _saturated_pairs(g, bd.cut_vertices)
    for u, v in saturated:
        if not is_full_matching(c, u, v):
            raise RuntimeError(
                f"uncolorable degree cover but edge ({u}, {v}) between "
                "non-cut vertices is not a full matching; solver is wrong"
            )
    return GDPCertificate(
        False,
        None,
        tuple(blocks),
        tuple(sorted(bd.cut_vertices)),
        degree_tight,
        saturated,
    )


def certificate_is_valid(g: SimpleGraph, c: Cover, cert: GDPCertificate) -> bool:
    """Recheck a certificate from scratch (fresh cover, fresh decomposition).

    ``fresh`` is a new cover built by the validating constructor from the
    matchings ``c`` reports, so every matching is checked again and no
    answer kept on ``c`` (``_whole``, ``_critical``) is carried over: the
    recheck searches and tests ``fresh`` alone.
    """
    slots = {(u, v): c.slot_matchings(u, v) for u, v in c.edge_pairs()}
    fresh = Cover.from_slots(c.base, c.list_size, slots)
    if cert.colorable:
        p = cert.coloring
        if p is None or p.dom != frozenset(g.vertices):
            return False
        for v, i in p.items:
            if not 0 <= i < fresh.size(v):
                return False
        return is_independent(fresh, p)

    if find_coloring(fresh) is not None:
        return False
    bd = block_decomposition(g)
    if cert.blocks is None or cert.cut_vertices is None:
        return False
    if tuple(sorted(bd.cut_vertices)) != cert.cut_vertices:
        return False
    actual = {tuple(sorted(b)) for b in bd.blocks}
    if {vs for _, vs in cert.blocks} != actual:
        return False
    for kind, vs in cert.blocks:
        # a triangle is both, and either kind certifies it
        shape = block_shape(g, vs)
        if shape is None or not (kind == shape or kind == "cycle" and len(vs) == 3):
            return False
    if cert.degree_tight is not True:
        return False
    if any(fresh.size(u) != g.degree(u) for u in g.vertices):
        return False
    expected_pairs = _saturated_pairs(g, bd.cut_vertices)
    if cert.saturated_pairs is None or tuple(sorted(cert.saturated_pairs)) != expected_pairs:
        return False
    return all(is_full_matching(fresh, u, v) for u, v in expected_pairs)
