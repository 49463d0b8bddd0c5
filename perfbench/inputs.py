"""Seeded inputs of the three benchmark workloads.

Each input function depends on the seed alone: the same seed gives
byte-identical inputs.  The program under test sees only the generated
graphs and cover documents, never the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from dpcolor import (
    Cover,
    SimpleGraph,
    cover_from_json,
    cover_from_lists,
    cover_to_json,
    cover_to_json_text,
    emit_graph6,
    find_coloring,
    parse_graph6,
    relabel_colors,
)
from dpcolor.construct import (
    make_c4_covers,
    make_dirac,
    make_ks_example,
    make_multigraph_counterexample,
)
from dpcolor.harness import DiracReportRow

STREAM = Path(__file__).resolve().parent / "data" / "criterion06.g6"

QUERIES_PER_PASS = 1200
# one block of the query stream: one query of each document kind, so the
# four kinds get equal shares.  No usage data gives other weights; the mix
# is fixed so that the latency percentiles do not depend on the seed.  The
# generators inside a kind follow the acceptance tests: planted covers are
# the constructed critical pairs of criterion 09, degree covers criterion 08,
# enhancement instances criterion 12 (every fifth one precolored)
SCHEDULE = ("planted", "extra", "degree", "enhance")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _relabeled(rng: random.Random, c: Cover) -> Cover:
    perms = []
    for u in range(c.n):
        perm = list(range(c.size(u)))
        rng.shuffle(perm)
        perms.append(perm)
    return relabel_colors(c, perms)


# ---------------------------------------------------------------------------
# sweep-k3


def sweep_stream(seed: int) -> list[str]:
    """The frozen stream with every graph relabeled and the lines shuffled."""
    rng = _rng("sweep-k3", seed)
    out = []
    for line in STREAM.read_text().split():
        g = parse_graph6(line)
        perm = list(range(g.n))
        rng.shuffle(perm)
        out.append(emit_graph6(SimpleGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# refute-deep


def refute_covers(seed: int) -> list[Cover]:
    """Critical k = 6 covers: Dirac identity covers a = 1..5, joined cliques."""
    rng = _rng("refute-deep", seed)
    k = 6
    covers = []
    for a in range(1, k):
        g = make_dirac(k, a)
        covers.append(cover_from_lists(g, [list(range(k))] * g.n))
    g, lists = make_ks_example(k)
    covers.append(cover_from_lists(g, lists))
    return [_relabeled(rng, c) for c in covers]


# ---------------------------------------------------------------------------
# cover-queries


@dataclass(frozen=True)
class Query:
    """One cover JSON document and what the query asks about it.

    ``row`` is the refutation row of a planted simple-graph cover, for
    ``revalidate_row``.  ``u``, ``attach``, ``picks`` and ``k`` describe an
    enhancement instance.
    """

    kind: str
    doc: str
    row: Optional[DiracReportRow] = None
    u: int = -1
    attach: tuple[int, ...] = ()
    picks: tuple[tuple[int, int], ...] = ()
    k: int = 0


def _planted() -> list[tuple[Cover, Optional[str], bool, bool]]:
    """Critical covers at k <= 4: (cover, report regime, big clique, Dirac).

    The regime is None for the multigraph cover, which no report row can
    hold.
    """
    out = [
        (make_c4_covers()[1], "perfect", False, False),
        (make_multigraph_counterexample(3)[1], None, False, False),
    ]
    for k in (3, 4):
        for a in range(1, k):
            g = make_dirac(k, a)
            out.append((cover_from_lists(g, [list(range(k))] * g.n), "perfect", False, True))
        g, lists = make_ks_example(k)
        out.append((cover_from_lists(g, lists), "partial", True, False))
    return out


def _planted_query(rng, planted) -> Query:
    cover, regime, big_clique, dirac = planted
    c = _relabeled(rng, cover)
    doc = cover_to_json_text(c)
    row = None
    if regime is not None:
        g, k = c.base, c.k
        row = DiracReportRow(
            graph6=emit_graph6(g),
            n=g.n,
            m=g.m,
            deficit=2 * g.m - (k * g.n + k - 2),
            has_big_clique=big_clique,
            is_dirac=dirac,
            regime=regime,
            critical_cover_found=True,
            witness_cover=doc,
            covers_examined=1,
            seconds=0.0,
        )
    return Query("planted", doc, row=row)


def _extra_color_query(rng, planted) -> Query:
    """A planted cover with one unmatched color added at one vertex: colorable."""
    c = _relabeled(rng, planted[0])
    data = cover_to_json(c)
    sizes = list(c.list_size)
    sizes[rng.randrange(c.n)] += 1
    data.pop("k", None)
    data["list_sizes"] = sizes
    return Query("extra", cover_to_json_text(cover_from_json(data)))


def _random_connected_graph(rng, n: int, extra_p: float) -> SimpleGraph:
    """Random spanning tree plus each remaining pair with probability extra_p."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u, v = order[rng.randrange(i)], order[i]
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_p:
                edges.add((u, v))
    return SimpleGraph(n, sorted(edges))


def _random_cover(rng, g: SimpleGraph, sizes: list[int], perfect: bool) -> Cover:
    matchings = {}
    for u, v in g.edges():
        if perfect and sizes[u] == sizes[v]:
            cols = list(range(sizes[u]))
            rng.shuffle(cols)
            matchings[(u, v)] = tuple(zip(range(sizes[u]), cols))
        else:
            rows = [i for i in range(sizes[u]) if rng.random() < 0.6]
            cols = rng.sample(range(sizes[v]), min(len(rows), sizes[v]))
            matchings[(u, v)] = tuple(sorted(zip(rows, cols)))
    return Cover(g, sizes, matchings)


def _degree_query(rng) -> Query:
    """A random cover whose list sizes are the degrees, sometimes one more.

    Graph sizes, edge probabilities and cover shapes are those of
    acceptance criterion 08.
    """
    g = _random_connected_graph(rng, rng.randint(2, 7), rng.choice([0.1, 0.3, 0.6]))
    sizes = [g.degree(u) + (1 if rng.random() < 0.2 else 0) for u in g.vertices]
    c = _random_cover(rng, g, sizes, perfect=rng.random() < 0.7)
    return Query("degree", cover_to_json_text(c))


def _enhance_query(rng, colored: bool) -> Optional[Query]:
    """An instance meeting the spoiling hypotheses, or None to draw again.

    u has degree k and ``attach`` is an independent set of at least two of
    its neighbors.  With ``colored`` set, part of the rest is precolored
    and the attach vertices keep enough uncovered degree to guarantee an
    extension, as in acceptance criterion 12.
    """
    g = _random_connected_graph(rng, rng.randint(3, 6), 0.35)
    pool = [u for u in g.vertices if g.degree(u) >= 2]
    if not pool:
        return None
    u = pool[rng.randrange(len(pool))]
    k = g.degree(u)
    nbrs = sorted(g.neighbors(u))
    rng.shuffle(nbrs)
    attach: list[int] = []
    for w in nbrs:
        if all(not g.has_edge(w, x) for x in attach):
            attach.append(w)
    if len(attach) < 2:
        return None
    c = _random_cover(rng, g, [k] * g.n, perfect=rng.random() < 0.7)
    picks: tuple[tuple[int, int], ...] = ()
    if colored:
        outside = [v for v in g.vertices if v != u and v not in attach]
        dom = sorted(v for v in outside if rng.random() < 0.5)
        if not dom:
            return None
        p = find_coloring(c, target=dom)
        if p is None:
            return None
        uncovered = set(g.vertices) - set(dom)

        def phi(v: int) -> int:
            return sum(1 for w in g.neighbors(v) if w in uncovered) - (g.degree(v) - k)

        deg_u = sum(1 for w in g.neighbors(u) if w in uncovered)
        if min(phi(v) for v in attach) <= 0 or sum(phi(v) for v in attach) <= deg_u:
            return None
        picks = p.items
    return Query(
        "enhance", cover_to_json_text(c), u=u, attach=tuple(sorted(attach)), picks=picks, k=k
    )


def query_stream(seed: int, count: int = QUERIES_PER_PASS) -> list[Query]:
    """``count`` queries in the fixed SCHEDULE mix; planted kinds in rotation."""
    rng = _rng("cover-queries", seed)
    planted = _planted()
    out: list[Query] = []
    enhance_drawn = 0
    for i in range(count):
        kind = SCHEDULE[i % len(SCHEDULE)]
        if kind in ("planted", "extra"):
            made = planted[(i // len(SCHEDULE)) % len(planted)]
            q = _planted_query(rng, made) if kind == "planted" else _extra_color_query(rng, made)
        elif kind == "degree":
            q = _degree_query(rng)
        else:
            q = None
            while q is None:
                q = _enhance_query(rng, colored=enhance_drawn % 5 == 2)
            enhance_drawn += 1
        out.append(q)
    return out

