"""Structural recognizers: Gallai/GDP forests, the sharp extremal family, bricks.

A Gallai forest has every block a clique or an odd cycle; a GDP forest
allows cycles of either parity.  The Dirac recognizer decides membership
in the family of k-Dirac graphs: vertex set splittable into a k-clique
V1, a (k-1)-clique V2, and two nonadjacent vertices V3 such that every
V1 vertex has exactly one neighbor in V3, every V3 vertex at least one
neighbor in V1, every V2 vertex is adjacent to both V3 vertices, and no
other edges exist.  A k-brick is a k-regular multigraph with uniform
edge multiplicity whose underlying simple graph is a clique or a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .graphs import (
    BaseGraph,
    SimpleGraph,
    _bits,
    _check_int,
    _first_clique,
    block_decomposition,
    block_shape,
)


def is_gallai_forest(g: SimpleGraph) -> bool:
    """Every block is a clique or an odd cycle."""
    for block in block_decomposition(g).blocks:
        shape = block_shape(g, block)
        if not (shape == "clique" or (shape == "cycle" and len(block) % 2 == 1)):
            return False
    return True


def is_gdp_forest(g: SimpleGraph) -> bool:
    """Every block is a clique or a cycle (any parity)."""
    return all(block_shape(g, b) is not None for b in block_decomposition(g).blocks)


def gdp_deficiency(f: SimpleGraph, k: int) -> int:
    """sum of (k - deg(u)) over the vertices of a nonempty graph."""
    if f.n == 0:
        raise ValueError("deficiency undefined for the empty graph")
    _check_int("k", k, 1)
    return sum(k - f.degree(u) for u in f.vertices)


@dataclass(frozen=True)
class DiracWitness:
    """A certified split of a k-Dirac graph."""

    k: int
    V1: tuple[int, ...]
    V2: tuple[int, ...]
    V3: tuple[int, int]
    attachment: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "V1": list(self.V1),
            "V2": list(self.V2),
            "V3": list(self.V3),
            "attachment": [list(p) for p in self.attachment],
        }


def recognize_dirac(g: SimpleGraph, k: int) -> Optional[DiracWitness]:
    """A witness split if g is k-Dirac, else None.

    Anchors on the unique nonadjacent pair that can play the role of the
    two end vertices: everything else is determined by adjacency to that
    pair, so each candidate pair is checked directly against all the
    defining conditions, on neighbor masks.
    """
    _check_int("k", k, 3)
    if g.n != 2 * k + 1 or g.m != k * k + k - 1:
        return None
    nbr = g._nbr
    everyone = (1 << g.n) - 1
    for x, y in combinations(range(g.n), 2):
        if nbr[x] >> y & 1:
            continue
        ends = 1 << x | 1 << y
        # V2 sees both ends, V1 exactly one
        v2 = nbr[x] & nbr[y]
        v1 = nbr[x] ^ nbr[y]
        if v1 | v2 | ends != everyone or v1.bit_count() != k or v2.bit_count() != k - 1:
            continue
        # past the ends, each vertex sees exactly the rest of its own part:
        # both parts are cliques, with no edge between them
        if any(nbr[w] & ~ends != (v1 if v1 >> w & 1 else v2) ^ 1 << w for w in _bits(v1 | v2)):
            continue
        if not (nbr[x] & v1 and nbr[y] & v1):
            continue
        return DiracWitness(
            k=k,
            V1=_bits(v1),
            V2=_bits(v2),
            V3=(x, y),
            attachment=tuple([(w, x if nbr[w] >> x & 1 else y) for w in _bits(v1)]),
        )
    return None


@dataclass(frozen=True)
class BrickWitness:
    """A k-brick found inside a multigraph.

    ``vertices`` is sorted for the clique shape and in traversal order
    (starting at the smallest vertex) for the cycle shape.
    """

    shape: str
    vertices: tuple[int, ...]
    multiplicity: int

    def to_json(self) -> dict:
        return {
            "shape": self.shape,
            "vertices": list(self.vertices),
            "multiplicity": self.multiplicity,
        }


def find_brick(
    g: BaseGraph, k: int, allow_submultiplicity: bool = True
) -> Optional[BrickWitness]:
    """Search for a k-brick inside g (simple graphs too), smallest vertex sets first.

    With ``allow_submultiplicity`` (the default) the brick only needs
    each of its edges present with at least the brick multiplicity,
    which is subgraph containment; with it off, the vertex set must
    induce the brick exactly (no extra parallel copies, no extra
    adjacent pairs).  For each size r, the first r-clique of the
    qualifying pairs (``_first_clique``) and the least r-cycle of the ring
    pairs (``_first_cycle``) are sought; the lexicographically least
    sorted vertex set wins, and a set that is both is a clique.
    """
    _check_int("k", k, 3)

    def pairs_for(t: int) -> list[int]:
        # per vertex, the mask of the pairs a brick of multiplicity t may use
        masks = [0] * g.n
        for u, v, mu in g.pairs():
            if mu >= t if allow_submultiplicity else mu == t:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
        return masks

    # a vertex of a cycle brick has 2 ring pairs, and odd k has no cycle brick
    ring = pairs_for(k // 2)
    pool = sum(1 << v for v in range(g.n) if ring[v].bit_count() >= 2) if k % 2 == 0 else 0
    present = None if allow_submultiplicity else g.simple()._nbr
    for r in range(2, g.n + 1):
        # a clique of the clique pairs has every pair of its vertices, so none is extra
        clique = _bits(_first_clique(pairs_for(k // (r - 1)), r)) if k % (r - 1) == 0 else ()
        cycle = _first_cycle(ring, pool, r, present) if r >= 4 else None
        if cycle and (not clique or tuple(sorted(cycle)) < clique):
            return BrickWitness("cycle", cycle, k // 2)
        if clique:
            return BrickWitness("clique", clique, k // (r - 1))
    return None


def _first_cycle(
    ring: list[int], pool: int, r: int, present: Optional[list[int]]
) -> Optional[tuple[int, ...]]:
    """The least r-cycle along the ring pairs over the pool vertices, or None.

    A cycle is read from its least vertex s, its second vertex below its
    last.  For each s, ascending, a walk on its own stack grows paths from
    s over the pool vertices above s, lowest first; a frame holds the
    candidates left beside a pick.  The first s with a cycle gives its
    least by (sorted vertices, traversal).  With ``present`` (exact mode)
    a vertex joins a path only if its present pairs into the path reach
    the path's end alone, and s too when it closes the cycle.
    """
    for s in _bits(pool):
        above = pool >> s + 1 << s + 1
        if above.bit_count() < r - 1:
            break
        # the least vertex of a cycle has both its ring pairs above it
        if (ring[s] & above).bit_count() < 2:
            continue
        found: list[tuple[int, ...]] = []
        path, inside, stack = [s], 1 << s, [ring[s] & above]
        while stack:
            cands = stack[-1]
            if not cands:
                stack.pop()
                inside ^= 1 << path.pop()
                continue
            low = cands & -cands
            stack[-1] = cands ^ low
            w = low.bit_length() - 1
            closing = len(path) == r - 1
            if present is not None and present[w] & inside != 1 << path[-1] | closing << s:
                continue
            if not closing:
                path.append(w)
                inside |= low
                stack.append(ring[w] & above & ~inside)
            elif ring[w] >> s & 1 and path[1] < w:
                found.append((*path, w))
        if found:
            return min(found, key=lambda cycle: (sorted(cycle), cycle))
    return None
