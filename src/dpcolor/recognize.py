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

from .graphs import BaseGraph, SimpleGraph, _bits, block_decomposition, block_shape


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
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
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
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")
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
    adjacent pairs).  Vertex sets are tried in ``combinations`` order,
    the clique shape before the cycle shape; a cycle is walked along
    the pairs whose multiplicity qualifies, in ascending order, so the
    first witness is the lexicographically least.
    """
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")
    present = g.simple()._nbr
    qualifying: dict[int, list[int]] = {}

    def pairs_for(t: int) -> list[int]:
        # per vertex, the mask of the pairs a brick of multiplicity t may use
        if t not in qualifying:
            masks = [0] * g.n
            for u, v, mu in g.pairs():
                if mu >= t if allow_submultiplicity else mu == t:
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
            qualifying[t] = masks
        return qualifying[t]

    for r in range(2, g.n + 1):
        # the pairs a clique brick on r vertices may use, and a cycle brick
        clique = pairs_for(k // (r - 1)) if k % (r - 1) == 0 else None
        ring = pairs_for(k // 2) if r >= 4 and k % 2 == 0 else None
        if clique is None and ring is None:
            continue
        for vs in combinations(range(g.n), r):
            inside = sum(1 << v for v in vs)
            # a clique has every pair of vs, so no pair of vs is extra
            if clique is not None and all(clique[v] & inside == inside ^ 1 << v for v in vs):
                return BrickWitness("clique", vs, k // (r - 1))
            if ring is not None:
                if allow_submultiplicity:
                    fits = all((ring[v] & inside).bit_count() >= 2 for v in vs)
                else:
                    # every present pair of vs must be a ring pair
                    fits = all(
                        present[v] & inside == ring[v] & inside
                        and (ring[v] & inside).bit_count() == 2
                        for v in vs
                    )
                found = fits and _first_cycle(ring, inside, vs[0])
                if found:
                    return BrickWitness("cycle", found, k // 2)
    return None


def _first_cycle(ring: list[int], inside: int, start: int) -> Optional[tuple[int, ...]]:
    """The least cycle through every vertex of inside along the ring pairs, or None.

    The cycle is read from start, its second vertex below its last (one
    of each reflected pair), and is the least such sequence: a depth-first
    walk tries neighbors in ascending order.
    """
    path = [start]

    def extend(u: int, left: int) -> bool:
        if not left:
            return ring[u] >> start & 1 == 1 and path[1] < u
        for w in _bits(ring[u] & left):
            path.append(w)
            if extend(w, left ^ 1 << w):
                return True
            path.pop()
        return False

    return tuple(path) if extend(start, inside ^ 1 << start) else None
