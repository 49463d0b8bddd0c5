"""Named constructions: extremal graphs, critical list instances, small covers.

Vertex layouts are fixed so the outputs are reproducible:

* ``make_dirac(k, a)``: big clique on 0..k-1, small clique on
  k..2k-2, end vertices 2k-1 and 2k; the first ``a`` big-clique
  vertices attach to end 2k-1, the rest to end 2k.
* ``make_ks_example(k)``: two (k+1)-cliques 0..k and k+1..2k+1 joined by
  the single edge (0, k+1), with lists {1..k} everywhere except
  {0..k-1} on the two joined vertices.
* ``make_c4_covers()``: the colorable straight 2-fold cover of a
  4-cycle and the uncolorable cover with one twisted edge.
* ``make_multigraph_counterexample(k)``: the 3-vertex multigraph with
  pair multiplicities k/3, 2k/3, 2k/3 and the uncolorable k-fold cover
  whose cross-list rule ties the middle coordinate of the color labels.
"""

from __future__ import annotations

from .covers import Cover, cover_from_lists
from .graphs import MultiGraph, SimpleGraph, is_json_int


def make_dirac(k: int, a: int) -> SimpleGraph:
    """The k-Dirac graph whose ends receive a and k - a big-clique vertices."""
    if not (is_json_int(k) and is_json_int(a)):
        raise ValueError(f"k and a must be ints, got {k!r} and {a!r}")
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")
    if not 1 <= a <= k - 1:
        raise ValueError(f"a must be between 1 and {k - 1}, got {a}")
    big = list(range(k))
    small = list(range(k, 2 * k - 1))
    x, y = 2 * k - 1, 2 * k
    edges = []
    edges += [(u, v) for i, u in enumerate(big) for v in big[i + 1 :]]
    edges += [(u, v) for i, u in enumerate(small) for v in small[i + 1 :]]
    edges += [(u, x) for u in big[:a]]
    edges += [(u, y) for u in big[a:]]
    edges += [(u, e) for u in small for e in (x, y)]
    return SimpleGraph(2 * k + 1, edges)


def make_ks_example(k: int) -> tuple[SimpleGraph, list[list[int]]]:
    """Two (k+1)-cliques joined by one edge, with its sharp list assignment.

    The resulting list instance is critical while 2m - kn is only 2,
    which rules out a Dirac-type bound for list instances once cliques
    of size k+1 are allowed.
    """
    if not is_json_int(k):
        raise ValueError(f"k must be an int, got {k!r}")
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    a = list(range(k + 1))
    b = list(range(k + 1, 2 * k + 2))
    edges = []
    edges += [(u, v) for i, u in enumerate(a) for v in a[i + 1 :]]
    edges += [(u, v) for i, u in enumerate(b) for v in b[i + 1 :]]
    edges.append((a[0], b[0]))
    g = SimpleGraph(2 * k + 2, edges)
    plain = list(range(1, k + 1))
    joined = list(range(k))
    lists = [joined if v in (a[0], b[0]) else list(plain) for v in g.vertices]
    return g, [list(lst) for lst in lists]


def make_c4_covers() -> tuple[Cover, Cover]:
    """The straight and the twisted 2-fold cover of a 4-cycle.

    The straight cover matches equal color indices on every edge and is
    colorable; twisting a single edge by a swap makes the cross-list
    edges form one 8-cycle, and the cover uncolorable.
    """
    c4 = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    straight = cover_from_lists(c4, [[0, 1]] * 4)
    identity = ((0, 0), (1, 1))
    twist = ((0, 1), (1, 0))
    twisted = Cover(
        c4,
        [2, 2, 2, 2],
        {(0, 1): identity, (1, 2): identity, (2, 3): identity, (0, 3): twist},
    )
    return straight, twisted


def make_wheel(r: int) -> SimpleGraph:
    """Wheel: a cycle 0..r-1 plus a hub (vertex r) adjacent to all of it."""
    if not is_json_int(r):
        raise ValueError(f"the rim size must be an int, got {r!r}")
    if r < 3:
        raise ValueError(f"the rim needs at least 3 vertices, got {r}")
    edges = [(i, (i + 1) % r) for i in range(r)]
    edges += [(i, r) for i in range(r)]
    return SimpleGraph(r + 1, edges)


def make_multigraph_counterexample(k: int) -> tuple[MultiGraph, Cover]:
    """A critical multigraph cover with 2m - kn = k/3 and no brick.

    Vertices 0, 1, 2 with multiplicities q, 2q, 2q (q = k/3) on the
    pairs (0,1), (0,2), (1,2).  Color j*q + a of a vertex stands for the
    label (j, a) with j in {0,1,2}, a in {0..q-1}.  Across the pair
    (0,1) colors conflict exactly when their j labels agree; across the
    other two pairs exactly when they differ.  Any full coloring would
    need j0 != j1 yet j0 = j2 = j1, so none exists, while dropping any
    one vertex leaves a colorable instance.
    """
    if k < 3 or k % 3 != 0:
        raise ValueError(f"k must be a positive multiple of 3, got {k}")
    q = k // 3
    mg = MultiGraph(3, [(0, 1, q), (0, 2, 2 * q), (1, 2, 2 * q)])

    def slots(shifts: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
        # slot (d, s) joins label (j, a) to label (j + d mod 3, a + s mod q)
        labels = [(j, a) for j in range(3) for a in range(q)]
        return [
            tuple(sorted((j * q + a, (j + d) % 3 * q + (a + s) % q) for j, a in labels))
            for d in shifts
            for s in range(q)
        ]

    same_j, diff_j = slots((0,)), slots((1, 2))
    cover = Cover(mg, [k, k, k], {(0, 1): same_j, (0, 2): diff_j, (1, 2): diff_j})
    return mg, cover
