"""A simple graph and its all-ones MultiGraph twin give the same answers.

Covers, structure checks, enhancement and brick search read every base
through the shared graph protocol, so a cover of a simple graph and the
same cover over the twin multigraph must agree on every verdict.
"""

import dataclasses
import json
from random import Random

import pytest

from dpcolor import (
    Cover,
    MultiGraph,
    PartialColoring,
    SimpleGraph,
    color_degree_cover,
    cover_from_lists,
    degree_profile,
    emit_graph6,
    find_brick,
    find_coloring,
    find_enhancing_extension,
    is_critical,
    is_enhanced,
    verify_critical_structure,
)
from dpcolor.cli import main
from dpcolor.construct import make_c4_covers, make_dirac, make_ks_example, make_wheel

from helpers import atlas_connected, from_nx, random_connected_graph, random_cover


def twin_graph(g: SimpleGraph) -> MultiGraph:
    return MultiGraph(g.n, [(u, v, 1) for u, v in g.edges()])


def twin_cover(c: Cover) -> Cover:
    """The same cover over the twin, built through the multigraph input shape."""
    matchings = {(u, v): [c.slot_matchings(u, v)[0]] for u, v in c.edge_pairs()}
    return Cover(twin_graph(c.base), c.list_size, matchings)


def critical_covers():
    k4 = SimpleGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    out = [
        pytest.param(make_c4_covers()[1], id="twisted-c4"),
        pytest.param(cover_from_lists(k4, [[0, 1, 2]] * 4), id="k4"),
    ]
    for k in (3, 4):
        for a in range(1, k):
            g = make_dirac(k, a)
            cover = cover_from_lists(g, [list(range(k))] * g.n)
            out.append(pytest.param(cover, id=f"dirac-{k}-{a}"))
    g, lists = make_ks_example(3)
    out.append(pytest.param(cover_from_lists(g, lists), id="ks-3"))
    return out


@pytest.mark.parametrize("cover", critical_covers())
def test_critical_structure_fields_agree(cover):
    twin = twin_cover(cover)
    assert is_critical(twin)
    assert dataclasses.asdict(verify_critical_structure(cover)) == dataclasses.asdict(
        verify_critical_structure(twin)
    )


def test_coloring_verdicts_agree():
    rng = Random(8080)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(2, 6), extra_p=0.35)
        k = rng.randint(1, 3)
        c = random_cover(rng, g, [k] * g.n, perfect=rng.random() < 0.5)
        twin = twin_cover(c)
        assert [dict(nbrs) for nbrs in twin._adj] == [dict(nbrs) for nbrs in c._adj]
        assert find_coloring(twin) == find_coloring(c)
        assert is_critical(twin) == is_critical(c)


def test_enhancement_answers_agree():
    rng = Random(4242)
    checked = 0
    while checked < 60:
        g = random_connected_graph(rng, rng.randint(3, 6), extra_p=0.35)
        u = rng.randrange(g.n)
        k = g.degree(u)
        attach: list[int] = []
        for w in sorted(g.neighbors(u)):
            if all(not g.has_edge(w, x) for x in attach) and rng.random() < 0.8:
                attach.append(w)
        c = random_cover(rng, g, [k] * g.n, perfect=rng.random() < 0.5)
        rest = [v for v in g.vertices if v != u and v not in attach]
        p = find_coloring(c, target=[v for v in rest if rng.random() < 0.4])
        if p is None:
            continue
        twin = twin_cover(c)
        prof, twin_prof = degree_profile(g, k), degree_profile(twin.base, k)
        assert prof == twin_prof
        assert is_enhanced(twin, p, u, twin_prof) == is_enhanced(c, p, u, prof)
        got = find_enhancing_extension(c, p, u, attach, prof)
        assert find_enhancing_extension(twin, p, u, attach, twin_prof) == got
        if got is not None:
            assert is_enhanced(twin, got, u, twin_prof)
        checked += 1


def test_degree_cover_needs_the_simple_base_itself():
    # a degree cover names its graph; the twin multigraph is not that graph
    _, twisted = make_c4_covers()
    g = twisted.base
    assert not color_degree_cover(g, twisted).colorable
    with pytest.raises(ValueError):
        color_degree_cover(g, twin_cover(twisted))


def brick_graphs():
    graphs = [from_nx(G) for G in atlas_connected(range(2, 6))]
    graphs += [make_wheel(4), make_wheel(5), make_dirac(3, 1)]
    rng = Random(99)
    graphs += [random_connected_graph(rng, 6, extra_p=0.5) for _ in range(4)]
    return graphs


@pytest.mark.parametrize("exact", [False, True])
def test_brick_witnesses_agree(exact):
    found = 0
    for g in brick_graphs():
        for k in (3, 4, 6):
            got = find_brick(g, k, allow_submultiplicity=not exact)
            assert find_brick(twin_graph(g), k, allow_submultiplicity=not exact) == got
            found += got is not None
    assert found > 0


@pytest.mark.parametrize(
    "g, k",
    [
        (SimpleGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]), 3),
        (SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]), 4),
        (make_wheel(4), 3),
        (make_wheel(4), 4),
        (SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 6),
    ],
)
@pytest.mark.parametrize("flags", [[], ["--exact-multiplicity"]])
def test_cli_brick_same_line_for_graph6_and_multigraph(g, k, flags, capsys):
    graph_args = ["--graph", emit_graph6(g)]
    twin = twin_graph(g)
    edges = [list(p) for p in twin.pairs()]
    multi_args = ["--multigraph", json.dumps({"n": twin.n, "edges": edges})]
    lines = []
    for args in (graph_args, multi_args):
        assert main(["recognize", "--what", "brick", "--k", str(k), *args, *flags]) == 0
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1]
