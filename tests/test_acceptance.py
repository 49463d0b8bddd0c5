"""Acceptance gate: the toolkit's headline claims, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion (``-s`` so the lines print even on success).
"""

import time
from contextlib import contextmanager
from random import Random

from dpcolor import (
    PartialColoring,
    SimpleGraph,
    chi_dp,
    color_degree_cover,
    certificate_is_valid,
    contains_clique,
    cover_from_lists,
    degree_profile,
    enumerate_covers,
    find_coloring,
    find_enhancing_extension,
    is_colorable,
    is_critical,
    is_enhanced,
    is_gdp_forest,
    find_brick,
)
from dpcolor.construct import (
    make_c4_covers,
    make_dirac,
    make_ks_example,
    make_multigraph_counterexample,
    make_wheel,
)
from dpcolor.harness import (
    SweepConfig,
    emit_report,
    parse_report_csv,
    verify_critical_structure,
    verify_dirac_bound,
)
from dpcolor.graphs import emit_graph6

from helpers import (
    atlas_connected,
    brute_force_colorings,
    complete,
    connected_cubic_8,
    connected_gdp_trees,
    cycle,
    from_nx,
    identity_cover,
    random_connected_graph,
    random_cover,
)


@contextmanager
def criterion(number, title, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL: {title}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"criterion {number:02d} PASS: {title} ({elapsed:.2f}s)")


def test_criterion_01_cycle_thresholds():
    with criterion(1, "chi_dp(C_n) = 3 for n in 3..8", budget=1.0):
        for n in range(3, 9):
            assert chi_dp(cycle(n)) == 3


def test_criterion_02_wheel_and_clique():
    with criterion(2, "chi_dp(W4) = 3 and chi_dp(K4) = 4", budget=1.0):
        assert chi_dp(make_wheel(4)) == 3
        assert chi_dp(complete(4)) == 4


def test_criterion_03_twofold_cover_pair():
    with criterion(3, "straight C4 cover colorable, twisted uncolorable and critical", budget=1.0):
        straight, twisted = make_c4_covers()
        assert is_colorable(straight)
        assert not is_colorable(twisted)
        assert is_critical(twisted)


def test_criterion_04_joined_cliques_sharp():
    with criterion(4, "joined-cliques list instance critical with 2m - kn = 2, k in {3,4}", budget=5.0):
        for k in (3, 4):
            g, lists = make_ks_example(k)
            assert 2 * g.m - k * g.n == 2
            assert is_critical(cover_from_lists(g, lists))


def test_criterion_05_equality_family():
    with criterion(5, "every small equality graph hits the bound and is identity-critical", budget=10.0):
        for k in (3, 4):
            for a in range(1, k):
                g = make_dirac(k, a)
                assert 2 * g.m == k * g.n + k - 2
                assert not contains_clique(g, k + 1)
                assert is_critical(identity_cover(g, k))


def test_criterion_06_density_bound_sweep(tmp_path):
    title = "k = 3 sweep of all candidates on 5..8 vertices finds no critical cover"
    with criterion(6, title, budget=600.0):
        lines = [emit_graph6(from_nx(G)) for G in atlas_connected(range(5, 8))]
        lines += [emit_graph6(g) for g in connected_cubic_8()]
        rows = verify_dirac_bound(SweepConfig(k=3), lines)
        assert len(rows) == 11
        by_n = {}
        for row in rows:
            by_n[row.n] = by_n.get(row.n, 0) + 1
            assert not row.critical_cover_found
            assert row.witness_cover == ""
            assert row.deficit <= 0
            assert row.covers_examined == 6 ** (row.m - row.n + 1)
        assert by_n == {5: 1, 6: 2, 7: 3, 8: 5}
        report = tmp_path / "sweep-k3.csv"
        emit_report(rows, "csv", str(report))
        assert len(parse_report_csv(report.read_text())) == 11


def test_criterion_07_deficiency_lower_bound():
    title = "forest deficiency >= k on all small instances, equality only at K1 and K_k"
    with criterion(7, title, budget=30.0):
        trees = connected_gdp_trees(8)
        assert len(trees) > 131  # everything up to 7 vertices plus the 8s
        for k in (3, 4, 5):
            checked = equalities = 0
            for f in trees:
                if f.max_degree > k or contains_clique(f, k + 1):
                    continue
                checked += 1
                deficiency = sum(k - f.degree(u) for u in f.vertices)
                assert deficiency >= k
                if deficiency == k:
                    equalities += 1
                    is_k1 = f.n == 1
                    is_kk = f.n == k and f.m == k * (k - 1) // 2
                    assert is_k1 or is_kk
            assert checked > 100
            assert equalities == 2  # K1 and K_k both occur in the family


def test_criterion_08_degree_cover_dichotomy():
    title = "500 random degree covers: non-forest bases colorable, failures certified"
    with criterion(8, title, budget=60.0):
        rng = Random(648430)
        uncolorable = 0
        for _ in range(500):
            g = random_connected_graph(rng, rng.randint(2, 7), extra_p=rng.choice([0.1, 0.3, 0.6]))
            sizes = [g.degree(u) + (1 if rng.random() < 0.2 else 0) for u in g.vertices]
            c = random_cover(rng, g, sizes, perfect=rng.random() < 0.7)
            cert = color_degree_cover(g, c)
            assert certificate_is_valid(g, c, cert)
            if not cert.colorable:
                uncolorable += 1
                assert is_gdp_forest(g)
                assert all(s == g.degree(u) for u, s in enumerate(sizes))
            if not is_gdp_forest(g):
                assert cert.colorable
        assert uncolorable > 5  # the failing side of the dichotomy is exercised


def test_criterion_09_critical_pairs_structure():
    title = "every critical pair in the suite: degree-k core is a forest of legal blocks"
    with criterion(9, title):
        pairs = [("twisted C4", make_c4_covers()[1]), ("K4 identity", identity_cover(complete(4), 3))]
        for k in (3, 4):
            g, lists = make_ks_example(k)
            pairs.append((f"joined cliques k={k}", cover_from_lists(g, lists)))
        for k in (3, 4):
            for a in range(1, k):
                pairs.append((f"equality graph k={k} a={a}", identity_cover(make_dirac(k, a), k)))
        for k in (3, 6):
            pairs.append((f"multigraph example k={k}", make_multigraph_counterexample(k)[1]))
        for n in range(3, 7):
            bad = [c for c in enumerate_covers(cycle(n), 2, "perfect") if not is_colorable(c)]
            pairs.extend((f"uncolorable C{n} cover", c) for c in bad if is_critical(c))
        assert len(pairs) >= 14
        for name, cover in pairs:
            assert is_critical(cover), name
            report = verify_critical_structure(cover)
            assert report.min_degree_ok, name
            assert report.gdp_forest, name
            if report.in_scope:
                assert report.ok, name


def test_criterion_10_multigraph_example():
    title = "3-vertex multigraph cover uncolorable, critical, brick-free, 2m - kn = k/3"
    with criterion(10, title, budget=30.0):
        for k in (3, 6):
            mg, cover = make_multigraph_counterexample(k)
            assert 2 * mg.m - k * mg.n == k // 3
            assert not is_colorable(cover)
            assert is_critical(cover)
            assert find_brick(mg, k) is None


def test_criterion_11_solver_matches_brute_force():
    with criterion(11, "200 random covers: verdict and count match brute force", budget=30.0):
        rng = Random(71523)
        for _ in range(200):
            n = rng.randint(1, 5)
            k = rng.randint(1, 3)
            g = SimpleGraph(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            )
            c = random_cover(rng, g, [k] * n, perfect=rng.random() < 0.5)
            all_colorings = brute_force_colorings(c)
            found = find_coloring(c)
            assert (found is not None) == bool(all_colorings)
            if found is not None:
                picks = tuple(found.pick(u) for u in range(n))
                assert picks in set(all_colorings)


def _empty_domain_instance(rng):
    g = random_connected_graph(rng, rng.randint(3, 6), extra_p=0.35)
    pool = [u for u in g.vertices if g.degree(u) >= 2]
    if not pool:
        return None
    u = pool[rng.randrange(len(pool))]
    k = g.degree(u)
    nbrs = sorted(g.neighbors(u))
    rng.shuffle(nbrs)
    attach = []
    for w in nbrs:
        if all(not g.has_edge(w, x) for x in attach):
            attach.append(w)
    if len(attach) < 2:
        return None
    c = random_cover(rng, g, [k] * g.n, perfect=rng.random() < 0.7)
    return c, PartialColoring(), u, sorted(attach), degree_profile(g, k)


def _colored_domain_instance(rng):
    made = _empty_domain_instance(rng)
    if made is None:
        return None
    c, _, u, attach, prof = made
    g = c.base
    k = prof.k
    outside = [v for v in g.vertices if v != u and v not in attach]
    dom = sorted(v for v in outside if rng.random() < 0.5)
    if not dom:
        return None
    p = find_coloring(c, target=dom)
    if p is None:
        return None
    in_u = set(g.vertices) - set(dom)

    def phi(v):
        deg_in = sum(1 for w in g.neighbors(v) if w in in_u)
        return deg_in - (g.degree(v) - k)

    deg_u = sum(1 for w in g.neighbors(u) if w in in_u)
    if min(phi(v) for v in attach) <= 0 or sum(phi(v) for v in attach) <= deg_u:
        return None
    return c, p, u, attach, prof


def test_criterion_12_forced_enhancement():
    title = "200 instances meeting the spoiling hypotheses all yield an extension"
    with criterion(12, title, budget=30.0):
        rng = Random(424243)
        done = seeded = 0
        while done < 200:
            make = _colored_domain_instance if (done % 5 == 2) else _empty_domain_instance
            instance = make(rng)
            if instance is None:
                continue
            c, p, u, attach, prof = instance
            got = find_enhancing_extension(c, p, u, attach, prof)
            assert got is not None
            assert is_enhanced(c, got, u, prof)
            assert all(got.pick(v) == i for v, i in p.picks.items())
            done += 1
            seeded += 1 if p.picks else 0
        assert seeded >= 30  # both instance families are exercised
