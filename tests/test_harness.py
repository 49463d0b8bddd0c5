"""Sweep harness: candidate filter, report rows, revalidation, structure checks."""

import dataclasses
import io
import json
import logging
import re
from pathlib import Path
from random import Random

import pytest

import dpcolor.harness
from dpcolor import (
    Cover,
    SimpleGraph,
    cover_from_lists,
    cover_to_json_text,
    emit_graph6,
)
from dpcolor.construct import (
    make_c4_covers,
    make_dirac,
    make_ks_example,
    make_multigraph_counterexample,
    make_wheel,
)
from dpcolor.harness import (
    REPORT_FIELDS,
    DiracReportRow,
    SweepConfig,
    candidate_filter,
    emit_report,
    parse_graph6,
    parse_report_csv,
    revalidate_row,
    verify_critical_structure,
    verify_dirac_bound,
)
from dpcolor.solver import _BoxSearch

import helpers
from helpers import atlas_graphs, random_multigraph, reference_verify_critical_structure


def complete(n):
    return SimpleGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def prism():
    return SimpleGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


def k33():
    return SimpleGraph(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)])


W4_G6 = emit_graph6(make_wheel(4))


class TestCandidateFilter:
    def test_clique_rejection(self):
        assert candidate_filter(complete(4), 3) == "contains a clique of size k + 1"

    def test_wheel_accepted(self):
        assert candidate_filter(make_wheel(4), 3) is None

    def test_dirac_rejected_unless_included(self):
        g = make_dirac(3, 1)
        assert candidate_filter(g, 3) == "k-Dirac graph"
        assert candidate_filter(g, 3, include_dirac=True) is None

    def test_disconnected(self):
        g = SimpleGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert candidate_filter(g, 3) == "disconnected"

    def test_low_degree(self):
        path = SimpleGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert candidate_filter(path, 3) == "min degree below k"

    def test_density(self):
        assert candidate_filter(make_wheel(5), 3) == "2m exceeds kn + k - 2"
        # density is checked before the clique test
        assert candidate_filter(complete(5), 3) == "2m exceeds kn + k - 2"

    def test_k_validation(self):
        with pytest.raises(ValueError):
            candidate_filter(complete(4), 2)

    def test_refuses_a_non_int_k(self):
        # 3.5 answered "min degree below k" on the 4-cycle
        c4 = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        for k in (3.5, 3.0, True):
            with pytest.raises(ValueError, match=re.escape(f"k must be an int, got {k!r}")):
                candidate_filter(c4, k)


class TestVerifyDiracBound:
    def test_wheel_row(self):
        rows = verify_dirac_bound(SweepConfig(k=3), [W4_G6])
        assert len(rows) == 1
        row = rows[0]
        assert row.graph6 == W4_G6
        assert row.n == 5 and row.m == 8
        assert row.deficit == 0
        assert not row.has_big_clique and not row.is_dirac
        assert row.regime == "perfect"
        assert not row.critical_cover_found
        assert row.witness_cover == ""
        assert row.covers_examined == 6 ** 4
        assert row.seconds >= 0.0

    def test_dirac_refutation_row(self):
        g6 = emit_graph6(make_dirac(3, 1))
        rows = verify_dirac_bound(SweepConfig(k=3, include_dirac=True), [g6])
        assert len(rows) == 1
        row = rows[0]
        assert row.is_dirac and row.deficit == 0
        assert row.critical_cover_found
        assert row.covers_examined == 1  # the all-identity cover comes first
        assert row.witness_cover
        assert revalidate_row(row)

    def test_witness_failing_revalidation_raises(self, monkeypatch):
        monkeypatch.setattr(dpcolor.harness, "revalidate_row", lambda row: False)
        with pytest.raises(RuntimeError, match="witness for 'F{cZG' failed revalidation"):
            verify_dirac_bound(SweepConfig(k=3, include_dirac=True), ["F{cZG"])

    def test_rejected_graphs_produce_no_rows(self):
        stream = [emit_graph6(complete(4)), emit_graph6(make_dirac(3, 2))]
        assert verify_dirac_bound(SweepConfig(k=3), stream) == []

    def test_row_order_and_blank_lines(self):
        stream = ["", W4_G6, "   ", emit_graph6(prism()), ""]
        rows = verify_dirac_bound(SweepConfig(k=3), stream)
        assert [r.graph6 for r in rows] == [W4_G6, emit_graph6(prism())]
        assert all(not r.critical_cover_found for r in rows)

    def test_parallel_matches_serial(self):
        stream = [W4_G6, emit_graph6(k33())]
        serial = verify_dirac_bound(SweepConfig(k=3, parallelism=1), stream)
        parallel = verify_dirac_bound(SweepConfig(k=3, parallelism=2), stream)
        strip = lambda r: dataclasses.replace(r, seconds=0.0)
        assert [strip(r) for r in serial] == [strip(r) for r in parallel]

    @pytest.mark.parametrize("jobs, lines, want", [(64, 2, 2), (2, 3, 2), (3, 3, 3)])
    def test_pool_starts_at_most_one_worker_per_graph(self, jobs, lines, want, monkeypatch):
        # a recorder in place of the pool: it keeps max_workers, starts no
        # process and maps in this one
        import concurrent.futures

        started = []

        class RecordingPool:
            def __init__(self, max_workers=None):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        stream = [W4_G6, emit_graph6(k33()), emit_graph6(prism())][:lines]
        rows = verify_dirac_bound(SweepConfig(k=3, parallelism=jobs), stream)
        assert started == [want]
        assert [r.graph6 for r in rows] == stream

    def test_parse_error_names_the_line(self):
        with pytest.raises(ValueError, match="line 2"):
            verify_dirac_bound(SweepConfig(k=3), [W4_G6, "C\x1f"])
        # "C~" is K4; the trailing \x1c is not whitespace, so the line is no graph
        with pytest.raises(ValueError, match="line 2: payload too long"):
            verify_dirac_bound(SweepConfig(k=3), [W4_G6, "C~\x1c"])

    def test_size_cap_names_the_line(self):
        cfg = SweepConfig(k=3, max_n=5)
        with pytest.raises(ValueError, match="line 2.*above the cap"):
            verify_dirac_bound(cfg, [W4_G6, emit_graph6(prism())])

    def test_empty_stream(self):
        assert verify_dirac_bound(SweepConfig(k=3), []) == []

    def test_partial_regime_rows_on_the_small_candidates(self):
        # W4 and the two criterion-06 candidates on 6 vertices: every
        # partial 3-fold cover is decided, and none is critical
        stream = ["D|s", "EtTg", "ElUg"]
        rows = verify_dirac_bound(SweepConfig(k=3, regime="partial"), stream)
        assert [(r.graph6, r.m) for r in rows] == [("D|s", 8), ("EtTg", 9), ("ElUg", 9)]
        for row in rows:
            assert row.regime == "partial"
            assert not row.critical_cover_found
            assert row.covers_examined == 34**row.m


ROOT = Path(__file__).resolve().parents[1]
STREAM = ROOT / "perfbench" / "data" / "criterion06.g6"
COUNTERS = re.compile(
    r"(\S+): boxes=(\d+) uncolorable=(\d+) spared=(\d+) nodes=(\d+) deletion_tests=(\d+)"
    r" seconds=([\d.]+)"
)


def test_each_graph_logs_its_search_counters(caplog):
    n5 = next(
        line
        for line in STREAM.read_text().split("\n")
        if line and parse_graph6(line).n == 5 and candidate_filter(parse_graph6(line), 3) is None
    )
    dirac = emit_graph6(make_dirac(3, 1))
    with caplog.at_level(logging.INFO, logger="dpcolor.harness"):
        rows = verify_dirac_bound(SweepConfig(k=3, include_dirac=True), [n5, dirac])
    logged = [COUNTERS.fullmatch(r.getMessage()) for r in caplog.records]
    logged = [m.groups() for m in logged if m is not None]
    assert [g6 for g6, *_ in logged] == [row.graph6 for row in rows] == [n5, dirac]
    for (_, boxes, bad, spared, nodes, tests, seconds), row in zip(logged, rows):
        assert abs(float(seconds) - row.seconds) <= 0.0005
        # counted again by a box search of its own over the same graph
        again = _BoxSearch(parse_graph6(row.graph6), 3, "perfect")
        decided = [phi for _, phi in again]
        if not row.critical_cover_found:
            assert int(boxes) == len(decided) and int(nodes) == again.stats.nodes_expanded
            assert int(bad) == int(tests) == decided.count(None) == 0
            # a spared box is one whose coloring came from its union tables
            assert 0 < int(spared) == again.spared < int(boxes)
        else:
            # the witness, the first cover, ends the search: its box was
            # uncolorable and its deletion test the only one
            assert row.covers_examined == 1 and int(bad) == int(tests) == 1
            assert 0 < int(boxes) <= len(decided) and int(nodes) > 0
            assert int(spared) < int(boxes)


# the criterion-06 rows, every field but ``seconds``, with and without
# include_dirac: any change to how covers are decided must reproduce them
GOLDEN_ROWS = json.loads((ROOT / "tests" / "data" / "criterion06_rows.json").read_text())


@pytest.mark.parametrize("include_dirac", [False, True], ids=["exclude_dirac", "include_dirac"])
def test_criterion06_rows_match_the_golden_file(include_dirac):
    stream = (ROOT / "perfbench" / "data" / "criterion06.g6").read_text().splitlines()
    rows = verify_dirac_bound(SweepConfig(k=3, include_dirac=include_dirac), stream)
    expected = GOLDEN_ROWS["include_dirac" if include_dirac else "exclude_dirac"]
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        got = dataclasses.asdict(row)
        assert got.pop("seconds") >= 0.0
        assert got == want


@pytest.fixture(scope="module")
def found():
    g6 = emit_graph6(make_dirac(3, 1))
    rows = verify_dirac_bound(SweepConfig(k=3, include_dirac=True), [g6])
    return rows[0]


@pytest.fixture(scope="module")
def rows():
    stream = [W4_G6, emit_graph6(make_dirac(3, 1))]
    return verify_dirac_bound(SweepConfig(k=3, include_dirac=True), stream)


class TestRevalidateRow:
    def test_good_row(self, found):
        assert revalidate_row(found)

    def test_unknown_regime_rejected(self, found):
        assert not revalidate_row(dataclasses.replace(found, regime="bogus"))
        no_witness = dataclasses.replace(found, critical_cover_found=False, witness_cover="")
        assert revalidate_row(no_witness)
        assert not revalidate_row(dataclasses.replace(no_witness, regime="bogus"))

    def test_witness_removed(self, found):
        assert not revalidate_row(dataclasses.replace(found, witness_cover=""))

    def test_witness_garbage(self, found):
        assert not revalidate_row(dataclasses.replace(found, witness_cover="{oops"))

    def test_graph_mismatch(self, found):
        assert not revalidate_row(dataclasses.replace(found, graph6=W4_G6))
        assert not revalidate_row(dataclasses.replace(found, n=found.n + 1))
        assert not revalidate_row(dataclasses.replace(found, m=found.m - 1))

    def test_colorable_witness_rejected(self, found):
        g = make_wheel(4)
        cover = cover_from_lists(g, [[0, 1, 2]] * g.n)
        fake = dataclasses.replace(
            found,
            graph6=W4_G6,
            n=g.n,
            m=g.m,
            witness_cover=cover_to_json_text(cover),
        )
        assert not revalidate_row(fake)

    def test_multigraph_witness_rejected(self, found):
        _, cover = make_multigraph_counterexample(3)
        fake = dataclasses.replace(found, witness_cover=cover_to_json_text(cover))
        assert not revalidate_row(fake)

    def test_perfect_regime_requires_full_matchings(self, found):
        g, lists = make_ks_example(3)
        cover = cover_from_lists(g, lists)  # critical, but some matchings partial
        row = dataclasses.replace(
            found,
            graph6=emit_graph6(g),
            n=g.n,
            m=g.m,
            deficit=2 * g.m - (3 * g.n + 3 - 2),
            witness_cover=cover_to_json_text(cover),
        )
        assert not revalidate_row(row)
        assert revalidate_row(dataclasses.replace(row, regime="partial"))

    def test_witness_list_size_must_match_deficit(self, found):
        # the twisted C4 is a critical 2-fold cover, not a k = 3 refutation
        _, twisted = make_c4_covers()
        g = twisted.base
        row = dataclasses.replace(
            found,
            graph6=emit_graph6(g),
            n=g.n,
            m=g.m,
            deficit=2 * g.m - (3 * g.n + 3 - 2),
            witness_cover=cover_to_json_text(twisted),
        )
        assert not revalidate_row(row)
        assert revalidate_row(dataclasses.replace(row, deficit=2 * g.m - (2 * g.n + 2 - 2)))

    def test_nonuniform_witness_rejected(self, found):
        # critical: the center's two colors each kill one leaf's only color
        star = SimpleGraph(3, [(0, 1), (0, 2)])
        cover = Cover(star, [2, 1, 1], {(0, 1): [(0, 0)], (0, 2): [(1, 0)]})
        row = dataclasses.replace(
            found,
            graph6=emit_graph6(star),
            n=3,
            m=2,
            regime="partial",
            witness_cover=cover_to_json_text(cover),
        )
        for k in (1, 2):
            assert not revalidate_row(dataclasses.replace(row, deficit=2 * 2 - (k * 3 + k - 2)))

    def test_unfound_row(self, found):
        clean = dataclasses.replace(found, critical_cover_found=False, witness_cover="")
        assert revalidate_row(clean)
        leftover = dataclasses.replace(found, critical_cover_found=False)
        assert not revalidate_row(leftover)


class TestReports:
    def test_csv_round_trip(self, rows):
        buf = io.StringIO()
        emit_report(rows, "csv", buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == ",".join(REPORT_FIELDS)
        back = parse_report_csv(text)
        assert len(back) == len(rows)
        for a, b in zip(back, rows):
            assert dataclasses.replace(a, seconds=0.0) == dataclasses.replace(b, seconds=0.0)
            assert a.seconds == pytest.approx(b.seconds, abs=1e-6)

    def test_csv_quotes_witness_json(self, rows):
        found = [r for r in rows if r.critical_cover_found]
        assert found and "," in found[0].witness_cover
        buf = io.StringIO()
        emit_report(rows, "csv", buf)
        assert parse_report_csv(buf.getvalue())[1].witness_cover == found[0].witness_cover

    def test_json_format(self, rows):
        buf = io.StringIO()
        emit_report(rows, "json", buf)
        payload = json.loads(buf.getvalue())
        assert [list(entry) for entry in payload] == [list(REPORT_FIELDS)] * len(rows)
        assert payload[0]["graph6"] == W4_G6
        assert payload[1]["critical_cover_found"] is True

    def test_header_only_when_empty(self):
        buf = io.StringIO()
        emit_report([], "csv", buf)
        assert buf.getvalue().strip() == ",".join(REPORT_FIELDS)
        assert parse_report_csv(buf.getvalue()) == []

    def test_file_sink(self, rows, tmp_path):
        path = tmp_path / "report.csv"
        emit_report(rows, "csv", str(path))
        assert len(parse_report_csv(path.read_text())) == len(rows)

    def test_bad_format(self, rows):
        with pytest.raises(ValueError):
            emit_report(rows, "yaml", io.StringIO())

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_report_csv("a,b,c\n1,2,3\n")

    def test_blank_record_is_skipped(self):
        good = "Dl{,5,8,0,false,false,perfect,false,,1296,0.009081"
        text = ",".join(REPORT_FIELDS) + "\n\n" + good + "\n"
        assert [row.graph6 for row in parse_report_csv(text)] == ["Dl{"]

    @pytest.mark.parametrize(
        "record, problem",
        [
            ("EtTg,5", "2 cells, expected 11"),
            ("EtTg,6,9,-1,false,false,perfect,false,,1296,0.1,extra", "12 cells, expected 11"),
            ("EtTg,6,9,-1,maybe,false,perfect,false,,1296,0.1", "'maybe' is not true or false"),
            ("EtTg,6,9,-1,false,false,perfect,False,,1296,0.1", "'False' is not true or false"),
            ("EtTg,six,9,-1,false,false,perfect,false,,1296,0.1", "invalid literal for int"),
            ("EtTg,6,9,-1,false,false,perfect,false,,1296,soon", "could not convert"),
            # int() and float() take each of these, but _cell never writes them
            ("EtTg,\u0665,9,-1,false,false,perfect,false,,1296,0.1", "int cell '\u0665' is not"),
            ("EtTg, 6,9,-1,false,false,perfect,false,,1296,0.1", "int cell ' 6' is not"),
            ("EtTg,6,9,-1,false,false,perfect,false,,1_296,0.1", "int cell '1_296' is not"),
            ("EtTg,+6,9,-1,false,false,perfect,false,,1296,0.1", "int cell '+6' is not"),
            ("EtTg,6,9,-1,false,false,perfect,false,,1296,nan", "float cell 'nan' is not"),
            ("EtTg,6,9,-1,false,false,perfect,false,,1296,inf", "float cell 'inf' is not"),
            ("EtTg,6,9,-1,false,false,perfect,false,,1296,0.\u0661", "float cell '0.\u0661' is not"),
            ("EtTg,6,9,-1,false,false,perfect,false,,1296,0_0.1", "float cell '0_0.1' is not"),
        ],
        ids=[
            "short",
            "long",
            "bool-maybe",
            "bool-capitalized",
            "int",
            "float",
            "int-arabic-indic",
            "int-space",
            "int-underscore",
            "int-plus",
            "float-nan",
            "float-inf",
            "float-arabic-indic",
            "float-underscore",
        ],
    )
    def test_malformed_record_names_its_line(self, record, problem):
        good = "Dl{,5,8,0,false,false,perfect,false,,1296,0.009081"
        text = ",".join(REPORT_FIELDS) + "\n" + good + "\n" + record + "\n"
        with pytest.raises(ValueError, match=f"report line 3: {re.escape(problem)}"):
            parse_report_csv(text)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_report_text_is_pinned(self, fmt):
        # the golden criterion-06 rows with a fixed wall time: every byte of
        # both formats, CSV quoting and the float formats included
        rows = [
            DiracReportRow(**want, seconds=0.0123456789) for want in GOLDEN_ROWS["include_dirac"]
        ]
        buf = io.StringIO()
        emit_report(rows, fmt, buf)
        pinned = ROOT / "tests" / "data" / f"criterion06_report.{fmt}"
        assert buf.getvalue() == pinned.read_bytes().decode()  # CSV lines end in \r\n
        if fmt == "csv":
            back = parse_report_csv(buf.getvalue())
            assert back == [dataclasses.replace(r, seconds=0.012346) for r in rows]


class TestVerifyCriticalStructure:
    def test_full_clique(self):
        g = complete(4)
        report = verify_critical_structure(cover_from_lists(g, [[0, 1, 2]] * 4))
        assert report.ok and report.in_scope
        assert report.k == 3 and report.min_degree == 3
        assert report.D == (0, 1, 2, 3)
        assert report.gdp_forest
        assert len(report.components) == 1
        comp = report.components[0]
        assert comp.is_full_clique and comp.boundary_edges == 0
        assert comp.bound_ok and not comp.equality

    def test_below_scope_only_checks_degrees(self):
        _, twisted = make_c4_covers()
        report = verify_critical_structure(twisted)
        assert not report.in_scope
        assert report.min_degree_ok and report.ok
        assert report.gdp_forest  # a cycle is still a legal block
        assert not report.components[0].bound_ok  # informational below scope

    def test_joined_cliques(self):
        g, lists = make_ks_example(3)
        report = verify_critical_structure(cover_from_lists(g, lists))
        assert report.ok
        assert len(report.D) == 6
        assert len(report.components) == 2
        for comp in report.components:
            assert len(comp.vertices) == 3
            assert comp.boundary_edges == 3
            assert comp.equality and comp.equality_shape_ok
            assert not comp.is_full_clique

    def test_multigraph_boundary_counts_multiplicity(self):
        _, cover = make_multigraph_counterexample(3)
        report = verify_critical_structure(cover)
        assert report.ok
        assert report.D == (0, 1)
        assert len(report.components) == 1
        assert report.components[0].boundary_edges == 4
        assert report.gdp_forest

    def test_against_the_induced_graph_oracle_on_planted_covers(self):
        covers = [make_c4_covers()[1], make_multigraph_counterexample(3)[1]]
        for k in (3, 4, 5):
            covers.append(cover_from_lists(complete(k + 1), [list(range(k))] * (k + 1)))
            for a in range(1, k):
                g = make_dirac(k, a)
                covers.append(cover_from_lists(g, [list(range(k))] * g.n))
            g, lists = make_ks_example(k)
            covers.append(cover_from_lists(g, lists))
        for cover in covers:
            assert verify_critical_structure(cover) == reference_verify_critical_structure(cover)

    def test_against_the_induced_graph_oracle_on_the_atlas(self, monkeypatch):
        # every atlas graph and some multigraphs at each degree k, taken as critical,
        # so that components, boundaries and cliques of every shape are compared
        monkeypatch.setattr(dpcolor.harness, "is_critical", lambda c: True)
        monkeypatch.setattr(helpers, "is_critical", lambda c: True)
        rng = Random(1818)
        bases = [g for g in atlas_graphs() if g.n] + [
            random_multigraph(rng, rng.randint(2, 6), max_mult=3) for _ in range(300)
        ]
        for base in bases:
            for k in sorted(set(base.degrees()) - {0}):
                cover = Cover.from_slots(base, [k] * base.n, {})
                assert verify_critical_structure(cover) == reference_verify_critical_structure(cover)

    def test_non_critical_rejected(self):
        straight, _ = make_c4_covers()
        with pytest.raises(ValueError, match="not critical"):
            verify_critical_structure(straight)

    def test_non_uniform_rejected(self):
        edge = SimpleGraph(2, [(0, 1)])
        lopsided = Cover(edge, [1, 2], {(0, 1): ((0, 0),)})
        with pytest.raises(ValueError, match="uniform"):
            verify_critical_structure(lopsided)


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(k=2)
        with pytest.raises(ValueError):
            SweepConfig(k=3, regime="greedy")
        with pytest.raises(ValueError):
            SweepConfig(k=3, parallelism=0)

    @pytest.mark.parametrize(
        "field, value", [("k", 3.5), ("k", True), ("max_n", 7.0), ("parallelism", "2")]
    )
    def test_refuses_non_int_fields(self, field, value):
        kwargs = {"k": 3, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an int, got {value!r}"):
            SweepConfig(**kwargs)

    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    def test_refuses_a_non_bool_include_dirac(self, value):
        # "no" is truthy: it would sweep the 3-Dirac graphs it means to skip
        with pytest.raises(ValueError, match=f"include_dirac must be a bool, got {value!r}"):
            SweepConfig(k=3, include_dirac=value)

    def test_refuses_a_negative_max_n(self):
        with pytest.raises(ValueError, match="max_n must be at least 0, got -1"):
            SweepConfig(k=3, max_n=-1)
        assert SweepConfig(k=3, max_n=0).resolved_max_n() == 0

    def test_size_caps(self):
        assert SweepConfig(k=3).resolved_max_n() == 9
        assert SweepConfig(k=4).resolved_max_n() == 7
        assert SweepConfig(k=4, max_n=12).resolved_max_n() == 12
