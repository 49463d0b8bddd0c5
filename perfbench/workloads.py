"""The three workloads, their output checks, and the traced passes.

Every workload is a closed loop with one client: the next request is sent
when the previous answer is in and checked.  A pass is the workload's
whole input set, answered once:

* ``sweep-k3``: the stream cut into one ``verify_dirac_bound`` request per
  candidate graph, so that each request is short enough to be scaled by
  the yardstick timed around it.
* ``cover-queries``: one request per cover document.
* ``refute-deep``: one ``is_critical`` request per planted k = 6 cover.

The untraced passes call dpcolor exactly as a user would.  The traced
passes put a span around each call into a dpcolor module; for
``sweep-k3`` and ``refute-deep`` they re-drive the harness and
``is_critical`` through the same public calls those functions make, so
that enumeration, matching maps and search can be timed apart and the
search nodes counted.
"""

from __future__ import annotations

import json
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from dpcolor import (
    PartialColoring,
    SearchStats,
    block_decomposition,
    candidate_filter,
    certificate_is_valid,
    color_degree_cover,
    contains_clique,
    cover_from_json_text,
    cover_to_json_text,
    degree_profile,
    emit_graph6,
    enumerate_covers,
    find_coloring,
    find_enhancing_extension,
    is_critical,
    is_enhanced,
    is_gdp_forest,
    parse_graph6,
    recognize_dirac,
    revalidate_row,
    verify_critical_structure,
    verify_dirac_bound,
)
from dpcolor.harness import DiracReportRow, SweepConfig

from . import inputs
from .tracer import NullTracer, Tracer
from .yardstick import Yardstick

SWEEP_K = 3
# what acceptance criterion 06 expects of the stream, under any relabeling
SWEEP_ROWS = 11
SWEEP_ROWS_BY_N = {5: 1, 6: 2, 7: 3, 8: 5}
SWEEP_COVERS = 66096


def build(workload: str, seed: int):
    if workload == "sweep-k3":
        return sweep_requests(inputs.sweep_stream(seed))
    if workload == "cover-queries":
        return inputs.query_stream(seed)
    if workload == "refute-deep":
        return inputs.refute_covers(seed)
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class PassResult:
    """One pass: wall time, covers decided, per-request latencies, answers checked.

    A request's latency stops when its answer is in, before it is checked.
    ``scaled`` holds the latencies scaled by the yardstick, in order.
    """

    seconds: float
    covers: int
    latencies: list[float]
    attempted: int
    failed: int
    # (nodes expanded, vertices to color) per search whose stats were read
    searches: list[tuple[int, int]] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)

    @property
    def busy(self) -> float:
        """Time spent inside the requests: the pass without the answer checks."""
        return sum(self.latencies)


def _report(exc: BaseException) -> None:
    traceback.print_exception(exc, file=sys.stderr)


# ---------------------------------------------------------------------------
# sweep-k3


def sweep_failures(rows, by_n: dict = SWEEP_ROWS_BY_N, covers: int = SWEEP_COVERS) -> int:
    """Wrong rows of one pass; a pass with the wrong candidate set fails whole."""
    if (
        rows is None
        or Counter(r.n for r in rows) != by_n
        or sum(r.covers_examined for r in rows) != covers
    ):
        return SWEEP_ROWS
    return sum(
        1
        for r in rows
        if r.critical_cover_found
        or r.witness_cover != ""
        or r.deficit > 0
        or r.covers_examined != 6 ** (r.m - r.n + 1)
    )


def sweep_requests(lines: list[str]) -> list[list[str]]:
    """The stream cut into slices that each end at one candidate graph.

    The lines after the last candidate join the last slice, so the slices
    together are the stream in order, and a sweep over each in turn gives
    the rows of one sweep over the whole.
    """
    slices: list[list[str]] = [[]]
    for line in lines:
        slices[-1].append(line)
        if candidate_filter(parse_graph6(line), SWEEP_K) is None:
            slices.append([])
    if len(slices) > 1:
        tail = slices.pop()
        slices[-1].extend(tail)
    return slices


def sweep_pass(slices: list[list[str]], *, stick=None) -> tuple[PassResult, list]:
    stick = Yardstick(enabled=False) if stick is None else stick
    rows: list | None = []
    latencies = []
    t0 = perf_counter()
    stick.begin()
    for lines in slices:
        start = perf_counter()
        try:
            got = verify_dirac_bound(SweepConfig(k=SWEEP_K), lines)
        except Exception as exc:  # a raised answer counts as wrong, the run goes on
            _report(exc)
            got = None
        latencies.append(perf_counter() - start)
        stick.after(latencies[-1])
        rows = None if rows is None or got is None else rows + got
    scaled = stick.end()
    dt = perf_counter() - t0
    covers = sum(r.covers_examined for r in rows) if rows else 0
    failed = sweep_failures(rows)
    return PassResult(dt, covers, latencies, SWEEP_ROWS, failed, scaled=scaled), rows


def sweep_traced(lines: list[str], tr: Tracer) -> tuple[PassResult, list, dict]:
    """The sweep re-driven call by call: parse, filter, enumerate, maps, search.

    Each cover is decided the way ``is_critical`` decides it: a full search
    first, and the one-vertex deletions only when that search fails.
    """
    t0 = perf_counter()
    searches: list[tuple[int, int]] = []
    accepted = []
    for line in lines:
        g = tr.call("graphs.parse_graph6", parse_graph6, line)
        if tr.call("harness.candidate_filter", candidate_filter, g, SWEEP_K) is None:
            accepted.append(g)
    rows = []
    for g in accepted:
        start = perf_counter()
        everyone = set(range(g.n))
        u, v = g.edges()[0]
        covers = enumerate_covers(g, SWEEP_K, "perfect")
        examined = 0
        witness = ""
        while True:
            c = tr.call("covers.enumerate_covers", next, covers, None)
            if c is None:
                break
            examined += 1
            tr.call("covers.matched_colors", c.matched_colors, u, v, 0)  # builds the maps
            stats = SearchStats()
            colorable = tr.call("solver.find_coloring", find_coloring, c, None, None, stats)
            searches.append((stats.nodes_expanded, g.n))
            if colorable is not None:
                continue
            if all(
                tr.call("solver.find_coloring", find_coloring, c, everyone - {w}) is not None
                for w in range(g.n)
            ):
                witness = tr.call("covers.cover_to_json_text", cover_to_json_text, c)
                break
        seconds = perf_counter() - start
        rows.append(
            DiracReportRow(
                graph6=tr.call("graphs.emit_graph6", emit_graph6, g),
                n=g.n,
                m=g.m,
                deficit=2 * g.m - (SWEEP_K * g.n + SWEEP_K - 2),
                has_big_clique=tr.call("graphs.contains_clique", contains_clique, g, SWEEP_K + 1),
                is_dirac=tr.call("recognize.recognize_dirac", recognize_dirac, g, SWEEP_K)
                is not None,
                regime="perfect",
                critical_cover_found=bool(witness),
                witness_cover=witness,
                covers_examined=examined,
                seconds=seconds,
            )
        )
    dt = perf_counter() - t0
    covers = sum(r.covers_examined for r in rows)
    result = PassResult(dt, covers, [dt], SWEEP_ROWS, sweep_failures(rows), searches)
    return result, rows, {"lines": len(lines), "accepted": len(accepted)}


# ---------------------------------------------------------------------------
# cover-queries


def run_query(q: inputs.Query, tr, searches: list) -> dict:
    """The calls one query makes, decode to encode; the answers, unchecked."""
    c = tr.call("covers.cover_from_json_text", cover_from_json_text, q.doc)
    out: dict = {}
    if q.kind in ("planted", "extra"):
        stats = SearchStats()
        out["coloring"] = tr.call("solver.find_coloring", find_coloring, c, None, None, stats)
        searches.append((stats.nodes_expanded, c.n))
        out["critical"] = tr.call("solver.is_critical", is_critical, c)
        if q.kind == "planted":
            report = tr.call("harness.verify_critical_structure", verify_critical_structure, c)
            out["structure_ok"] = report.ok
            if q.row is not None:
                out["revalidated"] = tr.call("harness.revalidate_row", revalidate_row, q.row)
    elif q.kind == "degree":
        g = c.base
        cert = tr.call("solver.color_degree_cover", color_degree_cover, g, c)
        out["cert"] = cert
        out["valid"] = tr.call("solver.certificate_is_valid", certificate_is_valid, g, c, cert)
        out["gdp"] = tr.call("recognize.is_gdp_forest", is_gdp_forest, g)
        blocks = tr.call("graphs.block_decomposition", block_decomposition, g)
        out["cut_vertices"] = tuple(sorted(blocks.cut_vertices))
        out["degrees"] = list(g.degrees())
    else:
        profile = tr.call("graphs.degree_profile", degree_profile, c.base, q.k)
        p = tr.call("covers.PartialColoring", PartialColoring, q.picks)
        extend = find_enhancing_extension
        got = tr.call("solver.find_enhancing_extension", extend, c, p, q.u, q.attach, profile)
        out["extension"] = got
        if got is not None:
            out["enhanced"] = tr.call("solver.is_enhanced", is_enhanced, c, got, q.u, profile)
    out["encoded"] = tr.call("covers.cover_to_json_text", cover_to_json_text, c)
    return out


def _doc_shape(data: dict) -> tuple[int, list[int]]:
    """Vertex count and list sizes, read from a cover document by hand."""
    if "multigraph" in data:
        n = data["multigraph"]["n"]
    else:
        n = ord(data["graph6"][0]) - 63  # graph6 header; every graph here has n < 63
    sizes = data["list_sizes"] if "list_sizes" in data else [data["k"]] * n
    return n, sizes


def _independent(data: dict, picks: dict[int, int]) -> bool:
    """No matching pair of the document joins two picks; checked pair by pair."""
    n, sizes = _doc_shape(data)
    if any(not (0 <= v < n and 0 <= i < sizes[v]) for v, i in picks.items()):
        return False
    for key, pairs in data["matchings"].items():
        u, v = (int(x) for x in key.partition("#")[0].split("-"))
        if u in picks and v in picks and [picks[u], picks[v]] in pairs:
            return False
    return True


def _full_coloring_ok(data: dict, coloring) -> bool:
    if coloring is None:
        return False
    picks = coloring.picks
    return sorted(picks) == list(range(_doc_shape(data)[0])) and _independent(data, picks)


def check_query(q: inputs.Query, out: dict) -> bool:
    data = json.loads(q.doc)
    if out["encoded"] != q.doc:
        return False
    if q.kind == "planted":
        return (
            out["coloring"] is None
            and out["critical"] is True
            and out["structure_ok"] is True
            and out.get("revalidated", q.row is None) is True
        )
    if q.kind == "extra":
        return out["critical"] is False and _full_coloring_ok(data, out["coloring"])
    if q.kind == "degree":
        cert = out["cert"]
        if out["valid"] is not True:
            return False
        if cert.colorable:
            return _full_coloring_ok(data, cert.coloring)
        # an uncolorable degree cover sits on a GDP forest with lists equal to degrees
        return (
            out["gdp"] is True
            and cert.degree_tight is True
            and _doc_shape(data)[1] == out["degrees"]
            and cert.cut_vertices == out["cut_vertices"]
        )
    got = out["extension"]
    if got is None or out.get("enhanced") is not True:
        return False
    picks = got.picks
    return (
        all(picks.get(v) == i for v, i in q.picks)
        and all(a in picks for a in q.attach)
        and q.u not in picks
        and _independent(data, picks)
    )


def queries_pass(queries: list[inputs.Query], tr=None, *, stick=None) -> PassResult:
    tr = NullTracer() if tr is None else tr
    stick = Yardstick(enabled=False) if stick is None else stick
    searches: list[tuple[int, int]] = []
    latencies = []
    failed = 0
    t0 = perf_counter()
    stick.begin()
    for i, q in enumerate(queries):
        start = perf_counter()
        try:
            with tr.span("bench.query"):
                out = run_query(q, tr, searches)
        except Exception as exc:
            _report(exc)
            out = None
        latencies.append(perf_counter() - start)
        if out is None or not check_query(q, out):
            print(f"cover-queries: query {i} ({q.kind}) answered wrongly", file=sys.stderr)
            failed += 1
        stick.after(latencies[-1])
    scaled = stick.end()
    dt = perf_counter() - t0
    return PassResult(dt, len(queries), latencies, len(queries), failed, searches, scaled)


# ---------------------------------------------------------------------------
# refute-deep


def refute_pass(covers: list, *, stick=None) -> PassResult:
    stick = Yardstick(enabled=False) if stick is None else stick
    latencies = []
    failed = 0
    t0 = perf_counter()
    stick.begin()
    for c in covers:
        start = perf_counter()
        try:
            verdict = is_critical(c)
        except Exception as exc:
            _report(exc)
            verdict = None
        latencies.append(perf_counter() - start)
        failed += verdict is not True
        stick.after(latencies[-1])
    scaled = stick.end()
    dt = perf_counter() - t0
    return PassResult(dt, len(covers), latencies, len(covers), failed, scaled=scaled)


def refute_traced(covers: list, tr: Tracer) -> PassResult:
    """``is_critical`` re-driven: the full search, then each one-vertex deletion."""
    searches: list[tuple[int, int]] = []
    latencies = []
    failed = 0
    t0 = perf_counter()
    for c in covers:
        start = perf_counter()
        everyone = set(range(c.n))
        with tr.span("bench.is_critical"):
            stats = SearchStats()
            with tr.span("bench.refute_search"):
                found = tr.call("solver.find_coloring", find_coloring, c, None, None, stats)
            critical = found is None
            searches.append((stats.nodes_expanded, c.n))
            with tr.span("bench.deletion_loop"):
                for u in range(c.n):
                    if not critical:
                        break
                    stats = SearchStats()
                    left = everyone - {u}
                    critical = (
                        tr.call("solver.find_coloring", find_coloring, c, left, None, stats)
                        is not None
                    )
                    searches.append((stats.nodes_expanded, c.n - 1))
        latencies.append(perf_counter() - start)
        failed += not critical
    dt = perf_counter() - t0
    return PassResult(dt, len(covers), latencies, len(covers), failed, searches)


# ---------------------------------------------------------------------------
# untraced passes


PASSES = {
    "sweep-k3": lambda slices, stick=None: sweep_pass(slices, stick=stick)[0],
    "cover-queries": queries_pass,
    "refute-deep": refute_pass,
}
