"""Desk-scale verification of the sharp density bound for critical covers.

The claim under test: for k >= 3, a connected graph with minimum degree
at least k, no clique on k+1 vertices, and not in the k-Dirac family
admits no critical k-fold cover unless 2m > kn + k - 2.  The sweep
filters a stream of graph6 lines down to the candidates satisfying
2m <= kn + k - 2, enumerates every cover in the chosen regime, and
reports per-graph rows; any critical cover found is a refutation and is
embedded in the row, then revalidated from its serialized form alone.
Almost every line is rejected, so the sweep decodes each line to bare
neighbor masks and tests connectivity, minimum degree and density on
them; only a line that passes becomes a ``SimpleGraph`` for the clique
and k-Dirac tests.  ``candidate_filter`` runs the same two steps.

Reports are written as CSV (header always present) or JSON with a fixed
field order.  All fields except ``seconds`` are deterministic for a
given input stream and configuration.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import re
import string
import time
from dataclasses import asdict, astuple, dataclass, fields
from typing import Iterable, Optional, Sequence, TextIO, Union

from .covers import REGIMES, Cover, cover_from_json_text, cover_to_json_text, is_full_matching
from .graphs import (
    Graph6Error,
    SimpleGraph,
    _bits,
    _check_int,
    _graph6_masks,
    _reach,
    block_shape,
    contains_clique,
    emit_graph6,
)
from .recognize import is_gdp_forest, recognize_dirac
from .solver import _BoxSearch, is_critical

logger = logging.getLogger(__name__)

@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one verification sweep."""

    k: int
    regime: str = "perfect"
    max_n: Optional[int] = None
    parallelism: int = 1
    include_dirac: bool = False

    def __post_init__(self):
        _check_int("k", self.k, 3)
        if self.max_n is not None:
            _check_int("max_n", self.max_n, 0)
        _check_int("parallelism", self.parallelism, 1)
        if type(self.include_dirac) is not bool:
            raise ValueError(f"include_dirac must be a bool, got {self.include_dirac!r}")
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")

    def resolved_max_n(self) -> int:
        # cover counts grow as (k!)^(m-n+1); the default caps keep a sweep
        # at desk scale unless explicitly overridden
        return self.max_n if self.max_n is not None else (9 if self.k <= 3 else 7)


@dataclass(frozen=True)
class DiracReportRow:
    """One accepted candidate graph and the outcome of its cover sweep.

    ``deficit`` is ``dirac_deficit``, never positive for an accepted
    candidate.  ``witness_cover`` is the serialized critical cover when
    one was found, else empty.
    """

    graph6: str
    n: int
    m: int
    deficit: int
    has_big_clique: bool
    is_dirac: bool
    regime: str
    critical_cover_found: bool
    witness_cover: str
    covers_examined: int
    seconds: float


REPORT_FIELDS = tuple(f.name for f in fields(DiracReportRow))


def dirac_deficit(g: SimpleGraph, k: int) -> int:
    """2m - (kn + k - 2): positive when g already satisfies the claimed bound."""
    _check_int("k", k, 0)
    return _deficit(g.n, g.m, k)


def _deficit(n: int, m: int, k: int) -> int:
    """``dirac_deficit`` of a graph with n vertices and m edges, k unchecked."""
    return 2 * m - (k * n + k - 2)


def candidate_filter(g: SimpleGraph, k: int, include_dirac: bool = False) -> Optional[str]:
    """None if g can carry a critical k-fold cover within the bound, else why not.

    Rejections: disconnected graphs and graphs with a vertex of degree
    below k cannot be critical at all; graphs with 2m > kn + k - 2
    already satisfy the claimed inequality; graphs containing a clique
    on k+1 vertices and k-Dirac graphs are the two excluded families
    (the latter kept when ``include_dirac`` is set).
    """
    _check_int("k", k, 3)
    return _rejection(g.n, g._nbr, g.m, k) or _exclusion(g, k, include_dirac)


def _rejection(n: int, nbr: Sequence[int], m: int, k: int) -> Optional[str]:
    """The first rejection of ``candidate_filter`` that the neighbor masks decide alone."""
    if n > 1 and _reach(nbr, 1) != (1 << n) - 1:
        return "disconnected"
    if min(map(int.bit_count, nbr), default=0) < k:
        return "min degree below k"
    if _deficit(n, m, k) > 0:
        return "2m exceeds kn + k - 2"
    return None


def _exclusion(g: SimpleGraph, k: int, include_dirac: bool) -> Optional[str]:
    """The excluded family of ``candidate_filter`` that g falls in, if any."""
    if contains_clique(g, k + 1):
        return "contains a clique of size k + 1"
    if not include_dirac and recognize_dirac(g, k) is not None:
        return "k-Dirac graph"
    return None


def _sweep_one(args: tuple[SimpleGraph, int, str, bool]) -> DiracReportRow:
    # accepted candidates carry no clique on k+1 vertices; whether one is
    # a k-Dirac graph was decided by the caller
    g, k, regime, is_dirac = args
    t0 = time.perf_counter()
    boxes = _BoxSearch(g, k, regime)
    examined, witness = boxes.first_critical()
    seconds = time.perf_counter() - t0
    graph6 = emit_graph6(g)
    logger.info(
        "%s: boxes=%d uncolorable=%d spared=%d nodes=%d deletion_tests=%d seconds=%.3f",
        graph6,
        boxes.boxes,
        boxes.uncolorable,
        boxes.spared,
        boxes.stats.nodes_expanded,
        boxes.deletion_tests,
        seconds,
    )
    return DiracReportRow(
        graph6=graph6,
        n=g.n,
        m=g.m,
        deficit=dirac_deficit(g, k),
        has_big_clique=False,
        is_dirac=is_dirac,
        regime=regime,
        critical_cover_found=witness is not None,
        witness_cover="" if witness is None else cover_to_json_text(witness),
        covers_examined=examined,
        seconds=seconds,
    )


def verify_dirac_bound(cfg: SweepConfig, lines: Iterable[str]) -> list[DiracReportRow]:
    """Sweep a stream of graph6 lines; one report row per accepted candidate.

    Parse errors and graphs above the size cap abort with the offending
    line number.  Row order follows input order.  Every row claiming a
    critical cover is revalidated from its serialized witness before
    this function returns.
    """
    max_n = cfg.resolved_max_n()
    work: list[tuple[SimpleGraph, int, str, bool]] = []
    rejected: dict[str, int] = {}
    total = 0
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip(string.whitespace)
        if not line:
            continue
        total += 1
        try:
            n, nbr, m = _graph6_masks(line)
        except Graph6Error as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if n > max_n:
            raise ValueError(
                f"line {lineno}: graph has {n} vertices, above the cap of {max_n}"
            )
        # almost every line is rejected on its masks, and builds no graph
        reason = _rejection(n, nbr, m, cfg.k)
        if reason is None:
            g = SimpleGraph._from_masks(n, nbr, m)
            reason = _exclusion(g, cfg.k, cfg.include_dirac)
        if reason is None:
            is_dirac = cfg.include_dirac and recognize_dirac(g, cfg.k) is not None
            work.append((g, cfg.k, cfg.regime, is_dirac))
        else:
            rejected[reason] = rejected.get(reason, 0) + 1

    logger.info(
        "k=%d regime=%s: %d graphs read, %d accepted, rejected: %s",
        cfg.k,
        cfg.regime,
        total,
        len(work),
        dict(sorted(rejected.items())) or "none",
    )

    if cfg.parallelism > 1 and len(work) > 1:
        # loaded only here: the process pool machinery adds about 2.5 MB and
        # 13 ms to every import of the package, and serial sweeps never use it
        from concurrent.futures import ProcessPoolExecutor

        # under fork every worker starts at the first submit: one per graph at most
        with ProcessPoolExecutor(max_workers=min(cfg.parallelism, len(work))) as pool:
            rows = list(pool.map(_sweep_one, work))
    else:
        rows = [_sweep_one(item) for item in work]

    for row in rows:
        if row.critical_cover_found and not revalidate_row(row):
            raise RuntimeError(
                f"witness for {row.graph6!r} failed revalidation; sweep is inconsistent"
            )
        if row.critical_cover_found:
            logger.warning("critical cover found on %s", row.graph6)
    return rows


def revalidate_row(row: DiracReportRow) -> bool:
    """Recheck a refutation row from its serialized witness alone.

    The witness must be a critical k-fold cover of the row's graph whose
    k gives the row's deficit, with full matchings in the perfect regime;
    a row whose regime is not one of ``REGIMES`` is refused.
    """
    if row.regime not in REGIMES:
        return False
    if not row.critical_cover_found:
        return row.witness_cover == ""
    try:
        cover = cover_from_json_text(row.witness_cover)
    except ValueError:
        return False
    base, k = cover.base, cover.k
    # report rows name their graph in graph6, which only a simple graph has
    if not isinstance(base, SimpleGraph):
        return False
    if emit_graph6(base) != row.graph6 or base.n != row.n or base.m != row.m:
        return False
    if k is None or row.deficit != dirac_deficit(base, k):
        return False
    if row.regime == "perfect" and not all(
        is_full_matching(cover, u, v) for u, v in cover.edge_pairs()
    ):
        return False
    return is_critical(cover)


@dataclass(frozen=True)
class ComponentCheck:
    """Boundary count of one component of the degree-k subgraph."""

    vertices: tuple[int, ...]
    boundary_edges: int
    is_full_clique: bool  # component is a clique on k+1 vertices
    bound_ok: bool
    equality: bool
    equality_shape_ok: bool  # boundary == k only for a clique on k vertices


@dataclass(frozen=True)
class CriticalStructureReport:
    """Structure of the degree-k vertices of a critical cover.

    For a critical k-fold cover, the vertices of degree exactly k must
    induce a GDP forest, and every component of that subgraph must send
    at least k edges to the rest of the graph, exactly k only when the
    component is a clique on k vertices.  The full-graph clique on k+1
    vertices is the one exception and is flagged, not counted as a
    violation.
    """

    k: int
    in_scope: bool  # the structural claims are stated for k >= 3
    min_degree: int
    min_degree_ok: bool
    D: tuple[int, ...]
    gdp_forest: bool
    components: tuple[ComponentCheck, ...]
    ok: bool


def verify_critical_structure(c: Cover) -> CriticalStructureReport:
    """Check the forced structure of the degree-k subgraph of a critical cover.

    Precondition: c is a uniform critical cover (this is verified and
    violations raise).  Multigraph bases use multiplicity-counting
    degrees and boundary counts, with the forest check applied to the
    underlying simple graph.
    """
    k = c.k
    if k is None or k < 1:
        raise ValueError("cover does not have a uniform positive list size")
    if not is_critical(c):
        raise ValueError("cover is not critical")
    base = c.base
    simple = base.simple()
    nbr = simple._nbr
    degrees = base.degrees()
    low = tuple([u for u in range(base.n) if degrees[u] == k])
    outside = ~sum(1 << u for u in low)
    induced = simple.induced(low)
    forest_ok = is_gdp_forest(induced)

    checks = []
    for comp in induced.connected_components():
        vs = tuple(sorted([low[i] for i in comp]))
        # the edges to vertices of higher degree, counted with multiplicity
        boundary = sum([base.multiplicity(u, w) for u in vs for w in _bits(nbr[u] & outside)])
        complete = block_shape(simple, vs) == "clique"
        is_full = complete and len(vs) == k + 1 and base.n == k + 1
        bound_ok = is_full or boundary >= k
        equality = boundary == k
        equality_shape_ok = (not equality) or (complete and len(vs) == k)
        checks.append(
            ComponentCheck(vs, boundary, is_full, bound_ok, equality, equality_shape_ok)
        )

    min_degree = min(degrees) if degrees else 0
    in_scope = k >= 3
    # below k = 3 the forest and boundary claims are not asserted, only
    # computed for inspection; the minimum-degree bound holds regardless
    structure_ok = forest_ok and all(
        ch.bound_ok and ch.equality_shape_ok for ch in checks
    )
    ok = min_degree >= k and (structure_ok or not in_scope)
    return CriticalStructureReport(
        k=k,
        in_scope=in_scope,
        min_degree=min_degree,
        min_degree_ok=min_degree >= k,
        D=low,
        gdp_forest=forest_ok,
        components=tuple(checks),
        ok=ok,
    )


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


# the number cells _cell writes, ASCII digits after an optional minus; int() and
# float() would also take spaces, a plus, underscores, other scripts' digits, nan and inf
_NUMBER_CELLS = {"int": re.compile(r"-?[0-9]+"), "float": re.compile(r"-?[0-9]+(\.[0-9]+)?")}


def _decode(cell: str, kind: str) -> object:
    """The value a report cell written by ``_cell`` holds, given its field's type name."""
    if kind == "bool":
        if cell not in ("true", "false"):
            raise ValueError(f"{cell!r} is not true or false")
        return cell == "true"
    value = {"str": str, "int": int, "float": float}[kind](cell)
    if kind in _NUMBER_CELLS and not _NUMBER_CELLS[kind].fullmatch(cell):
        raise ValueError(f"{kind} cell {cell!r} is not written in ASCII digits")
    return value


def emit_report(
    rows: Sequence[DiracReportRow], fmt: str, sink: Union[str, TextIO]
) -> None:
    """Write rows as CSV (always with a header) or JSON, fixed field order."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    own = isinstance(sink, str)
    out: TextIO = open(sink, "w", newline="") if own else sink  # type: ignore[arg-type]
    try:
        if fmt == "csv":
            writer = csv.writer(out)
            writer.writerow(REPORT_FIELDS)
            writer.writerows([_cell(value) for value in astuple(row)] for row in rows)
        else:
            json.dump([asdict(row) for row in rows], out, indent=2)
            out.write("\n")
    finally:
        if own:
            out.close()


def parse_report_csv(text: str) -> list[DiracReportRow]:
    """Read back a CSV report produced by emit_report.

    A record with the wrong number of cells or a cell its field's type
    cannot hold raises ValueError naming the record's line.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != list(REPORT_FIELDS):
        raise ValueError(f"unexpected report header: {header!r}")
    kinds = [f.type for f in fields(DiracReportRow)]
    rows = []
    for record in reader:
        if not record:
            continue
        try:
            if len(record) != len(kinds):
                raise ValueError(f"{len(record)} cells, expected {len(kinds)}")
            rows.append(DiracReportRow(*map(_decode, record, kinds)))
        except ValueError as exc:
            raise ValueError(f"report line {reader.line_num}: {exc}") from None
    return rows
