"""Exact toolkit for DP-coloring (correspondence coloring) at desk scale.

Covers assign each vertex a list of color indices and each edge a
matching between endpoint lists; a coloring picks one color per vertex
so that no matching pair is hit.  The package decides colorability,
criticality, and exact cover-chromatic thresholds by exhaustive search,
recognizes the structural graph classes tied to sharp density bounds
for critical covers, builds the extremal configurations witnessing
those bounds, and sweeps graph streams for counterexamples.
"""

__version__ = "0.1.0"

from .graphs import (
    BlockDecomposition,
    DegreeProfile,
    Graph6Error,
    MultiGraph,
    SimpleGraph,
    block_decomposition,
    clique_number,
    contains_clique,
    degree_profile,
    emit_graph6,
    multigraph_from_json,
    parse_graph6,
)
from .covers import (
    REGIMES,
    Cover,
    PartialColoring,
    count_covers,
    cover_choices,
    cover_from_json,
    cover_from_json_text,
    cover_from_lists,
    cover_to_json,
    cover_to_json_text,
    enumerate_covers,
    is_independent,
    partial_injections,
    relabel_colors,
    residual_list,
)
from .solver import (
    GDPCertificate,
    SearchStats,
    certificate_is_valid,
    chi_dp,
    color_degree_cover,
    find_coloring,
    find_enhancing_extension,
    first_critical_cover,
    is_colorable,
    is_critical,
    is_enhanced,
)
from .recognize import (
    BrickWitness,
    DiracWitness,
    find_brick,
    gdp_deficiency,
    is_gallai_forest,
    is_gdp_forest,
    recognize_dirac,
)
from .construct import (
    make_c4_covers,
    make_dirac,
    make_ks_example,
    make_multigraph_counterexample,
    make_wheel,
)
from .harness import (
    ComponentCheck,
    CriticalStructureReport,
    DiracReportRow,
    SweepConfig,
    candidate_filter,
    emit_report,
    parse_report_csv,
    revalidate_row,
    verify_critical_structure,
    verify_dirac_bound,
)
