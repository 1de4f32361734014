"""Popular critical matchings in two-sided preference instances.

Many-to-many bipartite instances with strict preferences and lower/upper
quotas on both sides.  ``solve`` produces a matching of minimum total
deficiency that no other such matching defeats in pairwise voting, the
certificate module proves that claim for a concrete run via linear
programming duality on a cloned graph, and the oracle module brute-forces
small instances for cross-checking.
"""

from .certificate import (
    CertificateReport,
    CloneId,
    CloneKind,
    ClonedGraph,
    DualCertificate,
    build_cloned_graph,
    clone_matching_weight,
    dual_assignment,
    map_matching_to_clones,
    render_certificate_report,
    verify_certificate,
)
from .matchings import (
    Correspondence,
    DeficiencyReport,
    Matching,
    MatchingError,
    blocking_pairs,
    check_matching,
    deficiency,
    delta,
    max_delta,
    parse_matching,
    random_correspondence,
    serialize_matching,
    validate_correspondence,
    vertex_gain,
    vote,
)
from .model import (
    GenParams,
    Instance,
    InstanceFormatError,
    Quotas,
    Side,
    ValidationReport,
    VertexId,
    generate_random_instance,
    parse_instance,
    serialize_instance,
    validate_instance,
)
from .oracle import (
    DEFAULT_EDGE_BUDGET,
    OracleResult,
    critical_set,
    enumerate_matchings,
    oracle_solve,
)
from .solver import (
    InvariantError,
    LeveledMatching,
    ProposalEvent,
    Trace,
    check_output_properties,
    read_trace_csv,
    solve,
    trace_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CertificateReport",
    "CloneId",
    "CloneKind",
    "ClonedGraph",
    "Correspondence",
    "DEFAULT_EDGE_BUDGET",
    "DeficiencyReport",
    "DualCertificate",
    "GenParams",
    "Instance",
    "InstanceFormatError",
    "InvariantError",
    "LeveledMatching",
    "Matching",
    "MatchingError",
    "OracleResult",
    "ProposalEvent",
    "Quotas",
    "Side",
    "Trace",
    "ValidationReport",
    "VertexId",
    "blocking_pairs",
    "build_cloned_graph",
    "check_matching",
    "check_output_properties",
    "clone_matching_weight",
    "critical_set",
    "deficiency",
    "delta",
    "dual_assignment",
    "enumerate_matchings",
    "generate_random_instance",
    "map_matching_to_clones",
    "max_delta",
    "oracle_solve",
    "parse_instance",
    "parse_matching",
    "random_correspondence",
    "read_trace_csv",
    "render_certificate_report",
    "serialize_instance",
    "serialize_matching",
    "solve",
    "trace_to_csv",
    "validate_correspondence",
    "validate_instance",
    "verify_certificate",
    "vertex_gain",
    "vote",
]
