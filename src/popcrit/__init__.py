"""Popular critical matchings in two-sided preference instances.

Many-to-many bipartite instances with strict preferences and lower/upper
quotas on both sides.  ``solve`` produces a matching of minimum total
deficiency that no other such matching defeats in pairwise voting, the
certificate module proves that claim, and that no such popular matching is
larger, for a concrete run via linear programming duality on a cloned
graph and potentials on a flow network, and the oracle module
brute-forces small instances for cross-checking.

``import popcrit`` loads no submodule.  Each public name loads the
submodule that defines it on first use, so a caller of ``solve`` loads
``model``, ``matchings`` and ``solver`` only, and ``certificate`` and
``oracle`` load when first touched.
"""

__version__ = "0.1.0"

# Each public name with the submodule that defines it.
_HOMES = {
    "CertificateReport": "certificate",
    "CloneId": "certificate",
    "CloneKind": "certificate",
    "ClonedGraph": "certificate",
    "DualCertificate": "certificate",
    "build_cloned_graph": "certificate",
    "clone_matching_weight": "certificate",
    "dual_assignment": "certificate",
    "map_matching_to_clones": "certificate",
    "render_certificate_report": "certificate",
    "verify_certificate": "certificate",

    "Correspondence": "matchings",
    "DeficiencyReport": "matchings",
    "Matching": "matchings",
    "MatchingError": "matchings",
    "blocking_pairs": "matchings",
    "check_matching": "matchings",
    "deficiency": "matchings",
    "delta": "matchings",
    "max_delta": "matchings",
    "parse_matching": "matchings",
    "random_correspondence": "matchings",
    "serialize_matching": "matchings",
    "validate_correspondence": "matchings",
    "vertex_gain": "matchings",
    "vote": "matchings",

    "GenParams": "model",
    "Instance": "model",
    "InstanceFormatError": "model",
    "Quotas": "model",
    "Side": "model",
    "VertexId": "model",
    "generate_random_instance": "model",
    "parse_instance": "model",
    "serialize_instance": "model",
    "validate_instance": "model",

    "DEFAULT_EDGE_BUDGET": "oracle",
    "OracleResult": "oracle",
    "critical_set": "oracle",
    "enumerate_matchings": "oracle",
    "oracle_solve": "oracle",

    "InvariantError": "solver",
    "LeveledMatching": "solver",
    "ProposalEvent": "solver",
    "Trace": "solver",
    "check_output_properties": "solver",
    "read_trace_csv": "solver",
    "solve": "solver",
    "trace_to_csv": "solver",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    """Import the submodule defining a public name on its first use, and
    bind the name here so later lookups skip this function."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # What `from .<home> import <name>` runs.
    home = __import__(_HOMES[name], globals(), fromlist=[name], level=1)
    value = globals()[name] = getattr(home, name)
    return value


def __dir__() -> list[str]:
    return __all__
