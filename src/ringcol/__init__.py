"""Interval edge colorings of ring-layered regular graphs.

The package builds the 2n-regular family of k complete-bipartite-joined
layers on a ring (and K_{n,n}), produces explicit interval edge colorings,
verifies the interval property for arbitrary colorings, and brute-forces
exact least/greatest spans and chromatic indices on desk-scale instances.
"""

from .coloring import EdgeColoring, VerificationReport, spectrum, verify
from .construct import (
    BoundsSummary,
    bounds_summary,
    expected_spectrum,
    mirrored_staircase_coloring,
    ring_chromatic_index,
    staircase_coloring,
    t_coloring,
    widest_constructed_t,
)
from .errors import (
    ColoringError,
    FormatError,
    ParameterError,
    ParityError,
    RingcolError,
    SoundnessError,
)
from .graphs import (
    Edge,
    Graph,
    RingParams,
    Vertex,
    build_graph,
    complete_bipartite,
    make_edge,
    ring_graph,
)
from .search import (
    BoundReport,
    SearchConfig,
    SearchOutcome,
    SpanProfile,
    compute_chromatic_index,
    find_interval_t,
    scan_cap,
    span_profile,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BoundsSummary",
    "ColoringError",
    "Edge",
    "EdgeColoring",
    "FormatError",
    "Graph",
    "ParameterError",
    "ParityError",
    "RingParams",
    "RingcolError",
    "SearchConfig",
    "SearchOutcome",
    "SoundnessError",
    "SpanProfile",
    "VerificationReport",
    "Vertex",
    "bounds_summary",
    "build_graph",
    "complete_bipartite",
    "compute_chromatic_index",
    "expected_spectrum",
    "find_interval_t",
    "make_edge",
    "mirrored_staircase_coloring",
    "ring_chromatic_index",
    "ring_graph",
    "scan_cap",
    "span_profile",
    "spectrum",
    "staircase_coloring",
    "t_coloring",
    "verify",
    "widest_constructed_t",
]
