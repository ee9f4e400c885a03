"""Count and compactly represent all exact covers of an incidence matrix.

The solver compiles the full solution set into a zero-suppressed
decision diagram (a ZBDD, or zero-suppressed decision-DNNF when
component decomposition is enabled) instead of enumerating covers one
by one, so counting and querying stay cheap even when the count is
astronomically large.
"""

from .diagram import BOTTOM, TOP, NodeStore, load_dump
from .dynconn import Component, ComponentSet, DynConnError, SpanningForest
from .gen import GenConfig, GraphInput, block_diagonal, generate, parse_graph
from .instance import Instance, ParseError, parse_instance, serialize_instance
from .oracle import CoverCapExceeded, count_covers, enumerate_covers
from .solver import (ENGINES, SolveConfig, SolveReport, SolveStats,
                     SolveTimeout, solve)

__version__ = "0.1.0"

__all__ = [
    "BOTTOM", "TOP", "NodeStore", "load_dump",
    "Component", "ComponentSet", "DynConnError", "SpanningForest",
    "GenConfig", "GraphInput", "block_diagonal", "generate", "parse_graph",
    "Instance", "ParseError", "parse_instance", "serialize_instance",
    "CoverCapExceeded", "count_covers", "enumerate_covers",
    "ENGINES", "SolveConfig", "SolveReport", "SolveStats", "SolveTimeout",
    "solve",
    "__version__",
]
