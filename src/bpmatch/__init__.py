"""Min-sum message passing for minimum-weight b-matchings, with an exact
verification stack: exhaustive search, LP relaxation and duals from an exact
integer simplex, complementary slackness, tightness detection,
computation-tree reference semantics, and asynchronous schedules."""

from .graph import (Graph, Matching, Reduction, Violation, GraphError,
                    GraphParseError, ValidationError, PERFECT, NONPERFECT,
                    edge_key, parse_graph, serialize_graph, validate,
                    require_valid, reduce_trivial)
from .engine import (MessageInit, MessageState, Estimate, StopPolicy, RunResult,
                     init_messages, extract_estimate, run_sync, EngineError,
                     TrivialVertexError, MessageTrace)
from .schedule import (Schedule, ScheduleViolation, CoverageStats, ScheduleError,
                       RedundantScheduleError, ScheduleExhausted, make_schedule,
                       parse_schedule, serialize_schedule, validate_schedule,
                       coverage, run_async)
from .ctree import (LabeledTree, TreeNode, BranchValue, TreeDPResult, TreeError,
                    TreeSizeError, DegenerateTreeError, GCTBuilder, build_tree,
                    tree_bmatching_dp, tree_depth, tree_size, dump_tree)
from .oracle import (LPSolution, DualCertificate, CSReport, TightnessReport,
                     OracleError, InfeasibleError, GuardExceeded, CertificateError,
                     StrongDualityError, brute_force, solve_relaxation,
                     build_certificate, dual_objective, check_cs, is_tight,
                     tightness_by_enumeration, iteration_bound, coverage_threshold,
                     parse_certificate, serialize_certificate)

__version__ = "0.1.0"


def fixture_path(name: str):
    """Path to a shipped example graph (c4, k4-appendix, tri-neg, tri-half, p4)."""
    from importlib.resources import files
    name = name if name.endswith(".graph") else f"{name}.graph"
    return files(__package__).joinpath("fixtures", name)
