"""The spanner algebra: union, join and projection over spanners.

Besides the expression trees and the two evaluation routes of the paper
(automaton-level constructions in :mod:`repro.algebra.automaton_ops`,
set-level operators in :mod:`repro.algebra.operators`), the package hosts
the logical query-plan layer (:mod:`repro.algebra.logical`) and the
cost-based optimizer (:mod:`repro.algebra.optimizer`) that picks per
operator between fusing into one automaton and cutting into runtime arena
operators.
"""

from repro.algebra.expressions import Atom, Join, Projection, SpannerExpression, UnionExpr
from repro._lazy import lazy_exports

# The expression trees are what a Spanner source can be; the evaluation
# routes, the plan layer and the optimizer load on first use.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "automaton_ops": (
            "join_eva",
            "project_eva",
            "union_deterministic_eva",
            "union_eva",
        ),
        "compile": ("compile_expression", "evaluate_expression_setwise"),
        "logical": (
            "LogicalAtom",
            "LogicalJoin",
            "LogicalNode",
            "LogicalProject",
            "LogicalUnion",
            "expression_from_logical",
            "logical_from_expression",
            "render_logical",
        ),
        "operators": ("join_mapping_sets", "project_mapping_set", "union_mapping_sets"),
        "optimizer": ("OptimizedPlan", "optimize"),
    },
)

__all__ = [
    "Atom",
    "Join",
    "LogicalAtom",
    "LogicalJoin",
    "LogicalNode",
    "LogicalProject",
    "LogicalUnion",
    "OptimizedPlan",
    "Projection",
    "SpannerExpression",
    "UnionExpr",
    "compile_expression",
    "evaluate_expression_setwise",
    "expression_from_logical",
    "join_eva",
    "join_mapping_sets",
    "logical_from_expression",
    "optimize",
    "project_eva",
    "project_mapping_set",
    "render_logical",
    "union_deterministic_eva",
    "union_eva",
    "union_mapping_sets",
]
