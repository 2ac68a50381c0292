"""The compiled runtime: dense integer tables, arenas and the batch engine.

This package is the performance layer on top of the paper-faithful
reference implementation, organised around the
:class:`~repro.runtime.plan.ExecutionPlan` abstraction:

* :func:`compile_eva` interns a deterministic sequential eVA into a
  :class:`CompiledEVA`;
* :func:`evaluate_compiled_arena` runs Algorithm 1 on the dense tables and
  builds the flat :class:`CompiledResultDag` node arena natively (no
  ``DagNode`` objects), on which enumeration and counting are integer-only;
* :class:`CompiledSubsetEVA` / :func:`evaluate_subset_arena` implement
  on-the-fly subset construction, so non-deterministic sequential eVAs
  evaluate without an up-front determinization;
* :func:`count_compiled` / :func:`count_subset` are the integer rewrites of
  Algorithm 3;
* :mod:`repro.runtime.encoding` translates documents once per
  alphabet-classing signature into cached class-id buffers
  (:class:`SymbolClassing` / :class:`EncodedDocument`) consumed by every
  engine above — together with the quiescent-run fast path, the layer that
  drives the per-character constant toward C speed;
* :func:`choose_plan` picks the engine from automaton statistics, and
  :func:`run_batch` streams many documents through one compiled automaton,
  serially or across processes;
* :class:`StreamingEvaluator` (:mod:`repro.runtime.streaming`) feeds the
  arena engine one chunk at a time — whole-document results on
  :meth:`finish`, or exact incremental emission of settled mappings with
  a compacted, bounded arena;
* :mod:`repro.runtime.operators` holds the physical operators of hybrid
  plans — fused leaves plus hash join, merge union and arena projection
  executing the cut edges of an optimized algebra expression.
"""

from repro.runtime.batch import freeze_result, run_batch, thaw_result
from repro.runtime.compiled import CompiledEVA, compile_eva
from repro.runtime.dag import CompiledResultDag
from repro.runtime.encoding import (
    EncodedDocument,
    SymbolClassing,
    encoding_passes,
    reset_encoding_passes,
)
from repro.runtime.engine import (
    EvaluationScratch,
    count_compiled,
    evaluate_compiled_arena,
)
from repro.runtime.operators import (
    ArenaProject,
    FusedLeaf,
    HashJoin,
    MergeUnion,
    OperatorResult,
    PhysicalOperator,
    render_physical,
)
from repro.runtime.plan import ENGINE_CHOICES, ExecutionPlan, choose_plan
from repro.runtime.streaming import (
    StreamedResult,
    StreamingEvaluator,
    evaluate_streaming,
    settled_sinks,
)
from repro.runtime.subset import CompiledSubsetEVA, count_subset, evaluate_subset_arena

__all__ = [
    "ArenaProject",
    "CompiledEVA",
    "CompiledResultDag",
    "CompiledSubsetEVA",
    "ENGINE_CHOICES",
    "EncodedDocument",
    "EvaluationScratch",
    "ExecutionPlan",
    "FusedLeaf",
    "HashJoin",
    "MergeUnion",
    "OperatorResult",
    "PhysicalOperator",
    "StreamedResult",
    "StreamingEvaluator",
    "SymbolClassing",
    "choose_plan",
    "compile_eva",
    "count_compiled",
    "count_subset",
    "encoding_passes",
    "evaluate_compiled_arena",
    "evaluate_streaming",
    "evaluate_subset_arena",
    "freeze_result",
    "settled_sinks",
    "render_physical",
    "reset_encoding_passes",
    "run_batch",
    "thaw_result",
]
