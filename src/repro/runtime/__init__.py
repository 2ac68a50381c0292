"""The compiled runtime: integer tables, arenas and the batch engine.

This package is the performance layer on top of the paper-faithful
reference implementation, organised around the
:class:`~repro.runtime.plan.ExecutionPlan` abstraction:

* :class:`CompiledSubsetEVA` interns a sequential eVA into integer
  tables and determinizes it on the fly: subset rows are filled on first
  read, so no request runs an up-front determinization, and a generation
  past :data:`~repro.runtime.subset.SUBSET_CAP` subsets is replaced by a
  fresh one at the next call;
* :func:`evaluate_compiled_arena` runs Algorithm 1 on that automaton
  and builds the flat :class:`CompiledResultDag` node arena natively
  (no ``DagNode`` objects), on which enumeration and counting are
  integer-only; :func:`count_compiled` is the integer rewrite of
  Algorithm 3.  Both run the one set of loops in
  :mod:`repro.runtime.kernel`;
* :mod:`repro.runtime.encoding` translates documents once per
  alphabet-classing signature into cached class-id buffers
  (:class:`SymbolClassing` / :class:`EncodedDocument`) consumed by every
  engine above — together with the quiescent-run fast path, the layer that
  drives the per-character constant toward C speed;
* :func:`choose_plan` resolves forced engines and streaming plans, and
  :func:`run_batch` streams many documents through one compiled automaton,
  serially or across processes;
* :class:`StreamingEvaluator` (:mod:`repro.runtime.streaming`) feeds the
  arena engine one chunk at a time — whole-document results on
  :meth:`finish`, or exact incremental emission of settled mappings with
  a compacted, bounded arena;
* :mod:`repro.runtime.operators` holds the physical operators of hybrid
  plans — fused leaves plus hash join, merge union and arena projection
  executing the cut edges of an optimized algebra expression.

Every name below is exported lazily (PEP 562): ``from repro.runtime
import run_batch`` loads :mod:`repro.runtime.batch` then, not when the
package is imported, so a default request never loads the process pool,
the streaming evaluator or the hybrid operators.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "batch": ("freeze_result", "run_batch", "thaw_result"),
        "dag": ("CompiledResultDag",),
        "encoding": (
            "EncodedDocument",
            "SymbolClassing",
            "encoding_passes",
            "reset_encoding_passes",
        ),
        "engine": ("count_compiled", "evaluate_compiled_arena"),
        "operators": (
            "ArenaProject",
            "FusedLeaf",
            "HashJoin",
            "MergeUnion",
            "OperatorResult",
            "PhysicalOperator",
            "render_physical",
        ),
        "plan": ("ENGINE_CHOICES", "ExecutionPlan", "choose_plan"),
        "streaming": (
            "StreamedResult",
            "StreamingEvaluator",
            "evaluate_streaming",
        ),
        "subset": ("CompiledSubsetEVA",),
    },
)

__all__ = [
    "ArenaProject",
    "CompiledResultDag",
    "CompiledSubsetEVA",
    "ENGINE_CHOICES",
    "EncodedDocument",
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
    "count_compiled",
    "encoding_passes",
    "evaluate_compiled_arena",
    "evaluate_streaming",
    "freeze_result",
    "render_physical",
    "reset_encoding_passes",
    "run_batch",
    "thaw_result",
]
