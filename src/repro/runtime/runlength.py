"""The run-length kernel: Algorithm 3 as a product of per-run matrices.

The scalar counter in :mod:`repro.runtime.engine` pays one Python-level
fold per character unless *every* live state is silent (the quiescent
sprint).  Real log-like documents are long runs of a handful of symbol
classes, so this module exploits repetition *structurally*: the class-id
buffer is run-length encoded once (:meth:`EncodedDocument.runs
<repro.runtime.encoding.EncodedDocument.runs>`), and a run of ``k``
identical classes becomes **one algebraic step** instead of ``k`` folds.

One position of Algorithm 3 is the count-transfer matrix
``M_c = (I + V) · R_c``: the capturing phase ``I + V`` (silent states
have empty variable rows, so applying it unconditionally matches the
engine's quiet-skip) followed by the reading phase ``R_c`` (dead targets
drop out).  A run of length ``k`` applies ``M_c^k`` by binary
exponentiation over memoized powers of two, ``O(log k)`` sparse-row
products, with exact Python integers throughout.

One :class:`RunLengthKernel` serves both automaton forms — the dense
:class:`~repro.runtime.compiled.CompiledEVA` and the lazily determinized
:class:`~repro.runtime.subset.CompiledSubsetEVA` (the paper's Section 4
remark: the same algorithm over the on-the-fly automaton) — through the
table interface the scalar loops read: ``variable_table[s]`` and
``class_table[s][c]``.  Every row table is built lazily, per reached
state.  The tables are ``dict`` subclasses whose ``__missing__`` builds
the row, so the hot loops index them in C.

On top of the per-run algebra sits a **content-keyed segment memo**:
byte buffers are split on a probed high-frequency delimiter class
(:meth:`EncodedDocument.segment_delimiter`), and the transfer row of
each segment-plus-delimiter from each entry state is computed once and
reused for every repeated segment — on log-like documents with a few
dozen distinct line shapes this collapses the count pass to a
dictionary lookup per line.

The ``kernel`` choice applies only to counting: an arena's cost is its
capture writes, not its stepping, so every arena is built by the scalar
engine whatever kernel is requested.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.errors import EvaluationError
from repro.runtime.compiled import CompiledEVA
from repro.runtime.encoding import runs_of_buffer
from repro.runtime.engine import count_compiled
from repro.runtime.kernel import KERNELS

if TYPE_CHECKING:
    from repro.runtime.subset import CompiledSubsetEVA

__all__ = [
    "KERNELS",
    "RUNLENGTH_MIN_CHARS",
    "RUNLENGTH_MIN_MEAN_RUN",
    "RunLengthKernel",
    "count_runlength",
    "count_with_kernel",
    "prefers_runlength",
    "resolve_kernel",
    "runlength_kernel",
]

# KERNELS (the planner-facing kernel axis) is defined once in
# :mod:`repro.runtime.kernel` and re-exported here for back-compat;
# ``plan.KERNEL_CHOICES`` imports the same tuple, so the two can no
# longer drift (a unit test still pins them equal).

#: ``kernel="auto"`` heuristics: below this document length the kernel
#: construction cost cannot amortize, and below this mean run length the
#: per-run dispatch overhead loses to the scalar sprint (sparse logs sit
#: near 1.4 chars/run — scalar wins; DNA-like or padded data sits far
#: above — runlength wins).
RUNLENGTH_MIN_CHARS = 1024
RUNLENGTH_MIN_MEAN_RUN = 6.0

#: Content-keyed segment-row memo bound (entries, FIFO eviction).
SEGMENT_MEMO_CAP = 1 << 15


class _Rows(dict):
    """A row table filled on demand: ``rows[state]`` builds a missing row."""

    __slots__ = ("build",)

    def __init__(self, build) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, state: int):
        row = self[state] = self.build(state)
        return row


class RunLengthKernel:
    """The run algebra of one automaton, dense or lazily determinized.

    Built once per automaton (``runlength_kernel`` caches it on the
    instance; pickling drops it, as its row builders are closures over
    the automaton's tables).  Every table grows monotonically: the
    automaton's rows never change once discovered, so entries never go
    stale.
    """

    def __init__(self, automaton: CompiledEVA | CompiledSubsetEVA) -> None:
        variable_table = automaton.variable_table
        #: the automaton's letter rows and final flags (the subset form
        #: grows both in place as it interns subsets)
        self._class_table = automaton.class_table
        self.is_final = automaton.is_final

        def iv_row(state: int):
            # The capturing phase: identity plus one entry per variable
            # transition (silent states keep the identity row).
            merged = {state: 1}
            for _set_id, target in variable_table[state]:
                merged[target] = merged.get(target, 0) + 1
            return tuple(sorted(merged.items()))

        #: the ``(I + V)`` row of each reached state
        self.iv_rows = _Rows(iv_row)
        self._powers: dict[tuple[int, int], _Rows] = {}
        self._segment_rows: dict[tuple[bytes, int, int], tuple] = {}

    def power_rows(self, cls: int, bit: int) -> _Rows:
        """``M_cls`` to the power ``2**bit`` as lazily built sparse rows."""
        rows = self._powers.get((cls, bit))
        if rows is None:
            if bit == 0:
                iv_rows = self.iv_rows
                class_table = self._class_table

                def build(state: int):
                    merged: dict[int, int] = {}
                    for source, coeff in iv_rows[state]:
                        target = class_table[source][cls]
                        if target >= 0:
                            merged[target] = merged.get(target, 0) + coeff
                    return tuple(sorted(merged.items()))
            else:
                half = self.power_rows(cls, bit - 1)

                def build(state: int):
                    merged: dict[int, int] = {}
                    for mid, coeff in half[state]:
                        for target, amount in half[mid]:
                            merged[target] = (
                                merged.get(target, 0) + coeff * amount
                            )
                    return tuple(sorted(merged.items()))

            rows = self._powers[cls, bit] = _Rows(build)
        return rows

    def vec_run(self, vector, cls: int, k: int):
        """Apply ``M_cls^k`` to a sparse count vector (state -> count)."""
        powers = self._powers
        bit = 0
        while k:
            if k & 1:
                rows = powers.get((cls, bit))
                if rows is None:
                    rows = self.power_rows(cls, bit)
                out: dict[int, int] = {}
                for state, amount in vector.items():
                    for target, coeff in rows[state]:
                        out[target] = out.get(target, 0) + amount * coeff
                vector = out
                if not vector:
                    break
            k >>= 1
            bit += 1
        return vector

    def segment_row(self, segment: bytes, delimiter: int, state: int):
        """The transfer row of *segment* and then one *delimiter* position.

        Keyed by the segment *bytes* — repeated log-line shapes share one
        computation.  FIFO-evicted at :data:`SEGMENT_MEMO_CAP` entries.
        """
        key = (segment, delimiter, state)
        row = self._segment_rows.get(key)
        if row is None:
            vector = {state: 1}
            for cls, length in runs_of_buffer(segment):
                vector = self.vec_run(vector, cls, length)
            row = tuple(self.vec_run(vector, delimiter, 1).items())
            if len(self._segment_rows) >= SEGMENT_MEMO_CAP:
                del self._segment_rows[next(iter(self._segment_rows))]
            self._segment_rows[key] = row
        return row


def runlength_kernel(
    automaton: CompiledEVA | CompiledSubsetEVA,
) -> RunLengthKernel:
    """The (cached) run-length kernel of a compiled automaton."""
    kernel = automaton._runlength
    if kernel is None:
        kernel = automaton._runlength = RunLengthKernel(automaton)
    return kernel


def count_runlength(
    automaton: CompiledEVA | CompiledSubsetEVA,
    document: object,
) -> int:
    """Algorithm 3 as a run product — exactly the scalar count.

    The count vector is pushed through one matrix power per run (with
    the segment memo collapsing repeated delimiter-bounded stretches to
    lookups), then the trailing capturing phase ``I + V`` is applied and
    final-state counts summed.  Equal to :func:`count_compiled` on
    either automaton form.
    """
    encoded = automaton.encode(document)
    kernel = runlength_kernel(automaton)
    vector = {automaton.initial: 1}
    buf = encoded.buffer
    delimiter = (
        encoded.segment_delimiter() if isinstance(buf, bytes) else None
    )
    if delimiter is None:
        runs = encoded.runs()
    else:
        # bytes.split is one C-level pass; every segment and the delimiter
        # after it is one memo lookup, and only the tail is folded run by
        # run.
        *segments, tail = buf.split(bytes((delimiter,)))
        segment_row = kernel.segment_row
        for segment in segments:
            out: dict[int, int] = {}
            for state, amount in vector.items():
                for target, coeff in segment_row(segment, delimiter, state):
                    out[target] = out.get(target, 0) + amount * coeff
            vector = out
            if not vector:
                break
        runs = runs_of_buffer(tail)
    for cls, length in runs:
        if not vector:
            break
        vector = kernel.vec_run(vector, cls, length)

    is_final = kernel.is_final
    iv_rows = kernel.iv_rows
    total = 0
    for state, amount in vector.items():
        for target, coeff in iv_rows[state]:
            if is_final[target]:
                total += amount * coeff
    return total


# ---------------------------------------------------------------------- #
# Kernel dispatch (the plan's kernel axis lands here)
# ---------------------------------------------------------------------- #


def prefers_runlength(encoded) -> bool:
    """The ``kernel="auto"`` heuristic on one encoded document.

    The run-length kernel wins when runs are long enough to amortize the
    per-run dispatch; on near-unit mean run lengths the scalar sprint
    is faster and auto stays with it.
    """
    return (
        encoded.length >= RUNLENGTH_MIN_CHARS
        and encoded.mean_run_length() >= RUNLENGTH_MIN_MEAN_RUN
    )


def resolve_kernel(kernel: str, encoded) -> str:
    """Resolve the plan-level kernel choice against one document."""
    if kernel == "auto":
        return "runlength" if prefers_runlength(encoded) else "scalar"
    if kernel not in ("scalar", "runlength"):
        raise EvaluationError(
            f"unknown kernel {kernel!r}; expected one of {KERNELS}"
        )
    return kernel


def count_with_kernel(
    automaton: CompiledEVA | CompiledSubsetEVA,
    document: object,
    *,
    kernel: str = "auto",
    fast_path: bool = True,
) -> int:
    """The scalar :func:`count_compiled` or :func:`count_runlength`, by
    plan axis."""
    if (
        kernel != "scalar"
        and resolve_kernel(kernel, automaton.encode(document)) == "runlength"
    ):
        return count_runlength(automaton, document)
    return count_compiled(automaton, document, fast_path=fast_path)
