"""Run-length kernels: per-class transfer matrices over the RLE buffer.

The scalar engines in :mod:`repro.runtime.engine` pay one Python-level
fold per character unless *every* live state is silent (the quiescent
sprint).  Real log-like documents are long runs of a handful of symbol
classes, so this module exploits repetition *structurally*: the class-id
buffer is run-length encoded once (:meth:`EncodedDocument.runs
<repro.runtime.encoding.EncodedDocument.runs>`), and a run of ``k``
identical classes becomes **one algebraic step** instead of ``k`` folds.

Per compiled automaton and class ``c`` the kernel precomputes:

* the **count-transfer matrix** ``M_c = (I + V) · R_c`` as sparse integer
  rows — the exact per-position effect of Algorithm 3's capturing phase
  (``I + V``; silent states have empty variable rows, so applying it
  unconditionally matches the engine's quiet-skip) followed by the
  reading phase ``R_c`` (dead targets drop out),
* the **Boolean reachability row** ``B_c`` as per-state int bitmasks —
  the state-set image of one position, exactly the transition the
  shard summary pass (:func:`repro.runtime.sharding.shard_summary`)
  applies per character,
* a **class kind** used to shortcut exponentiation: ``functional``
  (every row has at most one unit entry — permutation, shift and dead
  classes alike; a run is a memoized trajectory walk with cycle
  arithmetic, ``O(1)`` per live state), ``idempotent`` (``M_c² = M_c``;
  any positive run length is one multiply) or ``general`` (binary
  exponentiation over memoized powers of two, ``O(log k)`` multiplies).

Counting runs the whole document as a product of per-run matrices
applied to the count vector (:func:`count_runlength`,
:func:`count_subset_runlength`); with numpy importable (it is imported on
the first run that can use it, never at module load), long general
runs use exact ``int64`` matrix powers behind a conservative magnitude
guard, falling back to arbitrary-precision Python rows whenever the
guard cannot prove the product stays well inside ``int64``.  Both paths
produce identical integers — the property suite pins bit-equality.

On top of the per-run algebra sits a **content-keyed segment memo**:
byte buffers are split on a probed high-frequency delimiter class
(:meth:`EncodedDocument.segment_delimiter`), and the transfer row of
each ``(segment, entry state)`` pair is computed once and reused for
every repeated segment — on log-like documents with a few dozen
distinct line shapes this collapses the count pass to a dictionary
lookup per line.

The full-capture arena engine (:func:`evaluate_runlength_arena`) uses
the Boolean layer as a *generalized sprint*: a run prefix is skipped
wholesale exactly when the scalar engine would write **nothing** to the
arena over it — every intermediate state silent (no capture cells), no
two live runs merging (no splice), deaths allowed (they write nothing).
That strictly subsumes the all-silent self-loop condition of the scalar
sprint: live states may *move* (and die) mid-run and the jump still
applies.  Because skipped positions write nothing by construction, the
produced arena is bit-identical to the scalar engine's — the
differential harness asserts exactly that.
"""

from __future__ import annotations

from repro.core.errors import EvaluationError
from repro.runtime.compiled import CompiledEVA
from repro.runtime.dag import CompiledResultDag
from repro.runtime.encoding import runs_of_buffer
from repro.runtime.engine import (
    EvaluationScratch,
    _checked_scratch,
    _collect_arena,
    count_compiled,
    evaluate_compiled_arena,
)
from repro.runtime.kernel import KERNELS, KernelSpec, build_kernel
from repro.runtime.subset import CompiledSubsetEVA, count_subset

#: numpy, imported by :func:`_load_numpy` on the first run that can use
#: it (``None`` if that import failed); importing it with this module
#: would charge every ``import repro``.
_NOT_LOADED = object()
_numpy = _NOT_LOADED

__all__ = [
    "KERNELS",
    "RUNLENGTH_MIN_CHARS",
    "RUNLENGTH_MIN_MEAN_RUN",
    "RunLengthKernel",
    "SubsetRunLengthKernel",
    "count_runlength",
    "count_subset_runlength",
    "count_subset_with_kernel",
    "count_vectors_runlength",
    "count_with_kernel",
    "evaluate_arena_with_kernel",
    "evaluate_runlength_arena",
    "numpy_available",
    "prefers_runlength",
    "resolve_kernel",
    "runlength_kernel",
    "subset_runlength_kernel",
    "summary_runlength",
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

#: numpy engages only for ``general``-kind runs at least this long —
#: shorter runs are cheaper as one or two sparse-row applications.
_NUMPY_MIN_RUN = 64
#: Conservative magnitude ceiling for the exact ``int64`` path: any
#: bound-propagation product reaching this refuses numpy for the run
#: and falls back to arbitrary-precision Python rows.
_NUMPY_SAFE = 1 << 62

#: Content-keyed segment-row memo bound (entries, FIFO eviction) and the
#: bound on memoized silent state-set trajectories.
SEGMENT_MEMO_CAP = 1 << 15
_PATH_MEMO_CAP = 1 << 12


def numpy_available() -> bool:
    """Whether the exact-int64 numpy run path can be used.

    Answers from the import system's module search until the first run
    has tried the import, so asking does not import numpy.
    """
    if _numpy is not _NOT_LOADED:
        return _numpy is not None
    from importlib.util import find_spec

    return find_spec("numpy") is not None


def _load_numpy():
    """numpy, imported on first use; ``None`` when the import fails."""
    global _numpy
    if _numpy is _NOT_LOADED:
        try:
            import numpy as _numpy
        except ImportError:
            _numpy = None
    return _numpy


# ---------------------------------------------------------------------- #
# Sparse integer row algebra (states -> sorted (target, coeff) tuples)
# ---------------------------------------------------------------------- #


def _mul_rows(a, b):
    """Row-table product: ``(a · b)[s] = Σ_t a[s][t] · b[t]``."""
    out = []
    for row in a:
        merged: dict[int, int] = {}
        for target, coeff in row:
            for final, amount in b[target]:
                merged[final] = merged.get(final, 0) + coeff * amount
        out.append(tuple(sorted(merged.items())))
    return tuple(out)


def _vec_rows(vector, rows):
    """Apply a row table to a sparse count vector (dict state -> count)."""
    out: dict[int, int] = {}
    for state, amount in vector.items():
        for target, coeff in rows[state]:
            out[target] = out.get(target, 0) + amount * coeff
    return out


class RunLengthKernel:
    """Per-class run algebra for one :class:`CompiledEVA`.

    Built once per automaton (``runlength_kernel`` caches it on the
    compiled instance; pickling drops it like every other derived
    cache) and shared by the count, summary and arena run paths.  All
    memo tables are keyed by ``(class, ...)`` and grow monotonically —
    the automaton's tables are immutable, so entries never go stale.
    """

    def __init__(self, compiled: CompiledEVA) -> None:
        self.compiled = compiled
        num_states = compiled.num_states
        class_table = compiled.class_table
        variable_table = compiled.variable_table
        silent = compiled.silent
        num_classes = len(class_table[0]) if num_states else 0
        self.num_states = num_states
        self.num_classes = num_classes

        # (I + V) rows: the capturing phase as a sparse matrix.  Silent
        # states have empty variable rows, so their row is the identity.
        iv_rows = []
        for state in range(num_states):
            row = {state: 1}
            for _set_id, target in variable_table[state]:
                row[target] = row.get(target, 0) + 1
            iv_rows.append(tuple(sorted(row.items())))
        self.iv_rows = tuple(iv_rows)

        step_rows = []
        bool_rows = []
        selfloop_silent = []
        count_kind = []
        for cls in range(num_classes):
            rows = []
            masks = []
            loop_mask = 0
            functional = True
            for state in range(num_states):
                merged: dict[int, int] = {}
                mask = 0
                for source, coeff in iv_rows[state]:
                    target = class_table[source][cls]
                    if target < 0:
                        continue
                    merged[target] = merged.get(target, 0) + coeff
                    mask |= 1 << target
                row = tuple(sorted(merged.items()))
                rows.append(row)
                masks.append(mask)
                if len(row) > 1 or (row and row[0][1] != 1):
                    functional = False
                if silent[state] and class_table[state][cls] == state:
                    loop_mask |= 1 << state
            rows = tuple(rows)
            if functional:
                kind = "functional"
            elif _mul_rows(rows, rows) == rows:
                kind = "idempotent"
            else:
                kind = "general"
            step_rows.append(rows)
            bool_rows.append(tuple(masks))
            selfloop_silent.append(loop_mask)
            count_kind.append(kind)
        #: per class: ``M_c`` as sparse rows / ``B_c`` as bitmask rows /
        #: the silent-self-loop mask / the exponentiation shortcut kind.
        self.step_rows = tuple(step_rows)
        self.bool_rows = tuple(bool_rows)
        self.selfloop_silent = tuple(selfloop_silent)
        self.count_kind = tuple(count_kind)

        self._count_powers: dict[tuple[int, int], tuple] = {}
        self._bool_powers: dict[tuple[int, int], tuple] = {}
        self._count_paths: dict[tuple[int, int], tuple] = {}
        self._sprint_paths: dict[tuple[int, int], tuple] = {}
        self._mask_paths: dict[tuple[int, int], tuple] = {}
        self._np_powers: dict[tuple[int, int], tuple] = {}
        self._segment_rows: dict[tuple[bytes, int], tuple] = {}

    # ------------------------------------------------------------------ #
    # Count algebra: M_c^k applied to a sparse count vector
    # ------------------------------------------------------------------ #

    def count_power(self, cls: int, bit: int):
        """``M_cls`` to the power ``2**bit`` as sparse rows (memoized)."""
        key = (cls, bit)
        rows = self._count_powers.get(key)
        if rows is None:
            if bit == 0:
                rows = self.step_rows[cls]
            else:
                half = self.count_power(cls, bit - 1)
                rows = _mul_rows(half, half)
            self._count_powers[key] = rows
        return rows

    def _count_path(self, cls: int, state: int):
        """Trajectory of a basis vector under a functional class.

        Returns ``(seq, cycle)``: ``seq[i]`` is the state after ``i``
        positions, ``cycle`` the index the trajectory re-enters (``None``
        when it dies instead).
        """
        key = (cls, state)
        cached = self._count_paths.get(key)
        if cached is None:
            rows = self.step_rows[cls]
            seq = [state]
            index = {state: 0}
            cur = state
            cycle = None
            while True:
                row = rows[cur]
                if not row:
                    break
                cur = row[0][0]
                if cur in index:
                    cycle = index[cur]
                    break
                index[cur] = len(seq)
                seq.append(cur)
            cached = (tuple(seq), cycle)
            self._count_paths[key] = cached
        return cached

    def _functional_target(self, cls: int, state: int, k: int):
        """``M_cls^k · e_state`` for a functional class: one state or None."""
        seq, cycle = self._count_path(cls, state)
        if k < len(seq):
            return seq[k]
        if cycle is None:
            return None
        span = len(seq) - cycle
        return seq[cycle + (k - cycle) % span]

    def vec_run(self, vector, cls: int, k: int, use_numpy=None):
        """Apply ``M_cls^k`` to a sparse count vector exactly.

        ``use_numpy``: ``None`` engages the int64 path automatically for
        long general runs, ``False`` never does; either way the result
        is the exact integer vector.
        """
        if k <= 0 or not vector:
            return dict(vector)
        kind = self.count_kind[cls]
        if kind == "functional":
            out: dict[int, int] = {}
            for state, amount in vector.items():
                target = self._functional_target(cls, state, k)
                if target is not None:
                    out[target] = out.get(target, 0) + amount
            return out
        if kind == "idempotent":
            return _vec_rows(vector, self.step_rows[cls])
        if (
            use_numpy is not False
            and k >= _NUMPY_MIN_RUN
            and _load_numpy() is not None
        ):
            out = self._vec_run_numpy(vector, cls, k)
            if out is not None:
                return out
        out = dict(vector)
        bit = 0
        while k:
            if k & 1:
                out = _vec_rows(out, self.count_power(cls, bit))
                if not out:
                    return out
            k >>= 1
            bit += 1
        return out

    def _np_power(self, cls: int, bit: int):
        """``(matrix, peak)`` for ``M_cls^(2**bit)`` in int64, or
        ``(None, 0)`` once the squaring chain can no longer be proven
        overflow-free."""
        key = (cls, bit)
        cached = self._np_powers.get(key)
        if cached is None:
            if bit == 0:
                n = self.num_states
                mat = _numpy.zeros((n, n), dtype=_numpy.int64)
                for state, row in enumerate(self.step_rows[cls]):
                    for target, coeff in row:
                        mat[state, target] = coeff
            else:
                prev, peak_prev = self._np_power(cls, bit - 1)
                if (
                    prev is None
                    or peak_prev * peak_prev * max(self.num_states, 1)
                    >= _NUMPY_SAFE
                ):
                    cached = (None, 0)
                    self._np_powers[key] = cached
                    return cached
                mat = prev @ prev
            peak = int(mat.max()) if mat.size else 0
            cached = (mat, peak)
            self._np_powers[key] = cached
        return cached

    def _vec_run_numpy(self, vector, cls: int, k: int):
        """The int64 run product, or ``None`` when the conservative
        magnitude bound cannot clear the whole run (caller falls back to
        exact Python rows)."""
        n = self.num_states
        bound = sum(vector.values())
        if bound >= _NUMPY_SAFE:
            return None
        mats = []
        bit = 0
        while k:
            if k & 1:
                mat, peak = self._np_power(cls, bit)
                if mat is None:
                    return None
                bound *= max(peak, 1) * max(n, 1)
                if bound >= _NUMPY_SAFE:
                    return None
                mats.append(mat)
            k >>= 1
            bit += 1
        vec = _numpy.zeros(n, dtype=_numpy.int64)
        for state, amount in vector.items():
            vec[state] = amount
        for mat in mats:
            vec = vec @ mat
        return {
            state: amount
            for state, amount in enumerate(vec.tolist())
            if amount
        }

    # ------------------------------------------------------------------ #
    # Content-keyed segment rows (the log-line memo)
    # ------------------------------------------------------------------ #

    def segment_row(self, segment: bytes, state: int, use_numpy=None):
        """The transfer row of one delimiter-free segment from *state*.

        Keyed by the segment *bytes* — repeated log-line shapes share one
        computation.  FIFO-evicted at :data:`SEGMENT_MEMO_CAP` entries.
        """
        key = (segment, state)
        row = self._segment_rows.get(key)
        if row is None:
            vector = {state: 1}
            for cls, length in runs_of_buffer(segment):
                if not vector:
                    break
                vector = self.vec_run(vector, cls, length, use_numpy)
            row = tuple(sorted(vector.items()))
            if len(self._segment_rows) >= SEGMENT_MEMO_CAP:
                self._segment_rows.pop(next(iter(self._segment_rows)))
            self._segment_rows[key] = row
        return row

    def count_vector_segmented(self, buf: bytes, delimiter: int, vector,
                               use_numpy=None):
        """The count vector after *buf*, split on one delimiter class.

        ``bytes.split`` is a single C-level pass; every segment between
        delimiters goes through :meth:`segment_row`, every delimiter is
        one sparse-row application.  Exactly equal to folding the runs.
        """
        segments = buf.split(bytes((delimiter,)))
        delim_rows = self.step_rows[delimiter]
        last = len(segments) - 1
        for index, segment in enumerate(segments):
            if not vector:
                return vector
            if segment:
                if len(vector) == 1:
                    ((state, amount),) = vector.items()
                    row = self.segment_row(segment, state, use_numpy)
                    vector = {t: amount * c for t, c in row}
                else:
                    out: dict[int, int] = {}
                    for state, amount in vector.items():
                        row = self.segment_row(segment, state, use_numpy)
                        for target, coeff in row:
                            out[target] = out.get(target, 0) + amount * coeff
                    vector = out
            if index != last and vector:
                vector = _vec_rows(vector, delim_rows)
        return vector

    def count_vector_runs(self, runs, vector, use_numpy=None):
        """Fold a run list through the per-run count algebra."""
        for cls, length in runs:
            if not vector:
                break
            vector = self.vec_run(vector, cls, length, use_numpy)
        return vector

    # ------------------------------------------------------------------ #
    # Boolean reachability: the summary-pass algebra
    # ------------------------------------------------------------------ #

    def bool_power(self, cls: int, bit: int):
        """``B_cls`` to the power ``2**bit`` as bitmask rows (memoized)."""
        key = (cls, bit)
        masks = self._bool_powers.get(key)
        if masks is None:
            if bit == 0:
                masks = self.bool_rows[cls]
            else:
                half = self.bool_power(cls, bit - 1)
                composed = []
                for mask in half:
                    image = 0
                    while mask:
                        low = mask & -mask
                        image |= half[low.bit_length() - 1]
                        mask &= mask - 1
                    composed.append(image)
                masks = tuple(composed)
            self._bool_powers[key] = masks
        return masks

    def frontier_run(self, mask: int, cls: int, k: int) -> int:
        """Push a state-set bitmask through a run of length ``k`` —
        ``O(log k)`` Boolean row applications instead of ``k`` steps."""
        bit = 0
        while k and mask:
            if k & 1:
                rows = self.bool_power(cls, bit)
                image = 0
                m = mask
                while m:
                    low = m & -m
                    image |= rows[low.bit_length() - 1]
                    m &= m - 1
                mask = image
            k >>= 1
            bit += 1
        return mask

    # ------------------------------------------------------------------ #
    # Generalized-sprint trajectories (the arena jump machinery)
    # ------------------------------------------------------------------ #

    def sprint_path(self, cls: int, state: int):
        """The pure-reading trajectory of one silent state under *cls*.

        ``(kind, seq, cycle)`` with ``seq[i]`` the state after ``i``
        positions: ``"cycle"`` — all silent, re-enters ``seq[cycle]``;
        ``"dies"`` — all silent, the ``len(seq)``-th position kills it;
        ``"exits"`` — ``seq[-1]`` is the first non-silent state, reached
        after ``len(seq) - 1`` positions.
        """
        key = (cls, state)
        cached = self._sprint_paths.get(key)
        if cached is None:
            class_table = self.compiled.class_table
            silent = self.compiled.silent
            seq = [state]
            index = {state: 0}
            cur = state
            while True:
                target = class_table[cur][cls]
                if target < 0:
                    cached = ("dies", tuple(seq), 0)
                    break
                if not silent[target]:
                    seq.append(target)
                    cached = ("exits", tuple(seq), 0)
                    break
                if target in index:
                    cached = ("cycle", tuple(seq), index[target])
                    break
                index[target] = len(seq)
                seq.append(target)
                cur = target
            self._sprint_paths[key] = cached
        return cached

    def silent_target(self, cls: int, state: int, k: int):
        """Where a silent *state* sits after ``k`` all-silent positions
        (``None`` if it died on the way).  Callers guarantee ``k`` stays
        inside the silent prefix of the trajectory."""
        kind, seq, cycle = self.sprint_path(cls, state)
        if k < len(seq):
            return seq[k]
        if kind == "cycle":
            span = len(seq) - cycle
            return seq[cycle + (k - cycle) % span]
        if kind == "dies":
            return None
        raise EvaluationError(
            "run-length jump walked past a non-silent exit; the silent "
            "prefix accounting is inconsistent"
        )

    def _mask_step(self, cls: int, mask: int):
        """One reading step on a silent state-set mask.

        ``(image, free)`` — *free* is True when the position provably
        writes nothing to an arena: no two live runs merge (no splice)
        and every surviving target is silent (no capture next).  Deaths
        write nothing and keep the step free.
        """
        class_table = self.compiled.class_table
        silent = self.compiled.silent
        image = 0
        m = mask
        while m:
            low = m & -m
            state = low.bit_length() - 1
            m &= m - 1
            target = class_table[state][cls]
            if target < 0:
                continue
            bit = 1 << target
            if (image & bit) or not silent[target]:
                return image, False
            image |= bit
        return image, True

    def mask_path(self, cls: int, mask: int):
        """``(seq, cycle)`` of free steps for a silent state-set mask:
        ``seq[i]`` is the mask after ``i`` free positions; ``cycle`` is
        the re-entry index (unbounded free steps) or ``None`` when the
        next position is not free."""
        key = (cls, mask)
        cached = self._mask_paths.get(key)
        if cached is None:
            seq = [mask]
            index = {mask: 0}
            cur = mask
            cycle = None
            while True:
                image, free = self._mask_step(cls, cur)
                if not free:
                    break
                if image in index:
                    cycle = index[image]
                    break
                index[image] = len(seq)
                seq.append(image)
                cur = image
            cached = (tuple(seq), cycle)
            if len(self._mask_paths) < _PATH_MEMO_CAP:
                self._mask_paths[key] = cached
        return cached


def runlength_kernel(compiled: CompiledEVA) -> RunLengthKernel:
    """The (cached) run-length kernel of a compiled automaton."""
    kernel = compiled._runlength
    if kernel is None:
        kernel = RunLengthKernel(compiled)
        compiled._runlength = kernel
    return kernel


# ---------------------------------------------------------------------- #
# Counting: Algorithm 3 as a product of per-run matrices
# ---------------------------------------------------------------------- #


def count_runlength(
    compiled: CompiledEVA,
    document: object,
    *,
    use_numpy=None,
) -> int:
    """Algorithm 3 as a run product — exactly :func:`count_compiled`.

    The count vector is pushed through one matrix power per run (with
    the segment memo collapsing repeated delimiter-bounded stretches to
    lookups), then the trailing capturing phase ``I + V`` is applied and
    final-state counts summed.  ``use_numpy=True`` requires numpy,
    ``False`` forbids it, ``None`` (default) decides per run.
    """
    if use_numpy and _load_numpy() is None:
        raise EvaluationError(
            "use_numpy=True was requested but numpy is not importable"
        )
    encoded = compiled.encode(document)
    kernel = runlength_kernel(compiled)
    vector = {compiled.initial: 1}
    buf = encoded.buffer
    delimiter = (
        encoded.segment_delimiter() if isinstance(buf, bytes) else None
    )
    if delimiter is not None:
        vector = kernel.count_vector_segmented(
            buf, delimiter, vector, use_numpy
        )
    else:
        vector = kernel.count_vector_runs(encoded.runs(), vector, use_numpy)

    is_final = compiled.is_final
    iv_rows = kernel.iv_rows
    total = 0
    for state, amount in vector.items():
        for target, coeff in iv_rows[state]:
            if is_final[target]:
                total += amount * coeff
    return total


# ---------------------------------------------------------------------- #
# Full-capture arena evaluation with the generalized sprint
# ---------------------------------------------------------------------- #

_runlength_arena_kernel = build_kernel(
    KernelSpec(capture="arena", kernel="runlength")
)


def evaluate_runlength_arena(
    compiled: CompiledEVA,
    document: object,
    *,
    scratch: EvaluationScratch | None = None,
    fast_path: bool = True,
) -> CompiledResultDag:
    """Algorithm 1 over the RLE buffer — bit-identical to
    :func:`~repro.runtime.engine.evaluate_compiled_arena`.

    Scalar positions run exactly the engine's capturing/reading code
    (same snapshot order, same splice discipline, same sorted-active
    canonical order).  When every live state is silent, whole run
    prefixes are jumped via memoized trajectories: a lone run follows
    :meth:`RunLengthKernel.sprint_path` (state changes and death inside
    a run cost ``O(1)``), several runs jump together as long as
    :meth:`RunLengthKernel.mask_path` proves no merge and no non-silent
    landing.  Jumped positions write nothing by construction, so the
    arena arrays cannot differ from the scalar engine's.
    """
    encoded = compiled.encode(document)
    n = encoded.length
    runs = encoded.runs()
    kernel = runlength_kernel(compiled)
    scratch = _checked_scratch(compiled, scratch)
    result = _runlength_arena_kernel(compiled, kernel, runs, n, scratch, fast_path)
    return _collect_arena(compiled, n, scratch, result)


# ---------------------------------------------------------------------- #
# Sharding composition: per-shard summaries / vectors over runs
# ---------------------------------------------------------------------- #


def summary_runlength(
    compiled: CompiledEVA,
    buf,
    n: int | None = None,
    *,
    entry_states=None,
):
    """The shard transition summary via Boolean run powers.

    Same shape as :func:`repro.runtime.sharding.shard_summary` — entry
    state to sorted exit tuple, dead entries empty — but each run costs
    ``O(log k)`` Boolean row applications instead of ``k`` characters.
    No trailing capture: boundary work belongs to the successor shard.
    """
    kernel = runlength_kernel(compiled)
    if entry_states is None:
        entry_states = range(compiled.num_states)
    if n is not None:
        buf = buf[:n]
    runs = runs_of_buffer(buf)
    summary = {}
    for entry in entry_states:
        mask = 1 << entry
        for cls, length in runs:
            if not mask:
                break
            mask = kernel.frontier_run(mask, cls, length)
        exits = []
        while mask:
            low = mask & -mask
            exits.append(low.bit_length() - 1)
            mask &= mask - 1
        summary[entry] = tuple(exits)
    return summary


def count_vectors_runlength(
    compiled: CompiledEVA,
    buf,
    entries,
    include_final: bool,
):
    """Per-entry exit count vectors of one shard via the run algebra.

    Same contract as the scalar ``_count_run`` task: each entry state
    seeds a unit count; *include_final* applies the trailing capturing
    phase (``I + V``) on the last shard only.
    """
    kernel = runlength_kernel(compiled)
    runs = runs_of_buffer(buf)
    iv_rows = kernel.iv_rows
    vectors = {}
    for entry in entries:
        vector = kernel.count_vector_runs(runs, {entry: 1})
        if include_final and vector:
            out: dict[int, int] = {}
            for state, amount in vector.items():
                for target, coeff in iv_rows[state]:
                    out[target] = out.get(target, 0) + amount * coeff
            vector = out
        vectors[entry] = vector
    return vectors


# ---------------------------------------------------------------------- #
# The lazily determinized (subset) count path
# ---------------------------------------------------------------------- #


class SubsetRunLengthKernel:
    """Run algebra over a :class:`CompiledSubsetEVA`'s discovered rows.

    The subset state space is open-ended (rows are interned on first
    use), so everything is lazy: step rows, powers-of-two and segment
    rows are computed per reached subset id and memoized.  No class-kind
    shortcuts and no numpy — subset counting is the determinize-on-the-
    fly fallback, not the hot path.
    """

    def __init__(self, subset_eva: CompiledSubsetEVA) -> None:
        self.subset_eva = subset_eva
        self._iv_rows: dict[int, tuple] = {}
        self._power_rows: dict[tuple[int, int], dict[int, tuple]] = {}
        self._segment_rows: dict[tuple[bytes, int], tuple] = {}

    def iv_row(self, subset_id: int):
        """The capturing phase ``(I + V)`` row of one subset state."""
        row = self._iv_rows.get(subset_id)
        if row is None:
            merged = {subset_id: 1}
            for _set_id, target in self.subset_eva.variable_row(subset_id):
                merged[target] = merged.get(target, 0) + 1
            row = tuple(sorted(merged.items()))
            self._iv_rows[subset_id] = row
        return row

    def power_row(self, cls: int, bit: int, subset_id: int):
        """The row of ``M_cls^(2**bit)`` at *subset_id*, built lazily."""
        rows = self._power_rows.setdefault((cls, bit), {})
        row = rows.get(subset_id)
        if row is None:
            if bit == 0:
                letter_successor = self.subset_eva.letter_successor
                merged: dict[int, int] = {}
                for source, coeff in self.iv_row(subset_id):
                    target = letter_successor(source, cls)
                    if target < 0:
                        continue
                    merged[target] = merged.get(target, 0) + coeff
                row = tuple(sorted(merged.items()))
            else:
                merged = {}
                for mid, coeff in self.power_row(cls, bit - 1, subset_id):
                    for target, amount in self.power_row(cls, bit - 1, mid):
                        merged[target] = (
                            merged.get(target, 0) + coeff * amount
                        )
                row = tuple(sorted(merged.items()))
            rows[subset_id] = row
        return row

    def vec_run(self, vector, cls: int, k: int):
        """Apply ``M_cls^k`` by binary exponentiation over lazy rows."""
        if k <= 0 or not vector:
            return dict(vector)
        out = dict(vector)
        bit = 0
        while k and out:
            if k & 1:
                merged: dict[int, int] = {}
                for subset_id, amount in out.items():
                    for target, coeff in self.power_row(cls, bit, subset_id):
                        merged[target] = (
                            merged.get(target, 0) + amount * coeff
                        )
                out = merged
            k >>= 1
            bit += 1
        return out

    def segment_row(self, segment: bytes, subset_id: int):
        """Content-keyed transfer row, as in the dense kernel."""
        key = (segment, subset_id)
        row = self._segment_rows.get(key)
        if row is None:
            vector = {subset_id: 1}
            for cls, length in runs_of_buffer(segment):
                if not vector:
                    break
                vector = self.vec_run(vector, cls, length)
            row = tuple(sorted(vector.items()))
            if len(self._segment_rows) >= SEGMENT_MEMO_CAP:
                self._segment_rows.pop(next(iter(self._segment_rows)))
            self._segment_rows[key] = row
        return row


def subset_runlength_kernel(
    subset_eva: CompiledSubsetEVA,
) -> SubsetRunLengthKernel:
    """The (cached) run-length kernel of a subset automaton."""
    kernel = getattr(subset_eva, "_runlength", None)
    if kernel is None:
        kernel = SubsetRunLengthKernel(subset_eva)
        subset_eva._runlength = kernel
    return kernel


def count_subset_runlength(
    subset_eva: CompiledSubsetEVA,
    document: object,
) -> int:
    """:func:`~repro.runtime.subset.count_subset` as a run product."""
    encoded = subset_eva.encode(document)
    kernel = subset_runlength_kernel(subset_eva)
    vector = {subset_eva.initial: 1}
    buf = encoded.buffer
    delimiter = (
        encoded.segment_delimiter() if isinstance(buf, bytes) else None
    )
    if delimiter is not None:
        segments = buf.split(bytes((delimiter,)))
        last = len(segments) - 1
        for index, segment in enumerate(segments):
            if not vector:
                break
            if segment:
                out: dict[int, int] = {}
                for subset_id, amount in vector.items():
                    for target, coeff in kernel.segment_row(
                        segment, subset_id
                    ):
                        out[target] = out.get(target, 0) + amount * coeff
                vector = out
            if index != last and vector:
                vector = kernel.vec_run(vector, delimiter, 1)
    else:
        for cls, length in encoded.runs():
            if not vector:
                break
            vector = kernel.vec_run(vector, cls, length)

    is_final = subset_eva.subset_is_final
    total = 0
    for subset_id, amount in vector.items():
        for target, coeff in kernel.iv_row(subset_id):
            if is_final[target]:
                total += amount * coeff
    return total


# ---------------------------------------------------------------------- #
# Kernel dispatch (the plan's kernel axis lands here)
# ---------------------------------------------------------------------- #


def prefers_runlength(encoded) -> bool:
    """The ``kernel="auto"`` heuristic on one encoded document.

    Run-length kernels win when runs are long enough to amortize the
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
    compiled: CompiledEVA,
    document: object,
    *,
    kernel: str = "auto",
    scratch: EvaluationScratch | None = None,
    fast_path: bool = True,
) -> int:
    """:func:`count_compiled` or :func:`count_runlength` by plan axis."""
    if kernel == "scalar":
        return count_compiled(
            compiled, document, scratch=scratch, fast_path=fast_path
        )
    resolved = resolve_kernel(kernel, compiled.encode(document))
    if resolved == "runlength":
        return count_runlength(compiled, document)
    return count_compiled(
        compiled, document, scratch=scratch, fast_path=fast_path
    )


def evaluate_arena_with_kernel(
    compiled: CompiledEVA,
    document: object,
    *,
    kernel: str = "auto",
    scratch: EvaluationScratch | None = None,
    fast_path: bool = True,
) -> CompiledResultDag:
    """The arena engine under the plan's kernel axis (bit-identical)."""
    if kernel == "scalar":
        return evaluate_compiled_arena(
            compiled, document, scratch=scratch, fast_path=fast_path
        )
    resolved = resolve_kernel(kernel, compiled.encode(document))
    if resolved == "runlength":
        return evaluate_runlength_arena(
            compiled, document, scratch=scratch, fast_path=fast_path
        )
    return evaluate_compiled_arena(
        compiled, document, scratch=scratch, fast_path=fast_path
    )


def count_subset_with_kernel(
    subset_eva: CompiledSubsetEVA,
    document: object,
    *,
    kernel: str = "auto",
    fast_path: bool = True,
) -> int:
    """:func:`count_subset` under the plan's kernel axis."""
    if kernel == "scalar":
        return count_subset(subset_eva, document, fast_path=fast_path)
    resolved = resolve_kernel(kernel, subset_eva.encode(document))
    if resolved == "runlength":
        return count_subset_runlength(subset_eva, document)
    return count_subset(subset_eva, document, fast_path=fast_path)
