"""The single parameterized Algorithm-1 kernel behind every engine.

The paper's Algorithm 1 is one capturing/reading alternation, but the
repository grew hand-synchronized transcriptions of it: the arena engine
and the counter (:mod:`repro.runtime.engine`), the on-the-fly subset
pair (:mod:`repro.runtime.subset`), the streaming chunk loop
(:mod:`repro.runtime.streaming`).  Every invariant — canonical
sorted-by-id live order, quiescent-sprint parking, scratch ping-pong,
the splice single-assignment check — had to be re-applied copy by copy.

This module replaces the copies with a **kernel spec**: a small frozen
configuration (:class:`KernelSpec`) whose axes name exactly the ways the
loops ever differed, and a source-level composer (:func:`kernel_source`)
that assembles the one canonical loop from shared phase fragments and
compiles it (:func:`build_kernel`).  The engines are now thin wrappers
over the generated callables; the phase machinery lives here, once:

* the **capturing step** (:data:`_CAPTURE_ARENA`, :data:`_CAPTURE_COUNT`
  and the subset flavour) — snapshot before additions, exactly the
  paper's lazycopy;
* the **reading step** (:data:`_READ_ARENA` and friends) — one letter
  transition per live run, the foreign class killing runs uniformly,
  splices guarded by the single-assignment discipline;
* **sort-to-canonical-order** after any phase that can disorder the live
  list — the invariant that keeps a chunk-fed (resumable) arena
  bit-identical to the whole-document one, wherever the chunk boundaries
  fall;
* the **quiescent-sprint park/resume** (:func:`sprint`,
  :func:`subset_sprint`, and the per-capture park/resume payloads: a
  ``(start, end)`` pair, a count, or nothing at all);
* the **scratch ping-pong** (current/pending slot swaps, with the
  borrowed arrays handed back through the generated returns).

Composition is *source-level* — each spec's loop is rendered to Python
text and compiled once, at import time of the engine module that uses
it — so the generated kernels carry **zero per-position dispatch
overhead**: the bytecode is the same as the hand-written loops they
replace, which is what keeps the BENCH floors (sprint >=2x,
supervised >=0.9) intact.  Because skipped work and write
order are reproduced statement for statement, every arena a generated
kernel builds is **bit-identical** to its pre-refactor engine (the
differential harness pins this arena-for-arena).

The planner-facing ``kernel`` choice (:data:`KERNELS`: ``auto``,
``scalar``, ``runlength``) is *not* a spec axis.  It selects between
these scalar loops and the run-length algebra of
:mod:`repro.runtime.runlength`, and only counting has a run-length
path; every arena is built by a loop from this module.

Spec axes
=========

``capture``
    What a live run carries and what the capturing phase writes:
    ``"arena"`` (flat :class:`~repro.runtime.dag.CompiledResultDag`
    arrays, ``(start, end)`` cell pairs) or ``"count"`` (Algorithm 3
    partial-run counts).

``tables``
    Determinization: ``"dense"`` precompiled
    :class:`~repro.runtime.compiled.CompiledEVA` tables, or ``"subset"``
    on-the-fly rows of a
    :class:`~repro.runtime.subset.CompiledSubsetEVA` (dict-keyed slots
    in discovery order — the state space grows while evaluating, so
    there is no fixed-size scratch and no re-sorting of the live set).

``chunking``
    ``"whole"`` kernels seed the compiled initial state (cell 0 holding
    the ``[⊥]`` list) and run a buffer init -> loop -> final capture in
    one call;
    ``"resumable"`` kernels take the loop state (active set, slot pairs,
    ``quiet``, the arena) as arguments and return it, so the streaming
    evaluator can park a document mid-sprint and resume next chunk.

The supported combinations are enumerated in :data:`SUPPORTED_SPECS`;
:func:`build_kernel` rejects anything else.  ``tools/check_single_kernel.py``
enforces in CI that no raw Algorithm-1 position loop exists outside this
module.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import EvaluationError, NotDeterministicError
from repro.runtime.compiled import NO_TARGET, CompiledEVA
from repro.runtime.dag import NIL

__all__ = [
    "CAPTURE_MODES",
    "CHUNK_PROTOCOLS",
    "KERNELS",
    "SUPPORTED_SPECS",
    "TABLE_MODES",
    "KernelSpec",
    "build_final_capture",
    "build_kernel",
    "kernel_source",
    "sprint",
    "subset_sprint",
]

#: The planner-facing kernel choice (``plan.KERNEL_CHOICES`` imports it,
#: ``runlength.KERNELS`` re-exports it): ``"auto"`` resolves per document
#: from its measured run statistics.  Not a :class:`KernelSpec` axis — it
#: picks between the scalar count loops built here and the
#: run-length algebra; arenas are always built by the scalar loops.
KERNELS: tuple[str, ...] = ("auto", "scalar", "runlength")

CAPTURE_MODES = ("arena", "count")
TABLE_MODES = ("dense", "subset")
CHUNK_PROTOCOLS = ("whole", "resumable")


@dataclass(frozen=True)
class KernelSpec:
    """One point in the engine configuration space (see the module doc).

    Defaults describe the plain arena engine; every other engine names
    its variation explicitly.  Specs are hashable, so each one maps to
    exactly one compiled kernel.
    """

    capture: str = "arena"
    tables: str = "dense"
    chunking: str = "whole"

    def validate(self) -> None:
        for value, options, axis in (
            (self.capture, CAPTURE_MODES, "capture"),
            (self.tables, TABLE_MODES, "tables"),
            (self.chunking, CHUNK_PROTOCOLS, "chunking"),
        ):
            if value not in options:
                raise EvaluationError(
                    f"unknown kernel-spec {axis} {value!r}; "
                    f"expected one of {options}"
                )
        if self not in SUPPORTED_SPECS:
            raise EvaluationError(
                f"unsupported kernel-spec combination {self!r}; supported "
                f"specs are {SUPPORTED_SPECS}"
            )


#: Every loop the repository ships, one spec each.
SUPPORTED_SPECS: tuple[KernelSpec, ...] = (
    KernelSpec(capture="arena"),
    KernelSpec(capture="count"),
    KernelSpec(capture="arena", chunking="resumable"),
    KernelSpec(capture="arena", tables="subset"),
    KernelSpec(capture="count", tables="subset"),
)


# ---------------------------------------------------------------------- #
# The sprint helpers (the C-speed quiescent chase, dense and subset)
# ---------------------------------------------------------------------- #


def sprint(
    compiled: CompiledEVA, buf, pos: int, n: int, state: int, use_patterns: bool
) -> tuple[int, int]:
    """Advance a lone silent run until it stops being boring.

    Returns ``(state, pos)``.  ``state == NO_TARGET`` means the run died at
    ``pos``; otherwise either ``pos == n`` (document exhausted, *state*
    still live) or ``state`` is non-silent (a capturing phase is due at
    ``pos``).  Precondition: *state* is silent and ``pos < n``.

    With a ``bytes`` buffer, stretches where *state* self-loops are skipped
    by :meth:`CompiledEVA.sprint_pattern` — a C-level scan for the next
    class id that leaves the state — so the Python-level cost is one
    iteration per state *change*, not per character.
    """
    class_table = compiled.class_table
    silent = compiled.silent
    if use_patterns:
        while True:
            match = compiled.sprint_pattern(state).search(buf, pos)
            if match is None:
                return state, n
            pos = match.start()
            target = class_table[state][buf[pos]]
            pos += 1
            if target < 0:
                return NO_TARGET, pos
            state = target
            if pos >= n or not silent[state]:
                return state, pos
    row = class_table[state]
    while pos < n:
        target = row[buf[pos]]
        pos += 1
        if target < 0:
            return NO_TARGET, pos
        if target != state:
            if not silent[target]:
                return target, pos
            state = target
            row = class_table[state]
    return state, pos


def subset_sprint(
    subset_eva, buf, pos: int, n: int, subset_id: int, use_patterns: bool
) -> tuple[int, int]:
    """Advance a lone silent subset-run; mirrors the dense sprint.

    Returns ``(subset_id, pos)``; ``subset_id == NO_TARGET`` means the run
    died at ``pos``, otherwise either the document is exhausted or the
    subset is non-silent and a capturing phase is due.
    """
    silent = subset_eva.subset_silent
    letter_successor = subset_eva.letter_successor
    if use_patterns:
        while True:
            match = subset_eva.sprint_pattern(subset_id).search(buf, pos)
            if match is None:
                return subset_id, n
            pos = match.start()
            target = letter_successor(subset_id, buf[pos])
            pos += 1
            if target < 0:
                return NO_TARGET, pos
            subset_id = target
            if pos >= n or not silent[subset_id]:
                return subset_id, pos
    while pos < n:
        target = letter_successor(subset_id, buf[pos])
        pos += 1
        if target < 0:
            return NO_TARGET, pos
        if target != subset_id:
            if not silent[target]:
                return target, pos
            subset_id = target
    return subset_id, pos


# ---------------------------------------------------------------------- #
# Phase fragments — each piece of Algorithm-1 machinery, written ONCE.
# Fragments are source text at logical indent 0; the composer indents
# them into the scaffold.  Editing a fragment edits every engine.
# ---------------------------------------------------------------------- #

#: Capturing phase, arena flavour: the (start, end) snapshot *is* the
#: paper's lazycopy (pairs are values), taken before any additions so a
#: transition's source list is its pre-phase value.
_CAPTURE_ARENA = """\
snapshot = [
    (state, cur_start[state], cur_end[state])
    for state in active
    if variable_table[state]
]
for state, old_start, old_end in snapshot:
    for set_id, target in variable_table[state]:
        node = len(node_markers)
        node_markers.append(set_id)
        node_positions.append(position)
        node_starts.append(old_start)
        node_ends.append(old_end)
        cell = len(cell_nodes)
        cell_nodes.append(node)
        target_start = cur_start[target]
        cell_nexts.append(target_start)
        if target_start == NIL:
            cur_end[target] = cell
            active.append(target)
        cur_start[target] = cell
"""

#: Capturing phase, Algorithm-3 flavour: add each state's count to its
#: variable targets (snapshot first — fresh targets don't fire here).
_CAPTURE_COUNT = """\
snapshot = [
    (state, counts[state]) for state in active if variable_table[state]
]
for state, amount in snapshot:
    for _set_id, target in variable_table[state]:
        if counts[target] == 0:
            active.append(target)
        counts[target] += amount
"""

#: Capturing phase over the lazily determinized subset rows: per-subset
#: (start, end) pairs live in the `lists` dict (insertion order — the
#: subset state space grows, so there is no canonical id order to keep).
_CAPTURE_SUBSET_ARENA = """\
for subset_id, (old_start, old_end) in list(lists.items()):
    for set_id, target in variable_row(subset_id):
        node = len(node_markers)
        node_markers.append(set_id)
        node_positions.append(position)
        node_starts.append(old_start)
        node_ends.append(old_end)
        cell = len(cell_nodes)
        cell_nodes.append(node)
        current = lists.get(target)
        cell_nexts.append(NIL if current is None else current[0])
        lists[target] = (cell, cell if current is None else current[1])
"""

#: Subset counting capture: dict-accumulated Algorithm 3.
_CAPTURE_SUBSET_COUNT = """\
for subset_id, amount in list(counts.items()):
    for _set_id, target in variable_row(subset_id):
        counts[target] = counts.get(target, 0) + amount
"""

#: Reading phase, arena flavour, per live state.  The ``else`` branch is
#: append(old_list): splice at the end of the target's pending list; the
#: end cell's next pointer must still be unset (the lazy-list
#: single-assignment discipline — violated only by non-determinism).
_READ_ARENA = """\
old_start = cur_start[state]
old_end = cur_end[state]
cur_start[state] = NIL
target = class_table[state][symbol]
if target < 0:
    continue
target_start = pend_start[target]
if target_start == NIL:
    pend_start[target] = old_start
    pend_end[target] = old_end
    next_active.append(target)
    if quiet and not silent[target]:
        quiet = False
else:
    end_cell = pend_end[target]
    if cell_nexts[end_cell] != NIL:
        raise NotDeterministicError(
            "arena append would overwrite a next pointer; the "
            "compiled automaton is not deterministic"
        )
    cell_nexts[end_cell] = old_start
    pend_end[target] = old_end
"""

#: Reading phase, counting flavour.
_READ_COUNT = """\
amount = counts[state]
counts[state] = 0
if not amount:
    continue
target = class_table[state][symbol]
if target < 0:
    continue
if pending[target] == 0:
    next_active.append(target)
    if quiet and not silent[target]:
        quiet = False
pending[target] += amount
"""

#: The quiescent sprint, dense flavour: a lone silent run parks its
#: payload ({park}/{resume} per capture mode) and chases letter
#: transitions at C speed; several silent runs skip to the next class on
#: which at least one stops self-looping.
_SPRINT_DENSE = """\
if quiet and fast_path:
    if len(active) == 1:
        state = active[0]
{park}
        state, pos = sprint(compiled, buf, pos, n, state, use_patterns)
        if state < 0:
            active = []
            break
{resume}
        active[0] = state
        quiet = silent[state]
        if pos >= n:
            break
    elif use_patterns:
        match = compiled.sprint_pattern_multi(
            tuple(sorted(active))
        ).search(buf, pos)
        if match is None:
            pos = n
            break
        pos = match.start()
"""

#: Per-capture park/resume payloads for the dense sprint (indent 2).
_PARK = {
    "arena": (
        "start = cur_start[state]\n"
        "end = cur_end[state]\n"
        "cur_start[state] = NIL\n"
    ),
    "count": "amount = counts[state]\ncounts[state] = 0\n",
}
_RESUME = {
    "arena": "cur_start[state] = start\ncur_end[state] = end\n",
    "count": "counts[state] = amount\n",
}

#: The subset sprint: the lone pair/count rides along in a fresh
#: one-entry dict; the multi-run skip works off the dict's keys.
_SPRINT_SUBSET = """\
if quiet and fast_path:
    if len({slots}) == 1:
        ((subset_id, {payload}),) = {slots}.items()
        subset_id, pos = subset_sprint(
            subset_eva, buf, pos, n, subset_id, use_patterns
        )
        if subset_id < 0:
{dead}
        {slots} = {{subset_id: {payload}}}
        quiet = silent[subset_id]
        if pos >= n:
            break
    elif use_patterns:
        match = subset_eva.sprint_pattern_multi(
            tuple(sorted({slots}))
        ).search(buf, pos)
        if match is None:
            pos = n
            break
        pos = match.start()
"""

#: Capturing-phase call with canonical-order restoration: fresh targets
#: appended by the capture are sorted back into the live list — the
#: invariant that keeps chunk-fed arenas bit-identical to whole ones.
_CAPTURE_CALL = """\
if not quiet:
    alive = len(active)
    capturing({args})
    if len(active) > alive:
        active.sort()
"""

#: The scratch ping-pong per capture mode (indent 1, after the read
#: loop): swap current/pending slot arrays for the next phase.
_SWAP = {
    "arena": (
        "cur_start, pend_start = pend_start, cur_start\n"
        "cur_end, pend_end = pend_end, cur_end\n"
    ),
    "count": "counts, pending = pending, counts\n",
}

#: Arena-array allocation (cell 0 is the initial list [⊥] the kernel
#: seeds the initial state with).
_ARENA_ALLOC = """\
node_markers = []
node_positions = []
node_starts = []
node_ends = []
cell_nodes = [NIL]
cell_nexts = [NIL]
"""


def _indent(fragment: str, level: int) -> str:
    pad = "    " * level
    return "".join(
        pad + line if line.strip() else line
        for line in fragment.splitlines(keepends=True)
    )


# ---------------------------------------------------------------------- #
# Source composition
# ---------------------------------------------------------------------- #


def _dense_scalar_source(spec: KernelSpec) -> str:
    """The dense scalar loop: whole/resumable x capture."""
    capture = spec.capture
    resumable = spec.chunking == "resumable"

    # --- signature ---------------------------------------------------- #
    if resumable:
        signature = (
            "compiled, buf, n, offset, cur_start, cur_end, pend_start, "
            "pend_end, active, quiet, node_markers, node_positions, "
            "node_starts, node_ends, cell_nodes, cell_nexts, fast_path"
        )
    else:
        signature = "compiled, buf, n, scratch, fast_path"

    parts = [f"def __kernel({signature}):\n"]
    emit = parts.append

    # --- prologue: table bindings and slot arrays --------------------- #
    emit("    variable_table = compiled.variable_table\n")
    emit("    class_table = compiled.class_table\n")
    emit("    silent = compiled.silent\n")
    emit("    use_patterns = fast_path and isinstance(buf, bytes)\n")
    if not resumable:
        if capture == "arena":
            emit("    cur_start = scratch.cur_start\n")
            emit("    cur_end = scratch.cur_end\n")
            emit("    pend_start = scratch.pend_start\n")
            emit("    pend_end = scratch.pend_end\n")
            emit(_indent(_ARENA_ALLOC, 1))
            emit("    initial = compiled.initial\n")
            emit("    cur_start[initial] = 0\n")
            emit("    cur_end[initial] = 0\n")
            emit("    active = [initial]\n")
            emit("    quiet = silent[initial]\n")
        else:  # count
            emit("    counts = scratch.count_cur\n")
            emit("    pending = scratch.count_pend\n")
            emit("    initial = compiled.initial\n")
            emit("    counts[initial] = 1\n")
            emit("    active = [initial]\n")
            emit("    quiet = silent[initial]\n")

    # --- the capturing step as a closure ------------------------------ #
    if capture == "count":
        emit("\n    def capturing():\n")
        emit(_indent(_CAPTURE_COUNT, 2))
        capture_args = ""
    else:
        emit("\n    def capturing(position):\n")
        emit(_indent(_CAPTURE_ARENA, 2))
        capture_args = "offset + pos" if resumable else "pos"

    # --- the position loop -------------------------------------------- #
    emit("\n    pos = 0\n")
    emit("    while pos < n:\n")
    emit(
        _indent(
            _SPRINT_DENSE.format(
                park=_indent(_PARK[capture], 2).rstrip("\n"),
                resume=_indent(_RESUME[capture], 2).rstrip("\n"),
            ),
            2,
        )
    )
    emit(_indent(_CAPTURE_CALL.format(args=capture_args), 2))
    emit("\n        symbol = buf[pos]\n")
    emit("        pos += 1\n")
    emit("        next_active = []\n")
    emit("        quiet = True\n")
    emit("        for state in active:\n")
    emit(_indent(_READ_ARENA if capture == "arena" else _READ_COUNT, 3))
    emit(_indent(_SWAP[capture], 2))
    emit("        if len(next_active) > 1:\n")
    emit("            next_active.sort()\n")
    emit("        active = next_active\n")
    emit("        if not active:\n")
    emit("            break\n")

    # --- final capturing phase and returns ----------------------------- #
    if resumable:
        emit("\n    return (cur_start, cur_end, pend_start, pend_end, active, quiet)\n")
    else:
        emit("\n    if active and not quiet:\n")
        emit("        alive = len(active)\n")
        emit(f"        capturing({capture_args})\n")
        emit("        if len(active) > alive:\n")
        emit("            active.sort()\n")
        if capture == "arena":
            emit(
                "    return (active, cur_start, cur_end, pend_start, "
                "pend_end, node_markers, node_positions, node_starts, "
                "node_ends, cell_nodes, cell_nexts)\n"
            )
        else:
            emit("    return (active, counts, pending)\n")
    return "".join(parts)


def _subset_source(spec: KernelSpec) -> str:
    """The on-the-fly subset loop: dict-keyed slots in discovery order.

    The subset automaton's state space grows while evaluating, so there
    is no fixed-size scratch and no sorted-active invariant — slot dicts
    iterate in insertion order, exactly as the state ids are discovered.
    """
    arena = spec.capture == "arena"
    slots = "lists" if arena else "counts"
    parts = ["def __kernel(subset_eva, buf, n, fast_path):\n"]
    emit = parts.append
    emit("    use_patterns = fast_path and isinstance(buf, bytes)\n")
    if arena:
        emit(_indent(_ARENA_ALLOC, 1))
    emit("    variable_row = subset_eva.variable_row\n")
    emit("    letter_successor = subset_eva.letter_successor\n")
    emit("    silent = subset_eva.subset_silent\n")
    if arena:
        emit("    lists = {subset_eva.initial: (0, 0)}\n")
        emit("    quiet = silent[subset_eva.initial]\n")
        emit("\n    def capturing(position):\n")
        emit(_indent(_CAPTURE_SUBSET_ARENA, 2))
    else:
        emit("    counts = {subset_eva.initial: 1}\n")
        emit("    quiet = silent[subset_eva.initial]\n")
        emit("\n    def capturing():\n")
        emit(_indent(_CAPTURE_SUBSET_COUNT, 2))
    emit("\n    pos = 0\n")
    emit("    while pos < n:\n")
    if arena:
        dead = _indent("lists = {}\nbreak\n", 3).rstrip("\n")
        payload = "pair"
    else:
        dead = _indent("return {}\n", 3).rstrip("\n")
        payload = "amount"
    emit(
        _indent(
            _SPRINT_SUBSET.format(slots=slots, payload=payload, dead=dead), 2
        )
    )
    emit("        if not quiet:\n")
    emit(f"            capturing({'pos' if arena else ''})\n")
    emit("\n        symbol = buf[pos]\n")
    emit("        pos += 1\n")
    if arena:
        emit("        old_lists = lists\n")
        emit("        lists = {}\n")
        emit("        quiet = True\n")
        emit("        for subset_id, (old_start, old_end) in old_lists.items():\n")
        emit("            target = letter_successor(subset_id, symbol)\n")
        emit("            if target < 0:\n")
        emit("                continue\n")
        emit("            current = lists.get(target)\n")
        emit("            if current is None:\n")
        emit("                lists[target] = (old_start, old_end)\n")
        emit("                if quiet and not silent[target]:\n")
        emit("                    quiet = False\n")
        emit("            else:\n")
        emit("                end_cell = current[1]\n")
        emit("                if cell_nexts[end_cell] != NIL:\n")
        emit("                    raise NotDeterministicError(\n")
        emit(
            '                        "arena append would overwrite a next '
            'pointer; the "\n'
        )
        emit(
            '                        "subset construction produced a '
            'non-deterministic row"\n'
        )
        emit("                    )\n")
        emit("                cell_nexts[end_cell] = old_start\n")
        emit("                lists[target] = (current[0], old_end)\n")
        emit("        if not lists:\n")
        emit("            break\n")
        emit("\n    if lists and not quiet:\n")
        emit("        capturing(pos)\n")
        emit(
            "    return (lists, node_markers, node_positions, node_starts, "
            "node_ends, cell_nodes, cell_nexts)\n"
        )
    else:
        emit("        previous = counts\n")
        emit("        counts = {}\n")
        emit("        quiet = True\n")
        emit("        for subset_id, amount in previous.items():\n")
        emit("            target = letter_successor(subset_id, symbol)\n")
        emit("            if target < 0:\n")
        emit("                continue\n")
        emit("            if target not in counts:\n")
        emit("                counts[target] = amount\n")
        emit("                if quiet and not silent[target]:\n")
        emit("                    quiet = False\n")
        emit("            else:\n")
        emit("                counts[target] += amount\n")
        emit("        if not counts:\n")
        emit("            return {}\n")
        emit("\n    if counts and not quiet:\n")
        emit("        capturing()\n")
        emit("    return counts\n")
    return "".join(parts)


def kernel_source(spec: KernelSpec) -> str:
    """Render the Python source of the loop *spec* describes."""
    spec.validate()
    if spec.tables == "subset":
        return _subset_source(spec)
    return _dense_scalar_source(spec)


_NAMESPACE = {
    "NIL": NIL,
    "NO_TARGET": NO_TARGET,
    "NotDeterministicError": NotDeterministicError,
    "sprint": sprint,
    "subset_sprint": subset_sprint,
}

_KERNEL_CACHE: dict[KernelSpec, object] = {}


def _compile(source: str, name: str):
    namespace = dict(_NAMESPACE)
    exec(compile(source, f"<{name}>", "exec"), namespace)
    fn = namespace["__kernel"]
    fn.__name__ = name
    fn.__qualname__ = name
    fn.__kernel_source__ = source
    return fn


def build_kernel(spec: KernelSpec):
    """The compiled loop for *spec* (cached per spec).

    The returned callable's signature depends on the spec — engines bind
    it at import time and wrap it behind their stable public API.  Its
    generated source is attached as ``__kernel_source__``.
    """
    spec.validate()
    fn = _KERNEL_CACHE.get(spec)
    if fn is None:
        name = f"kernel_{spec.capture}_{spec.tables}_{spec.chunking}"
        fn = _compile(kernel_source(spec), name)
        _KERNEL_CACHE[spec] = fn
    return fn


_FINAL_CAPTURE_SOURCE = (
    "def __kernel(compiled, cur_start, cur_end, active, quiet, "
    "node_markers, node_positions, node_starts, node_ends, "
    "cell_nodes, cell_nexts, position):\n"
    "    variable_table = compiled.variable_table\n"
    "    if active and not quiet:\n"
    "        alive = len(active)\n" + _indent(_CAPTURE_ARENA, 2) + ""
    "        if len(active) > alive:\n"
    "            active.sort()\n"
)

_FINAL_CAPTURE = None


def build_final_capture():
    """The stand-alone arena final-capturing phase (resumable kernels).

    A resumable kernel carries its live state between chunks and never
    runs the final phase itself; the stream driver calls this at
    ``finish()``.  Composed from the same :data:`_CAPTURE_ARENA`
    fragment as every arena kernel, so the phase exists exactly once.
    Mutates ``active`` and the arrays in place.
    """
    global _FINAL_CAPTURE
    if _FINAL_CAPTURE is None:
        _FINAL_CAPTURE = _compile(_FINAL_CAPTURE_SOURCE, "kernel_final_capture")
    return _FINAL_CAPTURE
