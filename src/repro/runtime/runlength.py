"""The ``kernel=`` names the public API still accepts.

Counting has one loop, :func:`repro.runtime.kernel.count_loop`, which
applies ``O(log k)`` powers to a run of ``k`` repeated classes inside
the loop, per run.  So no kernel is chosen per document, and
``"auto"``, ``"scalar"`` and ``"runlength"`` all run that loop.
"""

from __future__ import annotations

__all__ = ["resolve_kernel"]


def resolve_kernel(kernel: str, encoded: object = None) -> str:
    """Check a ``kernel=`` name and return the loop it runs: ``"scalar"``.

    *encoded* (a document) is accepted and ignored.  Unknown names raise
    :class:`ValueError`.
    """
    if kernel not in ("auto", "scalar", "runlength"):
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of "
            "('auto', 'scalar', 'runlength')"
        )
    return "scalar"
