"""The process-local fault-injection hook, and nothing else.

:class:`~repro.runtime.resilience.FaultPlan` lives with the rest of the
fault-tolerance layer, but the state its call sites read lives here, in a
module that imports nothing at run time: the ``"encode"`` site sits in
:mod:`repro.runtime.encoding`, on every request's path, and reading the
hook must not load the process-pool machinery.  Call sites guard on
``faults._ACTIVE_PLAN is not None`` (one module-attribute load and an
identity test per document), so the disabled hook costs no call.
:mod:`repro.runtime.resilience` re-exports the three functions.
"""

TYPE_CHECKING = False
if TYPE_CHECKING:
    from repro.runtime.resilience import FaultPlan

__all__ = ["clear_fault_plan", "install_fault_plan", "maybe_fault"]

#: The process-local active plan.  ``None`` (the overwhelmingly common
#: case) short-circuits every hook to one attribute load + identity test.
_ACTIVE_PLAN: "FaultPlan | None" = None


def install_fault_plan(plan: "FaultPlan | None") -> None:
    """Activate *plan* in this process (workers do this in their initializer)."""
    global _ACTIVE_PLAN
    _ACTIVE_PLAN = plan


def clear_fault_plan() -> None:
    """Deactivate fault injection in this process."""
    global _ACTIVE_PLAN
    _ACTIVE_PLAN = None


def maybe_fault(site: str) -> None:
    """Fire the active plan at *site*, if any.

    Hot call sites should guard with ``if faults._ACTIVE_PLAN is not
    None`` first so the disabled case costs no function call at all.
    """
    plan = _ACTIVE_PLAN
    if plan is not None:
        plan.fire(site)
