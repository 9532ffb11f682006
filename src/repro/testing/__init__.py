"""``repro.testing`` — deterministic fault injection for robustness tests.

Production code never imports this package; tests and chaos-style
experiment runs use it to prove the fault-tolerant characterization
runtime (:mod:`repro.core.runner`) contains every failure mode.
"""

from .faults import (
    FaultPlan,
    InjectedFault,
    hanging_task,
)

__all__ = [
    "FaultPlan",
    "InjectedFault",
    "hanging_task",
]
