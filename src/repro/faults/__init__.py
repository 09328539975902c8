"""Fault injection and fault-model vocabulary.

The subsystem that lets the cluster prototype be tested *against* the
failures it exists to repair: deterministic, seedable fault schedules
(crashes, stragglers, stalls, lost/late bandwidth reports, and the
silent-corruption family — bit rot, torn writes, wire corruption) armed
into the simulation event queue, plus the status vocabulary for repair
outcomes under faults.  See ``docs/FAULTS.md`` for the fault model and
the degradation ladder, and ``docs/INTEGRITY.md`` for how silent
corruption is detected and repaired.
"""

from .events import (
    FAULT_TYPES,
    BitRot,
    Crash,
    Fault,
    LateReport,
    ReportLoss,
    Stall,
    Straggler,
    TornWrite,
    WireCorruption,
)
from .injector import FaultInjector, InjectionLog

#: Repair terminated with the originally planned algorithm; chunk verified.
COMPLETED = "completed"
#: Repair terminated correct but on a fallback path (star repair, or with
#: fewer/replacement helpers than first planned).
DEGRADED = "degraded"
#: A second chunk of the stripe was lost mid-repair; the same repair
#: job rebuilt it alongside the first.
ESCALATED = "escalated"
#: Explicit failure verdict: the chunk could not be rebuilt (e.g. fewer
#: than k live helpers), or corruption was detected that verification
#: could not localize and heal.  Corruption may exist in the system —
#: the contract is that it is detected and surfaced, never silently
#: reported as success (see ``docs/INTEGRITY.md``).
FAILED = "failed"

#: Every terminal repair status, in severity order.
REPAIR_STATUSES = (COMPLETED, DEGRADED, ESCALATED, FAILED)

__all__ = [
    "FAULT_TYPES",
    "BitRot",
    "Crash",
    "Fault",
    "LateReport",
    "ReportLoss",
    "Stall",
    "Straggler",
    "TornWrite",
    "WireCorruption",
    "FaultInjector",
    "InjectionLog",
    "COMPLETED",
    "DEGRADED",
    "ESCALATED",
    "FAILED",
    "REPAIR_STATUSES",
]
