"""Exception hierarchy for the repro package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """A configuration value is missing, inconsistent, or out of range."""


class TopologyError(ReproError):
    """A topology cannot be constructed (port budget, cube count, ...)."""


class RoutingError(ReproError):
    """No route exists for a packet, or a route table is inconsistent."""


class SimulationError(ReproError):
    """The simulation reached an invalid state (deadlock, lost packet)."""


class InvariantViolation(SimulationError):
    """A conservation/ordering invariant failed during an audited run.

    Raised by :class:`repro.check.InvariantAuditor`.  Carries the
    structured context needed to reproduce the failing run: each entry in
    ``violations`` is a ``(invariant, component, detail)`` triple, and
    ``context`` holds the audit point, simulated time, config label,
    workload, seed, and request count.
    """

    def __init__(self, violations, context):
        self.violations = list(violations)
        self.context = dict(context)
        names = sorted({invariant for invariant, _, _ in self.violations})
        lines = [
            f"{len(self.violations)} invariant violation(s) "
            f"[{', '.join(names)}] at {self.context.get('point', '?')} "
            f"(t={self.context.get('time_ps', '?')} ps)"
        ]
        for invariant, component, detail in self.violations:
            lines.append(f"  - {invariant} @ {component}: {detail}")
        lines.append(
            "  context: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.context.items()))
        )
        super().__init__("\n".join(lines))

    def invariants(self):
        """Sorted unique names of the failed invariants."""
        return sorted({invariant for invariant, _, _ in self.violations})


class WorkloadError(ReproError):
    """A workload specification or trace is invalid."""


class RunnerError(ReproError):
    """A batch job failed to execute (worker crash, timeout, bad job)."""
