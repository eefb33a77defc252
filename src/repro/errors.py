"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at the API boundary.  Sub-types map to the
major subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An experiment or platform was configured with invalid parameters."""


class VoltageError(ConfigurationError):
    """A requested voltage is outside the regulator's reachable range."""


class FrequencyError(ConfigurationError):
    """A requested frequency is outside the PLL's reachable range."""


class GeometryError(ConfigurationError):
    """An SRAM array or cache was declared with an impossible geometry."""


class TechError(ConfigurationError):
    """The technology-node registry or model was misused (unknown node
    name, duplicate registration, physically inconsistent parameters,
    or an evaluation outside the model's valid voltage range)."""


class ProtectionError(ReproError):
    """An ECC/parity codec was used with mismatched word sizes."""


class CodecError(ProtectionError):
    """The codec registry or plugin API was misused (unknown codec name,
    duplicate registration, malformed plugin)."""


class InjectionError(ReproError):
    """A fault-injection request referenced a nonexistent bit or array."""


class BeamError(ReproError):
    """The beam facility was driven outside its operational envelope."""


class EngineError(ReproError):
    """The execution engine was configured or driven incorrectly."""


class PoolUnavailable(EngineError):
    """The worker-pool *infrastructure* failed (spawn, transport, IPC).

    Deliberately distinct from an exception raised by a unit function:
    executors react to pool trouble (fall back to serial, degrade),
    while unit failures must surface to the caller unchanged.
    """


class SessionError(ReproError):
    """A test session was used in an invalid order (e.g. results before run)."""


class WorkloadError(ReproError):
    """A workload failed verification in fault-free conditions."""


class AnalysisError(ReproError):
    """Raw data handed to the analysis layer was inconsistent."""


class TelemetryError(ReproError):
    """A telemetry instrument, manifest, or merge was used incorrectly."""


class ReproIOError(ReproError):
    """An on-disk artifact is missing, torn, or corrupt beyond salvage."""


class SupervisionError(ReproError):
    """The resilient execution layer was configured or driven incorrectly."""


class ChaosError(ReproError):
    """A chaos specification is malformed (harness self-test layer)."""


class CampaignInterrupted(ReproError):
    """A campaign run was interrupted (SIGTERM or injected crash).

    The units committed so far are intact; ``repro-campaign run
    --resume`` picks the campaign up from the last committed work unit.
    """


class SchedulerError(ReproError):
    """The campaign broker/service layer was configured or driven
    incorrectly (bad spec, unknown submission, stale lease misuse)."""


class SchedulerBusy(SchedulerError):
    """The broker's bounded work queue cannot accept a submission.

    Backpressure, not failure: the campaign was *rejected before
    queueing*, nothing was enqueued, and resubmitting later (or against
    a broker with spare capacity) is safe.  The CLI maps this to exit
    code 5.
    """


class LeaseError(SchedulerError):
    """A lease operation referenced an unknown, expired-and-reassigned,
    or already-settled work unit lease."""


class StaleFencingToken(SchedulerError):
    """A store write carried a fencing epoch that has been superseded.

    Raised when a broker whose lease expired (and was taken over by a
    broker holding a higher epoch) -- or whose identity was re-registered
    by a newer incarnation -- tries to commit or publish a lease.  The
    write was rejected *before* touching shared state: the stale
    broker's payload is never adopted, closing the double-commit window
    that ``os.link`` exclusivity alone cannot close on non-POSIX-atomic
    network filesystems.
    """


class StoreUnavailable(SchedulerError):
    """The shared store's transient-I/O retry budget is exhausted.

    EIO/ESTALE/EAGAIN-class errors are retried with a bounded,
    deterministic backoff; when the filesystem keeps failing past the
    budget, the operation degrades to this typed failure (backpressure,
    like :class:`SchedulerBusy`) instead of wedging or silently
    dropping state.
    """


class ValidationError(ReproError):
    """A validate-subsystem misuse: bad gate parameters, malformed
    golden files, or an unknown oracle/suite/pairing name.

    Gate *failures* are not errors -- they are reported as
    :class:`~repro.validate.GateResult` with ``ok=False``; this error
    covers the cases where the validation itself cannot run.
    """
