"""Tracing from outside the program: wrap its public functions.

``install`` replaces a fixed list of the program's public functions and
methods with timing wrappers.  It patches every module attribute and
class attribute through which a caller looks the name up (a function
imported by name into another module is patched there too), so the
program's own files stay untouched.

Two kinds of record are kept:

* every wrapped call adds to an aggregate ``[calls, inclusive s, self
  s]`` row for its layer stem.  Self time is inclusive time minus the
  time of wrapped calls nested inside it, tracked on a per-thread stack.
  Rows are kept per thread and summed on dump, so the hot path (217k
  ``operating_point`` calls in one campaign) takes no lock;
* coarse boundaries (job, session, unit, commit, assembly, submit) also
  record a span: kind, name, start, end, the enclosing span that caused
  it, and the job it belongs to.  Spans of one job share its id.

Everything stays in memory until :meth:`Tracer.dump`.  Forked children
(the service's pool workers) switch tracing off, so their compute shows
up only as parent-side engine time: ``engine.pool`` for dispatch
(``WorkerPool.map_chunks`` dispatches and waits; the supervised
executor dispatches with ``WorkerPool.submit``) and ``engine.map`` self
time for the supervised executor's wait on its futures.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: (layer stem, ``module:Class.method`` or ``module:function``, span kind).
TARGETS = (
    ("harness.session", "repro.harness.session:BeamSession.run", "session"),
    ("harness.run_benchmark", "repro.harness.controller:ControlPC.run_benchmark", None),
    ("harness.logbook", "repro.harness.logbook:Logbook.record", None),
    ("injection.expose", "repro.injection.injector:BeamInjector.expose", None),
    ("injection.sample_failures", "repro.injection.propagation:OutcomeModel.sample_failures", None),
    ("soc.operating_point", "repro.soc.xgene2:XGene2.operating_point", None),
    ("soc.set_point", "repro.soc.xgene2:XGene2.apply_operating_point", None),
    ("soc.set_point", "repro.soc.xgene2:XGene2.power_cycle", None),
    ("soc.poll_health", "repro.soc.slimpro:SlimPro.poll_health", None),
    ("soc.edac_log", "repro.soc.edac:EdacLog.log", None),
    ("io.encode", "repro.io.json_store:session_to_dict", None),
    ("io.decode", "repro.io.json_store:campaign_from_dict", None),
    ("io.assemble", "repro.io.json_store:campaign_dict_from_entries", "assembly"),
    ("io.write", "repro.io.results_dir:ResultsDirectory.save_campaign_dict", None),
    ("io.write", "repro.io.results_dir:ResultsDirectory.save_dmesg", None),
    ("io.write", "repro.io.results_dir:ResultsDirectory.save_manifest", None),
    ("resilient.journal", "repro.resilient.journal:CampaignJournal.append_unit", "commit"),
    ("scheduler.submit", "repro.scheduler.broker:Broker.submit", None),
    ("scheduler.lease", "repro.scheduler.broker:Broker.lease", None),
    ("scheduler.complete", "repro.scheduler.broker:Broker.complete", "unit"),
    ("scheduler.commit", "repro.scheduler.store:DirectoryStore.try_commit", "commit"),
    ("engine.map", "repro.engine.executor:SerialExecutor.map", None),
    ("engine.map", "repro.engine.executor:ParallelExecutor.map", None),
    ("engine.map", "repro.resilient.supervisor:SupervisedExecutor.map", None),
    ("engine.pool", "repro.engine.pool:WorkerPool.map_chunks", None),
    ("engine.pool", "repro.engine.pool:WorkerPool.submit", None),
    ("service.submit", "repro.service.service:CampaignService.submit_spec", "submit"),
    ("service.scan", "repro.service.service:CampaignService.scan_jobs_once", None),
    ("service.assemble", "repro.service.service:CampaignService.assemble_settled", "assembly"),
    ("service.status", "repro.service.service:CampaignService.write_status", None),
    ("codecs.run_cell", "repro.codecs.sweep:run_cell", "unit"),
    ("codecs.pack_masks", "repro.codecs.vector:pack_masks", None),
    ("codecs.classify", "repro.codecs.vector:VectorizedCodec.classify_batch", None),
    ("codecs.assemble", "repro.codecs.sweep:assemble_pareto", "assembly"),
)


class _ThreadState:
    __slots__ = ("stack", "rows")

    def __init__(self) -> None:
        #: One ``[nested seconds, span index or None, job]`` per open call.
        self.stack: List[list] = []
        self.rows: Dict[str, List[float]] = {}


class Tracer:
    """In-memory aggregate rows, counters and spans (see module docstring)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.on = True
        self.clock = clock
        self.counts: Dict[str, float] = {}
        self.spans: List[dict] = []
        self.first_submit: Dict[str, float] = {}
        self.first_lease: Dict[str, float] = {}
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def disable(self) -> None:
        self.on = False

    def _open_span(self, kind: str, name: str, stack: List[list], job) -> int:
        parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
        record = {"kind": kind, "name": name, "parent": parent, "job": job}
        with self._lock:
            self.spans.append(record)
            return len(self.spans) - 1

    def wrap(
        self,
        stem: str,
        fn: Callable,
        span: Optional[str] = None,
        hook: Optional[Callable] = None,
        job_of: Optional[Callable[[tuple, Any], Optional[str]]] = None,
    ) -> Callable:
        """A timing wrapper around *fn* feeding row *stem*.

        With *span* set each call also records a span of that kind.  Its
        job is the caller's; outside any job (in the service) it is
        ``job_of(args, result)`` when given.
        *hook* is a generator function ``hook(tracer, args)``: it runs up
        to its ``yield`` before the call and receives the result after.
        """
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            state = self._state()
            stack = state.stack
            job = stack[-1][2] if stack else None
            frame = [
                0.0,
                self._open_span(span, stem, stack, job) if span else None,
                job,
            ]
            probe = hook(self, args) if hook is not None else None
            if probe is not None:
                next(probe)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                row = state.rows.get(stem)
                if row is None:
                    row = state.rows[stem] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[0]
            if frame[1] is not None:
                record = self.spans[frame[1]]
                record["start"], record["end"] = start, end
                if job is None and job_of is not None:
                    record["job"] = job_of(args, result)
            if probe is not None:
                try:
                    probe.send(result)
                except StopIteration:
                    pass
            return result

        return wrapper

    @contextlib.contextmanager
    def job_span(self, job: str):
        """The root span of one job, opened in the calling thread."""
        state = self._state()
        index = self._open_span("job", "job", state.stack, job)
        state.stack.append([0.0, index, job])
        start = self.clock()
        try:
            yield index
        finally:
            state.stack.pop()
            self.spans[index]["start"], self.spans[index]["end"] = (
                start,
                self.clock(),
            )

    def rows(self) -> Dict[str, List[float]]:
        """Aggregate rows summed over every thread."""
        merged: Dict[str, List[float]] = {}
        with self._lock:
            states = list(self._threads)
        for state in states:
            for stem, row in state.rows.items():
                total = merged.setdefault(stem, [0, 0.0, 0.0])
                for i in range(3):
                    total[i] += row[i]
        return merged

    def to_dict(self) -> dict:
        return {
            "rows": self.rows(),
            "counts": dict(self.counts),
            "spans": list(self.spans),
            "queue_wait_s": sorted(
                self.first_lease[sid] - submitted
                for sid, submitted in self.first_submit.items()
                if sid in self.first_lease
            ),
        }

    def dump(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(self.to_dict(), handle)
        os.replace(tmp, path)


# -- side counters measured where the work happens -------------------------------


def _expose_hook(tracer: Tracer, args: tuple):
    summary = yield
    if summary.total_upsets:
        tracer.count("injection.expose.useful")


def _commit_hook(tracer: Tracer, args: tuple):
    accepted = yield
    if accepted:
        tracer.count("scheduler.commit.accepted")


def _classify_hook(tracer: Tracer, args: tuple):
    yield
    tracer.count("codecs.classify.words", len(args[1]))


def _write_hook(tracer: Tracer, args: tuple):
    written = yield
    paths = written.values() if isinstance(written, dict) else [written]
    tracer.count("io.write.bytes", sum(os.path.getsize(p) for p in paths))


def _journal_hook(tracer: Tracer, args: tuple):
    handle = args[0]._handle
    before = os.fstat(handle.fileno()).st_size
    yield
    tracer.count("resilient.journal.bytes", os.fstat(handle.fileno()).st_size - before)


def _submit_hook(tracer: Tracer, args: tuple):
    submission = yield
    tracer.first_submit.setdefault(submission.submission_id, tracer.clock())


def _lease_hook(tracer: Tracer, args: tuple):
    leases = yield
    now = tracer.clock()
    for lease in leases:
        tracer.first_lease.setdefault(lease.submission_id, now)


def _unit_job(unit_id: str) -> str:
    """Planned unit ids are ``<hash12>/<label>``; their job is ``sub-<hash12>``."""
    return "sub-" + unit_id.split("/", 1)[0]


_HOOKS = {
    "BeamInjector.expose": _expose_hook,
    "DirectoryStore.try_commit": _commit_hook,
    "VectorizedCodec.classify_batch": _classify_hook,
    "ResultsDirectory.save_campaign_dict": _write_hook,
    "ResultsDirectory.save_dmesg": _write_hook,
    "ResultsDirectory.save_manifest": _write_hook,
    "CampaignJournal.append_unit": _journal_hook,
    "Broker.submit": _submit_hook,
    "Broker.lease": _lease_hook,
}

_JOB_OF = {
    "DirectoryStore.try_commit": lambda args, result: _unit_job(args[1]),
    "Broker.complete": lambda args, result: args[1].submission_id,
    "CampaignService.submit_spec": lambda args, result: result.submission_id,
    "CampaignService.assemble_settled": lambda args, result: ",".join(result),
}


def install(tracer: Tracer) -> None:
    """Wrap every target in :data:`TARGETS` (see module docstring)."""
    for stem, target, span in TARGETS:
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        options = dict(span=span, hook=_HOOKS.get(attr), job_of=_JOB_OF.get(attr))
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, tracer.wrap(stem, cls.__dict__[method], **options))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(stem, original, **options)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro"):
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapper)
    os.register_at_fork(after_in_child=tracer.disable)


# -- per-layer metrics -------------------------------------------------------------

#: The measured layers, named after the program's modules.
LAYERS = (
    "harness", "injection", "soc", "io", "resilient",
    "scheduler", "engine", "service", "codecs",
)

#: Per-layer metrics read off the rows: (name, unit, better, field, stem).
#: ``field`` is ``calls``/``s``/``self_s`` of a row, or ``count`` of a
#: side counter.
ROW_METRICS = (
    ("harness.session.s", "s", "s", "harness.session"),
    ("harness.run_benchmark.calls", "count", "calls", "harness.run_benchmark"),
    ("harness.run_benchmark.self_s", "s", "self_s", "harness.run_benchmark"),
    ("harness.logbook.calls", "count", "calls", "harness.logbook"),
    ("harness.logbook.s", "s", "s", "harness.logbook"),
    ("injection.expose.calls", "count", "calls", "injection.expose"),
    ("injection.expose.s", "s", "s", "injection.expose"),
    ("injection.sample_failures.calls", "count", "calls", "injection.sample_failures"),
    ("injection.sample_failures.s", "s", "s", "injection.sample_failures"),
    ("soc.operating_point.calls", "count", "calls", "soc.operating_point"),
    ("soc.poll_health.calls", "count", "calls", "soc.poll_health"),
    ("soc.poll_health.s", "s", "s", "soc.poll_health"),
    ("soc.edac_log.calls", "count", "calls", "soc.edac_log"),
    ("io.encode.s", "s", "s", "io.encode"),
    ("io.decode.s", "s", "s", "io.decode"),
    ("io.assemble.s", "s", "s", "io.assemble"),
    ("io.write.s", "s", "s", "io.write"),
    ("io.write.bytes", "bytes", "count", "io.write.bytes"),
    ("resilient.journal.calls", "count", "calls", "resilient.journal"),
    ("resilient.journal.s", "s", "s", "resilient.journal"),
    ("resilient.journal.bytes", "bytes", "count", "resilient.journal.bytes"),
    ("scheduler.submit.s", "s", "s", "scheduler.submit"),
    ("scheduler.lease.calls", "count", "calls", "scheduler.lease"),
    ("scheduler.lease.s", "s", "s", "scheduler.lease"),
    ("scheduler.complete.calls", "count", "calls", "scheduler.complete"),
    ("scheduler.complete.s", "s", "s", "scheduler.complete"),
    ("scheduler.commit.calls", "count", "calls", "scheduler.commit"),
    ("scheduler.commit.s", "s", "s", "scheduler.commit"),
    ("engine.map.calls", "count", "calls", "engine.map"),
    ("engine.map.s", "s", "s", "engine.map"),
    ("engine.pool.calls", "count", "calls", "engine.pool"),
    ("engine.pool.s", "s", "s", "engine.pool"),
    ("service.submit.calls", "count", "calls", "service.submit"),
    ("service.submit.s", "s", "s", "service.submit"),
    ("service.scan.s", "s", "s", "service.scan"),
    ("service.assemble.calls", "count", "calls", "service.assemble"),
    ("service.assemble.s", "s", "s", "service.assemble"),
    ("service.status.calls", "count", "calls", "service.status"),
    ("service.status.s", "s", "s", "service.status"),
    ("codecs.run_cell.calls", "count", "calls", "codecs.run_cell"),
    ("codecs.run_cell.self_s", "s", "self_s", "codecs.run_cell"),
    ("codecs.pack_masks.s", "s", "s", "codecs.pack_masks"),
    ("codecs.classify.calls", "count", "calls", "codecs.classify"),
    ("codecs.classify.s", "s", "s", "codecs.classify"),
    ("codecs.classify.words", "count", "count", "codecs.classify.words"),
    ("codecs.assemble.s", "s", "s", "codecs.assemble"),
)

#: Metrics derived from more than one row or from the outputs.
DERIVED_METRICS = (
    ("injection.expose.useful_ratio", "ratio", "higher"),
    ("soc.operating_point.s", "s", "lower"),
    ("soc.operating_point.useful_ratio", "ratio", "higher"),
    ("resilient.retries", "count", "lower"),
    ("scheduler.commit.useful_ratio", "ratio", "higher"),
    ("scheduler.queue_wait_p50_s", "s", "lower"),
    ("scheduler.quarantined", "count", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    *((f"{layer}.share", "ratio", "lower") for layer in LAYERS),
    ("trace.overhead", "ratio", "lower"),
)


def per_layer_spec() -> list:
    """Every per-layer metric as ``(name, unit, better)``, in print order."""
    return [(name, unit, "lower") for name, unit, _, _ in ROW_METRICS] + list(
        DERIVED_METRICS
    )


def layer_metrics(
    trace: dict, job_s: float, untraced_job_s: float, retries: int, quarantined: int
) -> dict:
    """Per-layer metric values of one traced job (layers with no calls read 0)."""
    rows, counts = trace["rows"], trace["counts"]

    def row(stem: str) -> list:
        return rows.get(stem, [0, 0.0, 0.0])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    fields = {"calls": 0, "s": 1, "self_s": 2}
    values = {
        name: counts.get(stem, 0) if field == "count" else row(stem)[fields[field]]
        for name, _, field, stem in ROW_METRICS
    }
    reads, writes = row("soc.operating_point"), row("soc.set_point")
    waits = trace["queue_wait_s"]
    values.update(
        {
            "injection.expose.useful_ratio": ratio(
                counts.get("injection.expose.useful", 0), row("injection.expose")[0]
            ),
            "soc.operating_point.s": reads[1] + writes[1],
            "soc.operating_point.useful_ratio": ratio(writes[0], reads[0]),
            "resilient.retries": retries,
            "scheduler.commit.useful_ratio": ratio(
                counts.get("scheduler.commit.accepted", 0), row("scheduler.commit")[0]
            ),
            "scheduler.queue_wait_p50_s": statistics.median(waits) if waits else 0.0,
            "scheduler.quarantined": quarantined,
            "trace.overhead": job_s / untraced_job_s - 1.0,
        }
    )
    for layer in LAYERS:
        busy = sum(r[2] for stem, r in rows.items() if stem.split(".")[0] == layer)
        values[f"{layer}.self_s"] = busy
        values[f"{layer}.share"] = ratio(busy, job_s)
    return values
