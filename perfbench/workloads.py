"""The three workloads: drive the program's processes and time them.

Each workload returns a :class:`Run`: the timed spans and the vCPUs the
program ran on (``run.py`` turns them into timings with ``meter.py``),
the output locations for the untimed checks, and the traces of traced
jobs.  All
waits are bounded; every process started here runs in its own session
and is stopped, together with anything it spawned, before returning.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from stats import ClosedLoop

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCH = os.path.join(HERE, "launch.py")

#: CLI runs repeat their job, all jobs identical at one seed, and start the
#: next only while the last one says it will end within ``--seconds``; at
#: least MIN_JOBS run, so a run holds a pair that proves determinism.
#: Every job launch is a set-up sample.  Served load is a fixed number of
#: jobs instead (one batch of 100 per SECONDS_PER_BATCH of ``--seconds``),
#: because a service slows as it accumulates submissions.
MIN_JOBS = 2
SECONDS_PER_BATCH = 8.0
#: No new job starts after RUN_BUDGET_S of a run, and no wait outlasts
#: RUN_DEADLINE_S, so a stuck program ends the run as failed in time.
RUN_BUDGET_S = 120.0
RUN_DEADLINE_S = 150.0
#: Bounds on one CLI job, one served job, and a service start or stop.
JOB_TIMEOUT_S = 90.0
SERVED_JOB_WAIT_S = 30.0
SERVICE_START_S = 60.0
SERVICE_STOP_S = 20.0

#: Pinned deployment settings of the served workload.  ``--poll`` is the
#: idle latency floor (the loop sleeps that long when nothing is
#: leased), so it is kept small.
SERVICE_SETTINGS = {"workers": 2, "poll_s": 0.02, "lease_ttl_s": 30.0, "capacity": 64}
#: Closed-loop clients (one generator process, nproc = 2).  Served jobs
#: come in batches of 100, so p90 always has ten samples beyond it.
CLIENTS = 2
BATCH_JOBS = 100
#: Services started per untraced serve run; the last one takes the load.
SERVICE_LAUNCHES = 3
WARMUP_TIME_SCALE = 0.003
TIME_SCALE_RANGE = (0.002, 0.005)


Span = Tuple[float, float]


@dataclass
class Job:
    """One program process: its timed spans, exit code and outputs.

    Spans are ``time.monotonic()`` readings.  ``placements`` are the
    ``(time, vCPU)`` records of its running processes, for the meter.
    """

    setup_span: Optional[Span] = None
    job_span: Optional[Span] = None
    latency_span: Optional[Span] = None
    rss_mb: float = 0.0
    rc: Optional[int] = None
    outdir: str = ""
    trace: Optional[dict] = None
    placements: List[Tuple[float, int]] = field(default_factory=list)

    @property
    def job_s(self) -> Optional[float]:
        return None if self.job_span is None else self.job_span[1] - self.job_span[0]


@dataclass
class Run:
    """What one workload run measured, before its outputs are checked."""

    workload: str
    seed: int
    settings: dict
    jobs: List[Job] = field(default_factory=list)
    served: Dict[str, dict] = field(default_factory=dict)
    loop: Optional[ClosedLoop] = None
    services: List[Job] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


class Context:
    """Paths and options shared by one benchmark invocation."""

    def __init__(self, root: str, workdir: str, seed: int, seconds: float, trace: bool) -> None:
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self._serial = 0

    def path(self, stem: str) -> str:
        self._serial += 1
        return os.path.join(self.workdir, f"{stem}-{self._serial}")

    def over_budget(self) -> bool:
        return time.monotonic() - self.started > RUN_BUDGET_S

    def bound(self, limit_s: float) -> float:
        """*limit_s*, cut to what is left before the run's deadline."""
        return max(min(limit_s, self.started + RUN_DEADLINE_S - time.monotonic()), 1.0)


# -- processes --------------------------------------------------------------------


def _tree_sample(pid: int) -> Tuple[int, List[int]]:
    """Resident kB of *pid* and all its descendants (0 once it is gone),
    and the vCPU of each of them that is running."""
    total, running, stack = 0, [], [pid]
    while stack:
        current = stack.pop()
        try:
            with open(f"/proc/{current}/status") as handle:
                for line in handle:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
            with open(f"/proc/{current}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            if fields[0] == "R":
                running.append(int(fields[36]))  # field 39, the vCPU it last ran on
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    stack.extend(int(p) for p in handle.read().split())
        except (OSError, ValueError, IndexError):
            continue
    return total, running


class TreeSampler:
    """Peak resident memory of a process tree and the vCPUs it runs on,
    sampled every 50 ms."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.peak_kb = 0
        self.placements: List[Tuple[float, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.is_set():
            rss_kb, running = _tree_sample(self.pid)
            now = time.monotonic()
            self.peak_kb = max(self.peak_kb, rss_kb)
            self.placements.extend((now, cpu) for cpu in running)
            self._stop.wait(0.05)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


def _spawn(ctx: Context, args: List[str], log: str) -> subprocess.Popen:
    with open(log, "ab") as handle:
        return subprocess.Popen(
            [sys.executable, LAUNCH, *args],
            cwd=ctx.root,
            env=ctx.env,
            stdin=subprocess.DEVNULL,
            stdout=handle,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )


def _group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes in process group *pgid*."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def _reap_group(proc: subprocess.Popen) -> None:
    """Stop the process and anything left in its session, and wait for them."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        members = _group_members(proc.pid)
        if not members:
            return
        for pid in members:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.05)


def _read_timing(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


def cli_job(ctx: Context, label: str, cli_args: List[str], trace: bool = False) -> Job:
    """Run ``repro-campaign <cli_args>`` once; time set-up and job."""
    job = Job()
    stem = ctx.path(label)
    options = [f"{stem}.timing.json"]
    if trace:
        options += ["--trace", f"{stem}.trace.json", "--job", label]
    launched = time.monotonic()
    proc = _spawn(ctx, [*options, "--", *cli_args], f"{stem}.log")
    sampler = TreeSampler(proc.pid)
    try:
        job.rc = proc.wait(timeout=ctx.bound(JOB_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        job.rc = None
    finally:
        sampler.stop()
        _reap_group(proc)
    job.placements = sampler.placements
    timing = _read_timing(f"{stem}.timing.json")
    if "ready" in timing:
        job.setup_span = (launched, timing["ready"])
    if "done" in timing:
        job.job_span = (timing["start"], timing["done"])
        job.latency_span = (launched, timing["done"])
        job.rss_mb = max(sampler.peak_kb, timing["maxrss_kb"]) / 1024.0
    if trace and os.path.exists(f"{stem}.trace.json"):
        with open(f"{stem}.trace.json") as handle:
            job.trace = json.load(handle)
    return job


def _cli_workload(ctx: Context, name: str, args_for: Callable[[str], List[str]]) -> Run:
    run = Run(workload=name, seed=ctx.seed, settings={"command": args_for("OUTDIR")})
    plan = [False, True] if ctx.trace else None  # one untraced job, then one traced
    measuring = time.monotonic()
    while True:
        traced = plan.pop(0) if plan is not None else False
        started = time.monotonic()
        outdir = ctx.path(name)
        job = cli_job(ctx, name, args_for(outdir), trace=traced)
        job.outdir = outdir
        run.jobs.append(job)
        if job.rc != 0:
            run.errors.append(f"{name} job exited {job.rc}")
            break
        now = time.monotonic()
        if plan is not None:
            if not plan:
                break
        elif len(run.jobs) >= MIN_JOBS and now - measuring + (now - started) > ctx.seconds:
            break
        if ctx.over_budget():
            if len(run.jobs) < MIN_JOBS:
                run.errors.append("run budget exhausted before the minimum jobs")
            break
    return run


def campaign(ctx: Context) -> Run:
    """The paper's full Table 2 campaign, serial (the CLI default)."""
    return _cli_workload(
        ctx,
        "campaign",
        lambda out: ["run", out, "--seed", str(ctx.seed), "--time-scale", "1.0"],
    )


def explore(ctx: Context) -> Run:
    """A 120-cell codec x point x workload x node sweep, serial."""
    return _cli_workload(
        ctx,
        "explore",
        lambda out: [
            "explore", out, "--seed", str(ctx.seed), "--strikes", "20000",
            "--node", "xgene2-28,7nm",
        ],
    )


# -- the served workload ----------------------------------------------------------


def job_table(seed: int, count: int) -> List[dict]:
    """Served specs derived from the workload seed: distinct seeds, mixed sizes.

    Entry 0 is the untimed warm-up job every service start runs.  Entry
    *i* does not depend on *count*, so runs of any length agree on it.
    """
    rng = random.Random(seed)
    low, high = TIME_SCALE_RANGE
    table, seen = [], set()
    while len(table) <= count:
        job_seed = rng.randrange(1, 2**31)
        time_scale = round(rng.uniform(low, high), 4) if table else WARMUP_TIME_SCALE
        if job_seed not in seen:
            seen.add(job_seed)
            table.append({"seed": job_seed, "time_scale": time_scale})
    return table


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _submit(port: int, spec: dict) -> Optional[str]:
    """POST one spec; the submission id, or None if refused or failed."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/submit",
        data=json.dumps(spec).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=SERVED_JOB_WAIT_S) as response:
            return json.loads(response.read())["submission_id"]
    except (urllib.error.URLError, OSError, ValueError, KeyError):
        return None


def _wait(predicate: Callable[[], bool], limit_s: float, proc=None, poll_s=0.002) -> bool:
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        if proc is not None and proc.poll() is not None:
            return False
        time.sleep(poll_s)
    return predicate()


def _serving(root: str) -> bool:
    try:
        with open(os.path.join(root, "status.json")) as handle:
            return json.load(handle).get("state") == "serving"
    except (OSError, ValueError):
        return False


class Service:
    """One ``repro-campaign serve`` process under the benchmark's control."""

    def __init__(self, ctx: Context, trace: bool) -> None:
        self.ctx = ctx
        self.root = ctx.path("serve-root")
        self.port = _free_port()
        self.job = Job(outdir=self.root)
        self._stem = ctx.path("serve")
        settings = SERVICE_SETTINGS
        options = [f"{self._stem}.timing.json"]
        if trace:
            options += ["--trace", f"{self._stem}.trace.json"]
        self.launched = time.monotonic()
        self.proc = _spawn(
            ctx,
            [
                *options, "--", "serve", self.root,
                "--workers", str(settings["workers"]),
                "--capacity", str(settings["capacity"]),
                "--poll", str(settings["poll_s"]),
                "--lease-ttl", str(settings["lease_ttl_s"]),
                "--http", str(self.port),
            ],
            f"{self._stem}.log",
        )
        self.sampler = TreeSampler(self.proc.pid)

    def start(self, warmup: dict) -> Optional[str]:
        """Wait until serving and one warm-up job is assembled; its sid."""
        limit = self.ctx.bound(SERVICE_START_S)
        if not _wait(lambda: _serving(self.root), limit, self.proc, 0.005):
            return None
        sid = _submit(self.port, warmup)
        if sid is None or not self.wait_done(sid, self.launched + limit):
            return None
        self.job.setup_span = (self.launched, time.monotonic())
        return sid

    def wait_done(self, sid: str, deadline: float) -> bool:
        done = os.path.join(self.root, "results", sid, "failures.json")
        return _wait(lambda: os.path.exists(done), deadline - time.monotonic(), self.proc)

    def stop(self) -> None:
        """SIGTERM, bounded wait for the drain, then reap the whole tree."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.job.rc = self.proc.wait(timeout=SERVICE_STOP_S)
        except subprocess.TimeoutExpired:
            self.job.rc = None
        self.sampler.stop()
        _reap_group(self.proc)
        self.job.placements = self.sampler.placements
        timing = _read_timing(f"{self._stem}.timing.json")
        self.job.rss_mb = max(self.sampler.peak_kb, timing.get("maxrss_kb", 0)) / 1024.0
        if os.path.exists(f"{self._stem}.trace.json"):
            with open(f"{self._stem}.trace.json") as handle:
                self.job.trace = json.load(handle)


def closed_loop(service: Service, table: List[dict], first: int, count: int,
                loop: ClosedLoop, served: Dict[str, dict]) -> None:
    """Run jobs ``first .. first+count-1`` through CLIENTS closed-loop clients."""
    indices = iter(range(first, first + count))
    lock = threading.Lock()
    stuck = threading.Event()

    def client() -> None:
        while not stuck.is_set():
            with lock:
                index = next(indices, None)
            if index is None:
                return
            sent = time.monotonic()
            sid = _submit(service.port, table[index])
            limit = service.ctx.bound(SERVED_JOB_WAIT_S)
            ok = sid is not None and service.wait_done(sid, sent + limit)
            done = time.monotonic()
            loop.record(sent, done, ok)
            with lock:
                served[f"job-{index}"] = dict(table[index], sid=sid, ok=ok)
            if not ok:
                stuck.set()  # refused, or the service stopped answering

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=3 * SERVED_JOB_WAIT_S)


def serve(ctx: Context) -> Run:
    """Closed-loop load on ``repro-campaign serve`` over HTTP.

    An untraced run starts SERVICE_LAUNCHES services (set-up samples) and
    loads the last; a traced run loads an untraced and a traced service
    with the same single batch, so the two makespans cover identical work.
    """
    batches = 1 if ctx.trace else max(1, int(ctx.seconds // SECONDS_PER_BATCH))
    count = BATCH_JOBS * batches
    table = job_table(ctx.seed, count)
    run = Run(
        workload="serve",
        seed=ctx.seed,
        settings=dict(SERVICE_SETTINGS, clients=CLIENTS, jobs=count,
                      time_scale_range=list(TIME_SCALE_RANGE)),
    )
    launches = [False, True] if ctx.trace else [False] * SERVICE_LAUNCHES
    for number, traced in enumerate(launches):
        service = Service(ctx, trace=traced)
        run.services.append(service.job)
        try:
            warm_sid = service.start(table[0])
            run.served[f"s{number}/warmup"] = dict(
                table[0], job="warmup", sid=warm_sid, ok=warm_sid is not None, root=service.root
            )
            if warm_sid is None:
                run.errors.append(f"service {number} did not become ready")
                continue
            if not ctx.trace and number < len(launches) - 1:
                continue
            loop = ClosedLoop(limit_s=SERVED_JOB_WAIT_S)
            served: Dict[str, dict] = {}
            closed_loop(service, table, 1, count, loop, served)
            service.job.job_span = loop.span()
            for key, entry in served.items():
                run.served[f"s{number}/{key}"] = dict(entry, job=key, root=service.root)
            if loop.failed:
                run.errors.append(f"{loop.failed} served job(s) failed or timed out")
            if not traced:
                run.loop = loop
        finally:
            service.stop()
    return run


WORKLOADS = {"campaign": campaign, "explore": explore, "serve": serve}
