"""``repro-campaign``: run, persist, and analyze campaigns from the shell.

Subcommands::

    repro-campaign run OUTDIR [--seed N] [--time-scale X] [--workers N]
                              [--telemetry] [--resume | --fresh] [--strict]
                              [--timeout S] [--retries N] [--chaos SPEC]
        Fly the Table 2 campaign and persist everything under OUTDIR
        (campaign.json + per-session dmesg captures + manifest.json +
        the checkpoint journal + failures.json).
        --workers N > 1 flies sessions on separate processes; the
        output is bit-identical to the serial run.  --telemetry records
        metrics and spans into the manifest and prints a summary
        (campaign.json stays byte-identical either way).
        Every completed work unit is checkpointed to journal.jsonl; an
        interrupted run (SIGTERM/SIGINT, exit 143/130) resumes with
        --resume, producing campaign.json byte-identical to an
        uninterrupted run.  Rerunning an OUTDIR that already holds a
        journal without --resume is refused (it would destroy the
        checkpoints); pass --fresh to discard them deliberately.  Work units fly under supervision: --timeout
        bounds each unit, --retries bounds transient-failure retries
        (deterministic exponential backoff), and persistently failing
        units are quarantined.  Without --strict a partial campaign
        still exits 0 (with a failure table); --strict exits 3 when any
        unit ended quarantined.  --chaos JSON|FILE injects
        deterministic faults into the harness itself (self-test /CI).

    repro-campaign analyze OUTDIR [--artifact table2|fig8|fig11|summary]
        Reload a stored campaign and print an analysis artifact.

    repro-campaign export OUTDIR
        Write the campaign's tables as CSVs next to the raw data.

    repro-campaign report OUTDIR
        Write the full markdown campaign report (REPORT.md).

    repro-campaign stats OUTDIR [--format console|json|prometheus]
        Render a stored run's manifest and telemetry.  Refuses (exit 1)
        when the manifest's config hash disagrees with the checkpoint
        journal's -- mixed-provenance results directories lie about
        which configuration produced the numbers.

    repro-campaign validate [--suite conformance|differential|statistical]
                            [--seed N] [--time-scale X] [--out FILE]
        Run the paper-conformance gates (repro.validate): golden-value
        oracles, differential pairings, and seed-ladder statistical
        checks.  Prints the gate report, writes it as JSON (default
        conformance.json), and exits 4 if any gate fails.

    repro-campaign explore OUTDIR [--codecs LIST] [--points LIST]
                                  [--workloads LIST] [--strikes N]
                                  [--seed N] [--interleave N] [--name S]
                                  [--workers N] [--resume | --fresh]
        Run a codec x voltage x workload design-space sweep
        (repro.codecs) through the scheduler broker: every cell is a
        leased work unit committed to OUTDIR/scheduler, so an
        interrupted sweep (exit 143) resumes with --resume and loses
        at most the in-flight cells.  Cells run real
        encode/corrupt/decode arithmetic against the calibrated MBU
        cluster model; the output is pareto.json (per-cell FIT tables
        with Garwood/Wilson intervals plus the FIT-vs-area-vs-energy
        Pareto front per operating point and workload) and
        fit_cells.csv.  Split-half consistency gates guard every cell;
        exit 4 when any fails.  --workers N runs cells on separate
        processes; pareto.json is byte-identical to the serial run.
        Cells fly under the same supervision as `run`: a cell that
        keeps failing is quarantined, the rest still commit, and the
        sweep exits 1 with one error line per failed cell and no
        pareto.json (--resume reruns the failed cells).  --fresh also
        removes the previous sweep's pareto.json and fit_cells.csv.

    repro-campaign serve ROOT [--workers N] [--capacity N] [--lease-ttl S]
                              [--http PORT] [--idle-exit S] [--validate]
        Run a campaign service on ROOT: watch ROOT/jobs for dropped
        spec files (and optionally a local HTTP port), lease units
        from the bounded priority queue to a supervised worker pool,
        and assemble each finished submission under
        ROOT/results/<submission>/ -- byte-identical to a plain `run`
        of the same spec.  Two `serve` processes on one ROOT shard the
        queue; a killed one's leases expire and are picked up.
        SIGTERM drains in-flight leases, flushes the scheduling
        journal, and exits 143 with a resume hint.  --validate runs
        the post-job gates (repro.validate.postjob) on every assembled
        submission, writing validation.json next to campaign.json and
        surfacing the verdict in status.json.

    repro-campaign submit ROOT [--spec FILE | --seed N --time-scale X
                               --priority P --max-workers N
                               --tech-node NODE --name NAME]
                               [--url URL] [--wait [S]]
        Queue one campaign spec (job file drop, or --url for HTTP).
        The campaign always flies Table 2's session plans at their own
        flux through the vectorized injector.
        Submissions dedupe on the config hash; a full queue is refused
        with exit 5 (SchedulerBusy) and nothing enqueued.

    repro-campaign status ROOT [--json]
        Show the serving broker's queue/submission snapshot.

    repro-campaign cancel ROOT SUBMISSION
        Drop a submission's queued units (in-flight ones finish).

The separation mirrors real campaign practice: `run` burns (simulated)
beam time once; `analyze`/`export`/`stats`/`validate` are free and
repeatable.
"""

from __future__ import annotations

import argparse
import shlex
import signal
import sys
from contextlib import contextmanager
from typing import Dict

from . import __version__
from .core.analysis import CampaignAnalysis
from .core.report import Table
from .engine import ExecutionContext
from .engine.executor import worker_count
from .errors import (
    CampaignInterrupted,
    ConfigurationError,
    ReproError,
    SchedulerBusy,
)
from .harness.campaign import CampaignResult
from .injection.events import OutcomeKind
from .io.atomic import atomic_write_text
from .io.results_dir import ResultsDirectory
from .resilient import (
    ChaosSpec,
    ResilientCampaign,
    SupervisedExecutor,
    SupervisionPolicy,
)
from .telemetry import (
    RunManifest,
    Telemetry,
    console_summary,
    metrics_to_prometheus,
)

#: Exit codes beyond the usual 0/1/2: a strict run with quarantined
#: units, failed validation gates, a submission refused by a full
#: scheduler queue, and an interrupted (resumable) run.
EXIT_STRICT_FAILURES = 3
EXIT_GATE_FAILURES = 4
EXIT_SCHEDULER_BUSY = 5
EXIT_INTERRUPTED = 143


@contextmanager
def _interruptible():
    """Turn SIGTERM/SIGINT into :class:`CampaignInterrupted`.

    The journal is fsynced after every completed unit, so raising out
    of the run loop (instead of dying mid-write) just stops cleanly at
    the last checkpoint; ``--resume`` picks the run back up.
    """

    def _handler(signum, frame):
        raise CampaignInterrupted(f"received signal {signum}")

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, _handler)
        except (ValueError, OSError):  # non-main thread / exotic platform
            pass
    try:
        yield
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)


def _cmd_run(args: argparse.Namespace) -> int:
    telemetry = Telemetry() if args.telemetry else None
    context = ExecutionContext(
        seed=args.seed, time_scale=args.time_scale, telemetry=telemetry
    )
    policy = SupervisionPolicy(
        timeout_s=args.timeout, max_retries=args.retries
    )
    chaos = ChaosSpec.from_json(args.chaos) if args.chaos else None
    runner = ResilientCampaign(
        context=context,
        workers=args.workers,
        policy=policy,
        chaos=chaos,
        tech_node=args.node,
    )
    results = ResultsDirectory(args.outdir)
    if args.resume and not results.has_journal():
        print(
            f"error: no journal under {args.outdir!r} to resume from "
            f"(run without --resume first)",
            file=sys.stderr,
        )
        return 1
    if not args.resume and not args.fresh and results.has_journal():
        # Starting over silently truncates the journal -- for a
        # multi-day campaign that destroys every checkpoint before a
        # single new unit completes, so make the operator choose.
        print(
            f"error: {args.outdir!r} already holds a checkpoint journal; "
            f"resume it with --resume, or pass --fresh to discard the "
            f"checkpoints and start over",
            file=sys.stderr,
        )
        return 1
    try:
        with _interruptible():
            if telemetry is not None:
                with telemetry.span("cli.fly"):
                    report = runner.run(results, resume=args.resume)
            else:
                report = runner.run(results, resume=args.resume)
    except CampaignInterrupted as exc:
        print(
            f"interrupted ({exc}); completed units are journaled under "
            f"{args.outdir} -- resume with:\n"
            f"  repro-campaign run {shlex.quote(args.outdir)} --resume "
            f"--seed {args.seed} --time-scale {args.time_scale}"
            + (f" --node {shlex.quote(args.node)}" if args.node else ""),
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    if telemetry is not None:
        with telemetry.span("cli.persist"):
            written = report.persist(results)
    else:
        written = report.persist(results)
    executor = runner.executor
    manifest = RunManifest(
        seed=args.seed,
        time_scale=args.time_scale,
        executor=executor.name,
        workers=max(getattr(executor, "workers", 1), 1),
        version=__version__,
        config_hash=runner.config_hash(),
        stages=telemetry.tracer.stage_durations() if telemetry else {},
        metrics=telemetry.metrics.to_dict() if telemetry else {},
        spans=telemetry.tracer.to_list() if telemetry else [],
        command=_render_command(args),
    )
    written.append(results.save_manifest(manifest))
    resumed = (
        f", resumed {report.resumed_units} unit(s)"
        if report.resumed_units
        else ""
    )
    print(
        f"campaign flown (seed={args.seed}, "
        f"time_scale={args.time_scale}, executor={executor.name}{resumed})"
    )
    for path in written:
        print(f"  wrote {path}")
    if telemetry is not None:
        print()
        print(console_summary(manifest=manifest))
    if not report.ok:
        print()
        print(report.failure_table().render())
        failed = ", ".join(r.key for r in report.failed_units)
        print(
            f"warning: {len(report.failed_units)} work unit(s) "
            f"quarantined ({failed}); campaign.json holds the "
            f"surviving sessions only",
            file=sys.stderr,
        )
        if args.strict:
            return EXIT_STRICT_FAILURES
    return 0


def _render_command(args: argparse.Namespace) -> str:
    command = (
        f"repro-campaign run {shlex.quote(args.outdir)} --seed {args.seed} "
        f"--time-scale {args.time_scale} --workers {args.workers}"
    )
    if args.node:
        command += f" --node {args.node}"
    if args.telemetry:
        command += " --telemetry"
    if args.resume:
        command += " --resume"
    if args.fresh:
        command += " --fresh"
    if args.strict:
        command += " --strict"
    if args.timeout is not None:
        command += f" --timeout {args.timeout}"
    if args.retries != 2:
        command += f" --retries {args.retries}"
    if args.chaos:
        command += f" --chaos {shlex.quote(args.chaos)}"
    return command


def _summary_table(analysis: CampaignAnalysis, campaign: CampaignResult) -> Table:
    table = Table(
        title="Campaign summary",
        header=[
            "Session",
            "PMD (mV)",
            "Freq (MHz)",
            "Upsets/min",
            "Failures",
            "SDC FIT",
            "Total FIT",
        ],
    )
    for label in campaign.labels():
        session = campaign.session(label)
        point = session.plan.point
        table.add_row(
            label,
            point.pmd_mv,
            point.freq_mhz,
            analysis.upset_rate(label).per_minute,
            session.failure_count,
            analysis.category_fit(label, OutcomeKind.SDC).fit,
            analysis.total_fit(label).fit,
        )
    return table


def _analysis_tables(
    analysis: CampaignAnalysis, campaign: CampaignResult
) -> Dict[str, Table]:
    tables = {"table2": analysis.table2()}
    tables["summary"] = _summary_table(analysis, campaign)

    fig8 = Table(
        title="Failure mix per session (%)",
        header=["Session", "AppCrash", "SysCrash", "SDC"],
    )
    for label in campaign.labels():
        if campaign.session(label).failure_count == 0:
            continue
        mix = analysis.failure_mix(label)
        fig8.add_row(
            label,
            mix[OutcomeKind.APP_CRASH],
            mix[OutcomeKind.SYS_CRASH],
            mix[OutcomeKind.SDC],
        )
    tables["fig8"] = fig8

    fig11 = Table(
        title="FIT per category",
        header=["Session", "AppCrash", "SysCrash", "SDC", "Total"],
    )
    for label in campaign.labels():
        fig11.add_row(
            label,
            analysis.category_fit(label, OutcomeKind.APP_CRASH).fit,
            analysis.category_fit(label, OutcomeKind.SYS_CRASH).fit,
            analysis.category_fit(label, OutcomeKind.SDC).fit,
            analysis.total_fit(label).fit,
        )
    tables["fig11"] = fig11
    return tables


def _cmd_analyze(args: argparse.Namespace) -> int:
    results = ResultsDirectory(args.outdir)
    campaign = results.load_campaign()
    analysis = CampaignAnalysis(campaign)
    tables = _analysis_tables(analysis, campaign)
    if args.artifact not in tables:
        print(
            f"unknown artifact {args.artifact!r}; "
            f"choose from {sorted(tables)}",
            file=sys.stderr,
        )
        return 2
    print(tables[args.artifact].render())
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    results = ResultsDirectory(args.outdir)
    campaign = results.load_campaign()
    analysis = CampaignAnalysis(campaign)
    for name, table in _analysis_tables(analysis, campaign).items():
        path = results.save_table(name, table)
        print(f"  wrote {path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import os

    from .core.reporting import CampaignReport

    results = ResultsDirectory(args.outdir)
    campaign = results.load_campaign()
    path = CampaignReport(campaign).write(
        os.path.join(args.outdir, "REPORT.md")
    )
    print(f"  wrote {path}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    results = ResultsDirectory(args.outdir)
    manifest = results.load_manifest()
    if results.has_journal():
        # The manifest claims a configuration; the journal proves one.
        # Disagreement means the directory mixes artifacts from
        # different runs (e.g. a re-run under new settings that died
        # before rewriting the manifest) -- any stats rendered from it
        # would attribute one configuration's numbers to another.
        from .resilient.journal import read_journal_header

        header = read_journal_header(results.journal_path())
        if header.config_hash != manifest.config_hash:
            print(
                f"error: {args.outdir!r} holds artifacts from different "
                f"runs: manifest.json was written by config "
                f"{manifest.config_hash[:12]} (seed={manifest.seed}, "
                f"time_scale={manifest.time_scale}) but the checkpoint "
                f"journal belongs to config {header.config_hash[:12]} "
                f"(seed={header.seed}, time_scale={header.time_scale}); "
                f"re-run with --fresh, or resume the journaled run to "
                f"completion, before reading stats",
                file=sys.stderr,
            )
            return 1
    if args.format == "json":
        print(manifest.to_json())
    elif args.format == "prometheus":
        text = metrics_to_prometheus(manifest.metrics)
        if not text:
            print(
                "no metrics recorded (re-run with --telemetry)",
                file=sys.stderr,
            )
            return 1
        print(text, end="")
    else:
        print(console_summary(manifest=manifest))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    import json

    from .validate import SUITES, run_suites

    suites = list(args.suite) if args.suite else list(SUITES)
    telemetry = Telemetry()
    with telemetry.span("cli.validate"):
        report = run_suites(
            suites=suites,
            seed=args.seed,
            time_scale=args.time_scale,
            telemetry=telemetry,
        )
    payload = report.to_dict()
    payload["metrics"] = telemetry.metrics.to_dict()
    payload["spans"] = telemetry.tracer.to_list()
    atomic_write_text(
        args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(report.render())
    print(f"  wrote {args.out}")
    return 0 if report.ok else EXIT_GATE_FAILURES


def _sweep_spec_from_args(args: argparse.Namespace):
    """A codecs SweepSpec from the explore flags (None = default axis)."""
    from .codecs import SweepSpec

    kwargs = {}
    if args.codecs:
        kwargs["codecs"] = tuple(
            token.strip() for token in args.codecs.split(",") if token.strip()
        )
    if args.points:
        points = []
        for token in args.points.split(","):
            token = token.strip()
            if not token:
                continue
            pmd, sep, soc = token.partition(":")
            try:
                if not sep:
                    raise ValueError(token)
                points.append((int(pmd), int(soc)))
            except ValueError:
                raise ConfigurationError(
                    f"malformed operating point {token!r}; --points wants "
                    f"PMD:SOC millivolt pairs like 980:950,930:925"
                ) from None
        kwargs["points"] = tuple(points)
    if args.workloads:
        kwargs["workloads"] = tuple(
            token.strip()
            for token in args.workloads.split(",")
            if token.strip()
        )
    if args.strikes is not None:
        kwargs["strikes"] = args.strikes
    if args.interleave is not None:
        kwargs["interleave"] = args.interleave
    if args.node:
        kwargs["nodes"] = tuple(
            token.strip() for token in args.node.split(",") if token.strip()
        )
    return SweepSpec(seed=args.seed, name=args.name or "", **kwargs)


def _explore_flags(args: argparse.Namespace) -> str:
    """The explore flags to repeat in a resume hint."""
    flags = ""
    for name in ("codecs", "points", "workloads", "node", "name"):
        value = getattr(args, name)
        if value:
            flags += f" --{name} {shlex.quote(value)}"
    for name in ("strikes", "interleave"):
        value = getattr(args, name)
        if value is not None:
            flags += f" --{name} {value}"
    flags += f" --seed {args.seed}"
    if args.workers > 1:
        flags += f" --workers {args.workers}"
    return flags


def _write_fit_cells(outdir: str, document: dict) -> str:
    """Flatten pareto.json's cells into fit_cells.csv; returns the path."""
    import os

    path = os.path.join(outdir, "fit_cells.csv")
    header = [
        "label",
        "codec",
        "pmd_mv",
        "soc_mv",
        "workload",
        "events",
        "fit_due",
        "fit_sdc",
        "fit_total",
        "fit_total_lower",
        "fit_total_upper",
        "silent_fraction",
        "area_gates",
        "energy_pj",
        "on_front",
    ]
    lines = [",".join(header)]
    for cell in document["cells"]:
        lines.append(
            ",".join(
                str(value)
                for value in (
                    cell["label"],
                    cell["codec"],
                    cell["pmd_mv"],
                    cell["soc_mv"],
                    cell["workload"],
                    cell["events"],
                    cell["fit_due"]["value"],
                    cell["fit_sdc"]["value"],
                    cell["fit_total"]["value"],
                    cell["fit_total"]["lower"],
                    cell["fit_total"]["upper"],
                    cell["silent_fraction"]["value"],
                    cell["cost"]["area_gates"],
                    cell["cost"]["energy_pj"],
                    int(cell["on_front"]),
                )
            )
        )
    return atomic_write_text(path, "\n".join(lines) + "\n")


def _cmd_explore(args: argparse.Namespace) -> int:
    import json
    import os
    import shutil

    from .codecs import assemble_pareto, plan_sweep
    from .engine.pool import WarmupSpec
    from .scheduler import Broker, DirectoryStore
    from .tech import DEFAULT_NODE

    spec = _sweep_spec_from_args(args)
    scheduler_dir = os.path.join(args.outdir, "scheduler")
    committed = (
        DirectoryStore(scheduler_dir).committed_units()
        if os.path.isdir(scheduler_dir)
        else []
    )
    if args.resume and not committed:
        print(
            f"error: no committed cells under {scheduler_dir!r} to resume "
            f"from (run without --resume first)",
            file=sys.stderr,
        )
        return 1
    if committed and not args.resume and not args.fresh:
        # Rerunning over a half-swept directory silently mixes two
        # sweeps' commits; make the operator choose, exactly like
        # `run` does for its checkpoint journal.
        print(
            f"error: {args.outdir!r} already holds {len(committed)} "
            f"committed sweep cell(s); resume the sweep with --resume, or "
            f"pass --fresh to discard the commits and start over",
            file=sys.stderr,
        )
        return 1
    if args.fresh:
        # The old sweep's artifacts must not survive beside a store of
        # the new one if this sweep is interrupted.
        if os.path.isdir(scheduler_dir):
            shutil.rmtree(scheduler_dir)
        for name in ("pareto.json", "fit_cells.csv"):
            path = os.path.join(args.outdir, name)
            if os.path.exists(path):
                os.remove(path)
    os.makedirs(scheduler_dir, exist_ok=True)
    # A fixed broker id: the next explore on OUTDIR owns whatever a
    # killed one left leased, and its newer fencing epoch supersedes the
    # dead process's, so --resume never waits out a stranded lease.
    broker = Broker(
        lease_ttl_s=3600.0,
        store=DirectoryStore(scheduler_dir),
        broker_id="explore",
    )
    plan = plan_sweep(spec)
    submission = broker.submit(plan)
    sid = submission.submission_id
    total = len(plan.units)
    recovered = total - broker.pending_count()
    # Every cell re-enters the same codecs; warming their tables once
    # per worker keeps the pool's reuse win honest.
    executor = SupervisedExecutor(
        workers=args.workers,
        warmup=WarmupSpec(codecs=tuple(spec.codecs)),
    )
    axes = (
        f"{len(spec.codecs)} codec(s) x {len(spec.points)} point(s) x "
        f"{len(spec.workloads)} workload(s)"
    )
    if spec.nodes != (DEFAULT_NODE,):
        axes += f" x {len(spec.nodes)} node(s)"
    print(
        f"exploring {total} cell(s): {axes}, "
        f"{spec.strikes} strikes/cell, executor={executor.name}, "
        f"submission {sid}"
    )
    if recovered:
        print(f"  recovered {recovered} committed cell(s) from {scheduler_dir}")
    done = recovered
    failed_cells = []

    def _progress(lease, report, payload) -> None:
        nonlocal done
        if payload is None:
            failed_cells.append(f"cell {lease.label}: {report.error}")
            return
        done += 1
        print(f"  {done}/{total} cell(s) committed")

    try:
        with _interruptible():
            # run_cell payloads are JSON-shaped; committing them
            # verbatim makes the store the checkpoint journal.
            broker.drain(
                executor, lambda lease, report, cell: cell, _progress
            )
    except CampaignInterrupted as exc:
        print(
            f"interrupted ({exc}); completed cells are committed under "
            f"{scheduler_dir} -- resume with:\n"
            f"  repro-campaign explore {shlex.quote(args.outdir)} --resume"
            f"{_explore_flags(args)}",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    finally:
        executor.close()
    if failed_cells:
        # The other cells are committed; --resume reruns only these.
        for line in failed_cells:
            print(f"error: {line}", file=sys.stderr)
        return 1
    document = assemble_pareto(spec, broker.entries_for(sid))
    pareto_path = atomic_write_text(
        os.path.join(args.outdir, "pareto.json"),
        json.dumps(document, indent=2, sort_keys=True) + "\n",
    )
    csv_path = _write_fit_cells(args.outdir, document)
    print(f"  wrote {pareto_path}")
    print(f"  wrote {csv_path}")
    front_codecs = sorted({c["codec"] for c in document["pareto"]})
    print(
        f"pareto front: {len(document['pareto'])} of "
        f"{len(document['cells'])} cell(s), codecs "
        f"{', '.join(front_codecs)}"
    )
    failed = [gate for gate in document["gates"] if not gate["ok"]]
    if failed:
        for gate in failed:
            print(
                f"gate FAILED: {gate['gate']}: {gate['detail']}",
                file=sys.stderr,
            )
        return EXIT_GATE_FAILURES
    return 0


def _spec_from_args(args: argparse.Namespace):
    """A CampaignSpec from --spec FILE or the loose submit flags."""
    from .scheduler import CampaignSpec

    if args.spec:
        with open(args.spec) as handle:
            return CampaignSpec.from_json(handle.read())
    return CampaignSpec(
        seed=args.seed,
        time_scale=args.time_scale,
        priority=args.priority,
        max_workers=args.max_workers,
        tech_node=args.tech_node,
        name=args.name or "",
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import CampaignService, ServiceConfig

    config = ServiceConfig(
        root=args.root,
        workers=args.workers,
        capacity=args.capacity,
        lease_ttl_s=args.lease_ttl,
        poll_s=args.poll,
        http_port=args.http,
        idle_exit_s=args.idle_exit,
        broker_id=args.broker_id,
        timeout_s=args.timeout,
        retries=args.retries,
        validate=args.validate,
        store_chaos=args.store_chaos,
    )
    service = CampaignService(config, telemetry=Telemetry())
    where = (
        f", http on 127.0.0.1:{args.http}" if args.http is not None else ""
    )
    print(
        f"serving campaigns from {args.root} "
        f"(broker {service.broker_id}, {args.workers} worker(s), "
        f"capacity {args.capacity}{where})"
    )
    return service.serve()


def _http_submit(url: str, spec) -> int:
    """POST a spec to a live service; the HTTP road to exit 5."""
    import json
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        url.rstrip("/") + "/submit",
        data=spec.to_json().encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            payload = json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace").strip()
        if exc.code == 503:
            raise SchedulerBusy(
                f"service at {url} refused the submission (queue full): "
                f"{detail}"
            ) from exc
        print(f"error: service returned {exc.code}: {detail}", file=sys.stderr)
        return 1
    except urllib.error.URLError as exc:
        print(f"error: cannot reach service at {url}: {exc}", file=sys.stderr)
        return 1
    deduped = " (deduplicated: already queued)" if payload.get("deduped") else ""
    print(f"submitted {payload['submission_id']}{deduped}")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json
    import os
    import time

    from .service import check_backpressure, jobs_dir, results_dir

    spec = _spec_from_args(args)
    if args.url:
        status = _http_submit(args.url, spec)
        if status != 0:
            return status
        sid = spec.submission_id
    else:
        # File-based: the queue bound is enforced against the live
        # broker's status snapshot, then the job is dropped atomically
        # into ROOT/jobs for the watcher.
        check_backpressure(args.root, incoming_units=4)
        sid = spec.submission_id
        jobs = jobs_dir(args.root)
        os.makedirs(jobs, exist_ok=True)
        path = atomic_write_text(
            os.path.join(jobs, f"job-{sid}.json"), spec.to_json()
        )
        print(f"submitted {sid} ({path})")
    outdir = results_dir(args.root, sid)
    print(f"  results will land in {outdir}")
    if args.wait is None:
        return 0
    deadline = time.monotonic() + args.wait if args.wait > 0 else None
    # failures.json is the service's last assembly write: once it
    # exists, every other artifact of the submission is on disk.
    failures_path = os.path.join(outdir, "failures.json")
    while not os.path.exists(failures_path):
        if deadline is not None and time.monotonic() > deadline:
            print(
                f"error: timed out after {args.wait}s waiting for {sid} "
                f"(is a `repro-campaign serve {args.root}` running?)",
                file=sys.stderr,
            )
            return 1
        time.sleep(0.2)
    try:
        with open(failures_path) as handle:
            ok = bool(json.load(handle).get("ok", True))
    except (OSError, ValueError, AttributeError) as exc:
        print(f"error: cannot read {failures_path}: {exc}", file=sys.stderr)
        return 1
    campaign_path = os.path.join(outdir, "campaign.json")
    print(f"  {sid} complete ({campaign_path})")
    return 0 if ok else EXIT_STRICT_FAILURES


def _cmd_status(args: argparse.Namespace) -> int:
    import json
    import time

    from .service import status_path

    try:
        with open(status_path(args.root)) as handle:
            status = json.load(handle)
    except FileNotFoundError:
        print(
            f"error: no status snapshot under {args.root!r} "
            f"(start one with `repro-campaign serve {args.root}`)",
            file=sys.stderr,
        )
        return 1
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    age = time.time() - status.get("updated_unix", 0)
    print(
        f"broker {status.get('broker')} [{status.get('state')}] -- "
        f"{status.get('queued_units')} queued, "
        f"{status.get('inflight_units')} in flight, "
        f"capacity {status.get('capacity')}, "
        f"updated {age:.0f}s ago"
    )
    store = status.get("store")
    if isinstance(store, dict):
        epochs = ", ".join(
            f"{broker}={epoch}"
            for broker, epoch in sorted(
                (store.get("epochs") or {}).items()
            )
        )
        print(
            f"store: epochs [{epochs or 'none'}], "
            f"{store.get('quarantined', 0)} quarantined, "
            f"{store.get('retries', 0)} retried I/O op(s), "
            f"{store.get('fenced', 0)} fenced write(s)"
        )
    table = Table(
        title="Submissions",
        header=["Submission", "Name", "Priority", "Units", "State"],
    )
    for sub in status.get("submissions", []):
        units = sub.get("units", {})
        total = sum(units.values())
        done = units.get("done", 0)
        if sub.get("cancelled"):
            state = "cancelled"
        elif done == total and total:
            state = "complete"
        elif units.get("failed"):
            state = "failed"
        else:
            state = "running"
        table.add_row(
            sub.get("submission_id"),
            sub.get("name"),
            sub.get("priority"),
            f"{done}/{total}",
            state,
        )
    print(table.render())
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    import json
    import os

    from .service import jobs_dir

    if args.url:
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            args.url.rstrip("/") + "/cancel",
            data=json.dumps({"submission_id": args.submission}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace").strip()
            print(
                f"error: cancel failed ({exc.code}): {detail}",
                file=sys.stderr,
            )
            return 1
        print(
            f"cancelled {args.submission} "
            f"({payload.get('dropped', 0)} queued unit(s) dropped)"
        )
        return 0
    jobs = jobs_dir(args.root)
    os.makedirs(jobs, exist_ok=True)
    path = atomic_write_text(
        os.path.join(jobs, f"cancel-{args.submission}-{os.getpid()}.json"),
        json.dumps({"cancel": args.submission}) + "\n",
    )
    print(f"cancel requested for {args.submission} ({path})")
    return 0


def _cmd_quarantine(args: argparse.Namespace) -> int:
    import json
    import os

    from .scheduler import DirectoryStore
    from .service import scheduler_dir

    state = scheduler_dir(args.root)
    if not os.path.isdir(state):
        print(
            f"error: no scheduler state under {args.root!r} "
            f"(expected {state}; point me at a serve root or an "
            f"explore outdir)",
            file=sys.stderr,
        )
        return 1
    store = DirectoryStore(state)
    if args.requeue:
        records = store.requeue_quarantined()
        verb = "requeued"
    else:
        records = store.quarantined_units()
        verb = "quarantined"
    if args.json:
        print(json.dumps(records, indent=2, sort_keys=True))
        return 0
    if not records:
        print(f"0 unit(s) {verb}")
        return 0
    table = Table(
        title=f"{len(records)} unit(s) {verb}",
        header=["Unit", "Reason", "Detail"],
    )
    for record in records:
        table.add_row(
            record.get("unit_id"),
            record.get("reason"),
            record.get("detail"),
        )
    print(table.render())
    if args.requeue:
        print(
            "requeued units will replan and recommit on the next "
            "run/serve/explore over this root"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-campaign`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Run, persist and analyze simulated beam campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="fly a campaign and persist it")
    run.add_argument("outdir")
    run.add_argument("--seed", type=int, default=2023)
    run.add_argument("--time-scale", type=float, default=0.2)
    run.add_argument(
        "--node",
        default=None,
        metavar="NODE",
        help="registered technology node to fly on (scales the Table 2 "
        "operating points onto the node's grid; default: the 28 nm "
        "X-Gene 2)",
    )
    run.add_argument(
        "--workers",
        type=worker_count,
        default=0,
        help="sessions to fly concurrently (0/1 = serial)",
    )
    run.add_argument(
        "--telemetry",
        action="store_true",
        help="record metrics/spans into manifest.json and print a summary",
    )
    journal_mode = run.add_mutually_exclusive_group()
    journal_mode.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted run from OUTDIR's checkpoint journal",
    )
    journal_mode.add_argument(
        "--fresh",
        action="store_true",
        help="discard OUTDIR's existing checkpoint journal and start "
        "over (without this, rerunning a journaled OUTDIR is refused)",
    )
    run.add_argument(
        "--strict",
        action="store_true",
        help="exit 3 (with a failure table) if any work unit was "
        "quarantined",
    )
    run.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-unit response timeout in seconds (default: none)",
    )
    run.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="retries per unit for transient failures (default: 2)",
    )
    run.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="inject deterministic faults into the harness: inline JSON "
        "or a path to a JSON chaos spec (self-test/CI only)",
    )
    run.set_defaults(func=_cmd_run)

    analyze = sub.add_parser("analyze", help="print an analysis artifact")
    analyze.add_argument("outdir")
    analyze.add_argument(
        "--artifact",
        default="summary",
        help="summary | table2 | fig8 | fig11",
    )
    analyze.set_defaults(func=_cmd_analyze)

    export = sub.add_parser("export", help="write analysis tables as CSV")
    export.add_argument("outdir")
    export.set_defaults(func=_cmd_export)

    report = sub.add_parser("report", help="write the markdown report")
    report.add_argument("outdir")
    report.set_defaults(func=_cmd_report)

    stats = sub.add_parser(
        "stats", help="render a stored run's manifest and telemetry"
    )
    stats.add_argument("outdir")
    stats.add_argument(
        "--format",
        default="console",
        choices=["console", "json", "prometheus"],
        help="output format (default: console)",
    )
    stats.set_defaults(func=_cmd_stats)

    validate = sub.add_parser(
        "validate",
        help="run the paper-conformance, differential and statistical "
        "gates (exit 4 on any failed gate)",
    )
    validate.add_argument(
        "--suite",
        action="append",
        choices=["conformance", "differential", "statistical"],
        help="suite to run (repeatable; default: all three)",
    )
    validate.add_argument("--seed", type=int, default=2023)
    validate.add_argument("--time-scale", type=float, default=0.2)
    validate.add_argument(
        "--out",
        default="conformance.json",
        metavar="FILE",
        help="where to write the JSON gate report "
        "(default: conformance.json)",
    )
    validate.set_defaults(func=_cmd_validate)

    explore = sub.add_parser(
        "explore",
        help="run a codec x voltage x workload design-space sweep "
        "through the scheduler broker (resumable; exit 4 on failed "
        "consistency gates)",
    )
    explore.add_argument("outdir")
    explore.add_argument(
        "--codecs",
        default=None,
        metavar="LIST",
        help="comma-separated registered codec names "
        "(default: parity,secded,dected,sec-daec,bch-t2)",
    )
    explore.add_argument(
        "--points",
        default=None,
        metavar="LIST",
        help="comma-separated PMD:SOC millivolt pairs "
        "(default: 980:950,930:925,920:920,790:950)",
    )
    explore.add_argument(
        "--workloads",
        default=None,
        metavar="LIST",
        help="comma-separated NPB workload names (default: CG,FT,EP)",
    )
    explore.add_argument(
        "--strikes",
        type=int,
        default=None,
        metavar="N",
        help="particle strikes per cell (default: 2000)",
    )
    explore.add_argument("--seed", type=int, default=2023)
    explore.add_argument(
        "--interleave",
        type=int,
        default=None,
        metavar="N",
        help="physical bit interleaving degree: an MBU cluster of size "
        "s lands as ceil(s/N) adjacent flips per word (default: 1)",
    )
    explore.add_argument(
        "--node",
        default=None,
        metavar="LIST",
        help="comma-separated registered technology-node names to sweep "
        "(e.g. xgene2-28,7nm); --points are 28 nm reference voltages, "
        "scaled onto each node's grid (default: xgene2-28 only)",
    )
    explore.add_argument("--name", default=None, help="display name")
    explore.add_argument(
        "--workers",
        type=worker_count,
        default=0,
        help="cells to run concurrently (0/1 = serial; pareto.json is "
        "byte-identical either way)",
    )
    explore_mode = explore.add_mutually_exclusive_group()
    explore_mode.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted sweep from OUTDIR's committed cells",
    )
    explore_mode.add_argument(
        "--fresh",
        action="store_true",
        help="discard OUTDIR's committed cells and start over (without "
        "this, rerunning a half-swept OUTDIR is refused)",
    )
    explore.set_defaults(func=_cmd_explore)

    serve = sub.add_parser(
        "serve",
        help="run a campaign service: watch ROOT/jobs, lease work to a "
        "supervised pool, assemble results under ROOT/results",
    )
    serve.add_argument("root")
    serve.add_argument(
        "--workers",
        type=worker_count,
        default=2,
        help="supervised worker processes per batch (default: 2)",
    )
    serve.add_argument(
        "--capacity",
        type=int,
        default=64,
        help="bounded queue size in work units; full-queue submissions "
        "are refused with SchedulerBusy (default: 64)",
    )
    serve.add_argument(
        "--lease-ttl",
        type=float,
        default=15.0,
        metavar="S",
        help="seconds a lease survives without a heartbeat; a killed "
        "worker's units are re-leased after this (default: 15)",
    )
    serve.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="S",
        help="job-directory poll interval in seconds (default: 0.5)",
    )
    serve.add_argument(
        "--http",
        type=int,
        default=None,
        metavar="PORT",
        help="also listen on 127.0.0.1:PORT "
        "(GET /status /metrics, POST /submit /cancel)",
    )
    serve.add_argument(
        "--idle-exit",
        type=float,
        default=None,
        metavar="S",
        help="exit 0 after S seconds with no queued, in-flight or "
        "dropped work (for batch jobs and CI)",
    )
    serve.add_argument(
        "--broker-id",
        default=None,
        help="stable broker identity for leases and the scheduling "
        "journal (default: broker-<pid>)",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-unit response timeout in seconds (default: none)",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="retries per unit for transient failures (default: 2)",
    )
    serve.add_argument(
        "--validate",
        action="store_true",
        help="run the post-job gates on every assembled submission "
        "(validation.json next to campaign.json; verdict in "
        "status.json)",
    )
    serve.add_argument(
        "--store-chaos",
        default=None,
        metavar="SPEC",
        help="inject deterministic faults into the shared store: inline "
        "JSON or a path to a store-chaos spec (torn_write, "
        "corrupt_commit, duplicate_link, stale_read, transient_errno "
        "op-index lists; self-test/CI only)",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit a campaign spec to a service root (exit 5 when the "
        "queue is full)",
        description="Queue one campaign spec. Every campaign flies Table "
        "2's session plans at their own flux through the vectorized "
        "injector.",
    )
    submit.add_argument("root")
    submit.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="campaign spec JSON file (overrides the loose flags)",
    )
    submit.add_argument("--seed", type=int, default=2023)
    submit.add_argument("--time-scale", type=float, default=0.2)
    submit.add_argument(
        "--priority",
        type=int,
        default=0,
        help="broker queueing priority; higher leases first (default: 0)",
    )
    submit.add_argument(
        "--max-workers",
        type=int,
        default=None,
        metavar="N",
        help="cap how many pool workers this submission may occupy at "
        "once, so one huge sweep cannot starve the queue (default: "
        "no cap)",
    )
    submit.add_argument(
        "--tech-node",
        default=None,
        metavar="NODE",
        help="registered technology node to fly the campaign on "
        "(part of the physics, so it folds into the submission id; "
        "default: the 28 nm X-Gene 2)",
    )
    submit.add_argument("--name", default=None, help="display name")
    submit.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="submit over HTTP to a serving broker (e.g. "
        "http://127.0.0.1:8642) instead of the job directory",
    )
    submit.add_argument(
        "--wait",
        type=float,
        nargs="?",
        const=0.0,
        default=None,
        metavar="S",
        help="block until the submission is fully assembled, i.e. its "
        "failures.json lands (optionally at most S seconds); exits 3 if "
        "a unit failed, 1 on timeout or an unreadable failures.json",
    )
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser(
        "status", help="show a service root's broker status"
    )
    status.add_argument("root")
    status.add_argument(
        "--json", action="store_true", help="print the raw status snapshot"
    )
    status.set_defaults(func=_cmd_status)

    cancel = sub.add_parser(
        "cancel", help="cancel a queued submission on a service root"
    )
    cancel.add_argument("root")
    cancel.add_argument("submission", help="submission id (sub-...)")
    cancel.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="cancel over HTTP instead of the job directory",
    )
    cancel.set_defaults(func=_cmd_cancel)

    quarantine = sub.add_parser(
        "quarantine",
        help="list (or requeue) a root's quarantined work units",
    )
    quarantine.add_argument(
        "root", help="a serve root or explore outdir holding scheduler state"
    )
    quarantine.add_argument(
        "--requeue",
        action="store_true",
        help="clear the quarantine records so the units replan and "
        "recommit on the next run over this root",
    )
    quarantine.add_argument(
        "--json",
        action="store_true",
        help="print the raw reason records",
    )
    quarantine.set_defaults(func=_cmd_quarantine)
    return parser


def main(argv=None) -> int:
    """Console-script entry point.

    Library errors (missing/corrupt results directories, bad
    configurations) exit nonzero with a one-line message instead of a
    traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchedulerBusy as exc:
        print(f"busy: {exc}", file=sys.stderr)
        return EXIT_SCHEDULER_BUSY
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        # Corrupt on-disk artifacts surface as JSON/lookup errors.
        print(f"error: corrupt results data: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - module CLI
    sys.exit(main())
