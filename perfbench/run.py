"""End-to-end benchmark of the campaign CLI and service, with a traced layer breakdown.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign|explore|serve --seed N \\
        --seconds S --trace 0|1

The program is run from ``src/`` exactly as a user runs it: through
``repro-campaign`` (``repro.cli.main``, started by ``launch.py``) and,
for ``serve``, over the service's HTTP endpoint.  The program sees only
the generated CLI arguments and campaign specs; the workload seed ``N``
is recorded with the results and every served job's seed is derived
from it.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads (one generating process, at most ``nproc`` = 2 workers,
threads or connections each, beside the meter's probe on each vCPU,
which sleeps 99% of the time):

``campaign``
    ``repro-campaign run OUTDIR --seed N --time-scale 1.0``, serial.  The
    paper's full Table 2 campaign: ~72k benchmark runs through the
    per-run physics loop, which is most of its time, plus the journal,
    the decode and a 9 MB ``campaign.json``.  The physics loop (ROADMAP
    item 1) is measured here.
``explore``
    ``repro-campaign explore OUTDIR --seed N --strikes 20000 --node
    xgene2-28,7nm``, serial: 120 cells (5 codecs x 4 points x 3
    workloads x 2 nodes), each committed through the checksummed
    ``DirectoryStore``.  The ``codecs`` layer does ~90% of the job and
    the session physics loop none, so a physics change must show no
    change here.
``serve``
    ``repro-campaign serve ROOT --workers 2 --http PORT`` under a closed
    loop: two clients each POST a small ``CampaignSpec`` (seed derived
    from N, time scale 0.002-0.005) to ``/submit`` and wait for
    ``results/<sid>/failures.json`` before sending the next; 100 jobs per
    8 s of ``--seconds``, at least 100.  Many short sessions and small
    store commits and assemblies instead of one long session and one big
    document: a batching or persistence change that helps long segments
    but slows small ones shows here.

A CLI run repeats its job (identical at one seed), at least twice, and
starts the next only while the last says it will end within
``--seconds``.

End-to-end metrics (untraced runs; every workload reports every one).
Timings are reported at the host's uncontended speed: each wall time is
divided by the slowdown that other tenants of the shared host caused on
the vCPUs where the program ran, as ``meter.py`` measures it with a
probe pinned to each vCPU.  On a shared 2-vCPU Intel Xeon VM that
slowdown reached 2x for minutes at a time, and raw wall times of
identical runs spread by 17-31% over ten runs; divided by it, they
spread by 3-9% (the served p90 by 5-12%).  The wall-clock value of
each metric is printed beside it and kept in the results file.

* ``setup_s`` -- launch to ready, median over the run's launches.  For
  the CLI workloads ready is ``repro.cli`` imported (every job's
  launch); for ``serve`` it is the service reporting ``serving`` with one
  untimed warm-up job assembled (three service starts).
* ``job_s`` -- end of set-up to the last output written, median over
  jobs; for ``serve``, first submit to last completion of the loop.
* ``beam_min_per_s`` -- simulated beam-minutes per host second: the
  sessions' exposure in the output ``campaign.json`` files over
  ``job_s``.  For ``explore`` it is the beam time the sweep's strike
  batches stand for under the explorer's own FIT scaling.
* ``job_latency_p50_s`` / ``job_latency_p90_s`` -- submit to complete
  results: for ``serve`` per served job (>= 100 per run, so p90 has ten
  samples beyond it); for the CLI workloads per job, launch to exit
  (a few a run, so p90 is the slowest job there).
* ``peak_rss_mb`` -- peak resident memory of the workload's process
  tree (the CLI process; the service and its pool workers).

``failed_frac`` is ``failed / attempted`` of the result line: jobs that
exited non-zero, were refused or timed out, quarantined units, failed
gates, and failed output checks.  It is 0 on a healthy run, so it rides
in ``attempted``/``failed`` instead of as a metric.

Per-layer metrics (``--trace 1``; see ``tracer.py``): the run repeats one
job untraced and one traced, and prints every metric below (0 where a
layer has no calls), each layer's ``self_s`` and share of ``job_s``,
and ``trace.overhead`` = traced ``job_s`` / untraced ``job_s`` - 1, both
at uncontended speed.

=========  ==============================================  =====================
layer      should move                                      exercised by
=========  ==============================================  =====================
harness    beam_min_per_s, job_s; job_latency_p50_s        campaign (serve: in
injection  (same as harness)                               untraced pool workers)
soc        (same as harness)                               explore: 0 calls
io         job_s, peak_rss_mb; job_latency_p50_s           campaign, serve
resilient  job_s                                           campaign only
scheduler  job_latency_p50_s, job_latency_p90_s; job_s     serve, explore
engine     job_latency_p50_s                               serve (pool)
service    job_latency_p50_s, job_latency_p90_s            serve only
codecs     job_s                                           explore only
=========  ==============================================  =====================

Output checks run after the timed section: ``postjob_report(...)["ok"]``
for every ``campaign.json``, ``ok`` in every ``failures.json``, every
``pareto.json`` gate, byte-identical outputs at one seed (within a run,
and across runs through a ledger under ``.bench_work/``), and in traced
runs the consistency of the traced counts with the outputs.

A later change that claims a gain must re-check it on a seed it was not
developed on (choosing-metrics section 6.3).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402
from meter import Meter  # noqa: E402
from stats import percentile, summarize  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

WORK = os.path.join(ROOT, ".bench_work")

#: Which timing samples each end-to-end metric is read from.
SAMPLES_OF = {
    "setup_s": "setup_s",
    "job_s": "job_s",
    "beam_min_per_s": "job_s",
    "job_latency_p50_s": "latency_s",
    "job_latency_p90_s": "latency_s",
    "peak_rss_mb": "rss_mb",
}

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "beam_min_per_s": "min/s",
    "job_latency_p50_s": "s",
    "job_latency_p90_s": "s",
    "peak_rss_mb": "MB",
}


def _check_cli(run, tally: checks.Tally, ledger: checks.Ledger) -> dict:
    """Checks of the campaign/explore jobs; returns facts for the metrics."""
    output = "campaign.json" if run.workload == "campaign" else "pareto.json"
    facts = {"quarantined": 0, "retries": 0}
    written = {}
    for index, job in enumerate(run.jobs):
        op = f"job-{index}"
        tally.op(op)
        tally.check(f"{op} exits 0", job.rc == 0, f"rc={job.rc}", op)
        path = os.path.join(job.outdir, output)
        if not tally.check(f"{op} wrote {output}", os.path.isfile(path), path, op):
            continue
        written[op] = (checks.sha256_file(path), path)
        if run.workload == "campaign":
            failures_path = os.path.join(job.outdir, "failures.json")
            if not tally.check(f"{op} wrote failures.json", os.path.isfile(failures_path), "", op):
                continue
            failures = checks.load_json(failures_path)
            bad = [u["key"] for u in failures["units"] if u["status"] != "ok"]
            facts["quarantined"] += len(bad)
            facts["retries"] += sum(u["retries"] for u in failures["units"])
            tally.check(f"{op} failures.json ok", failures["ok"] and not bad, str(bad), op)
        else:
            stuck = checks.quarantined([os.path.join(job.outdir, "scheduler")])
            facts["quarantined"] += stuck
            tally.check(f"{op} no quarantined cells", stuck == 0, str(stuck), op)
    if not written:
        return facts
    first, (reference, path) = next(iter(written.items()))
    for op, (digest, _) in written.items():
        tally.check(f"{op} {output} byte-identical to {first}'s", digest == reference, digest[:16], op)
    changed = ledger.compare({output: reference})
    tally.check(f"{output} matches earlier runs at this seed", not changed, str(changed))
    ledger.save({output: reference})
    document = checks.load_json(path)
    if run.workload == "campaign":
        ok, failed = checks.postjob_ok(document)
        facts["runs"] = checks.benchmark_runs(document)
        facts["beam_minutes"] = checks.beam_minutes(document)
    else:
        failed = [g["gate"] for g in document["gates"] if not g["ok"]]
        ok = document["ok"] and not failed
        facts["cells"] = len(document["cells"])
        facts["beam_minutes"] = checks.sweep_beam_minutes(document)
    tally.check(f"{output} gates pass", ok, ", ".join(failed[:5]))
    for op, (digest, _) in written.items():
        if digest == reference:
            tally.op(op, ok)  # identical bytes share the verdict
    return facts


def _check_serve(run, tally: checks.Tally, ledger: checks.Ledger) -> dict:
    facts = {"quarantined": 0, "retries": 0, "beam_minutes": 0.0}
    digests = {}
    for key, entry in sorted(run.served.items()):
        tally.op(key, entry["ok"])
        if not entry["ok"]:
            tally.check(f"{key} completed", False, f"seed={entry['seed']}", key)
            continue
        outdir = os.path.join(entry["root"], "results", entry["sid"])
        failures = checks.load_json(os.path.join(outdir, "failures.json"))
        tally.check(f"{key} failures.json ok", failures["ok"], str(failures.get("failed_units")), key)
        path = os.path.join(outdir, "campaign.json")
        document = checks.load_json(path)
        ok, failed = checks.postjob_ok(document)
        tally.check(f"{key} postjob gates pass", ok, ", ".join(failed[:5]), key)
        digest = checks.sha256_file(path)
        spec = f"seed={entry['seed']},time_scale={entry['time_scale']}"
        known = digests.setdefault(spec, digest)
        tally.check(f"{key} byte-identical across services", known == digest, digest[:16], key)
        if entry["job"] != "warmup" and key.startswith(f"s{len(run.services) - 1}/"):
            facts["beam_minutes"] += checks.beam_minutes(document)
    changed = ledger.compare(digests)
    tally.check("served campaign.json match earlier runs at this seed", not changed, str(changed[:5]))
    ledger.save(digests)
    for number, service in enumerate(run.services):
        tally.check(f"service {number} stopped with 0 or 143", service.rc in (0, 143), f"rc={service.rc}")
    stuck = checks.quarantined(os.path.join(s.outdir, "scheduler") for s in run.services)
    facts["quarantined"] = stuck
    tally.check("no quarantined units", stuck == 0, str(stuck))
    return facts


def samples(run, meter: Meter) -> tuple:
    """The timing samples behind the end-to-end metrics of an untraced run.

    Two dicts of the same samples: at the host's uncontended speed (each
    wall time over the slowdown the meter saw where the program ran; the
    metrics) and as the wall clock read them.  A failed served job enters
    both as the closed loop's limit.
    """
    timed = {"setup_s": [], "job_s": [], "latency_s": []}  # (span, placements) or None
    if run.workload == "serve":
        loaded = run.services[-1]
        timed["setup_s"] = [(s.setup_span, s.placements) for s in run.services if s.setup_span]
        timed["job_s"] = [(loaded.job_span, loaded.placements)]
        timed["latency_s"] = [
            ((sent, done), loaded.placements) if ok else None for sent, done, ok in run.loop.jobs
        ]
        rss = [s.rss_mb for s in run.services]
    else:
        done = [job for job in run.jobs if job.job_span is not None]
        timed["setup_s"] = [(job.setup_span, job.placements) for job in run.jobs if job.setup_span]
        timed["job_s"] = [(job.job_span, job.placements) for job in done]
        timed["latency_s"] = [(job.latency_span, job.placements) for job in done]
        rss = [job.rss_mb for job in done]
    uncontended, wall = {"rss_mb": rss}, {"rss_mb": rss}
    for name, entries in timed.items():
        wall[name], uncontended[name] = [], []
        for entry in entries:
            if entry is None:
                wall[name].append(run.loop.limit_s)
                uncontended[name].append(run.loop.limit_s)
                continue
            (start, end), placements = entry
            wall[name].append(end - start)
            uncontended[name].append((end - start) / meter.slowdown(placements, start, end))
    return uncontended, wall


def end_to_end(sampled: dict, beam_minutes: float) -> dict:
    """The end-to-end metric values from an untraced run's samples."""
    job_s = statistics.median(sampled["job_s"])
    return {
        "setup_s": statistics.median(sampled["setup_s"]),
        "job_s": job_s,
        "beam_min_per_s": beam_minutes / job_s,
        "job_latency_p50_s": statistics.median(sampled["latency_s"]),
        "job_latency_p90_s": percentile(sampled["latency_s"], 90),
        "peak_rss_mb": max(sampled["rss_mb"]),
    }


def per_layer(run, facts: dict, tally: checks.Tally, meter: Meter) -> dict:
    """Per-layer metric values of a traced run, with consistency checks.

    Shares are of the traced job's wall ``job_s``; ``trace.overhead``
    compares the two jobs at uncontended speed, since the host's slowdown
    can differ between them by more than the tracing costs.
    """
    pair = run.services if run.workload == "serve" else run.jobs
    untraced, traced = pair[0], pair[-1]
    values = tracer.layer_metrics(
        traced.trace, traced.job_s, untraced.job_s, facts["retries"], facts["quarantined"]
    )
    uncontended = [
        job.job_s / meter.slowdown(job.placements, *job.job_span) for job in (untraced, traced)
    ]
    values["trace.overhead"] = uncontended[1] / uncontended[0] - 1.0
    codec_calls = values["codecs.run_cell.calls"] + values["codecs.classify.calls"]
    physics_calls = values["harness.run_benchmark.calls"] + values["injection.expose.calls"]
    if run.workload == "campaign":
        tally.check(
            "traced run_benchmark calls == runs in campaign.json",
            values["harness.run_benchmark.calls"] == facts.get("runs"),
            f"{values['harness.run_benchmark.calls']} vs {facts.get('runs')}",
        )
    if run.workload == "explore":
        tally.check(
            "traced run_cell calls == cells",
            values["codecs.run_cell.calls"] == facts.get("cells"),
            f"{values['codecs.run_cell.calls']} vs {facts.get('cells')}",
        )
        tally.check("no harness/injection calls on explore", physics_calls == 0, str(physics_calls))
    else:
        tally.check(f"no codecs calls on {run.workload}", codec_calls == 0, str(codec_calls))
    values["_job_s"] = traced.job_s
    values["_untraced_job_s"] = untraced.job_s
    values["_uncontended_job_s"] = uncontended
    return values


def _print_layers(values: dict) -> None:
    job_s = values["_job_s"]
    untraced, traced = values["_uncontended_job_s"]
    print(f"traced job_s {job_s:.3f} s, untraced {values['_untraced_job_s']:.3f} s (wall); "
          f"at uncontended speed {traced:.3f} s and {untraced:.3f} s, "
          f"tracing overhead {values['trace.overhead']:+.1%}")
    print(f"{'layer':<10} {'self_s':>9} {'share':>7}")
    attributed = 0.0
    for layer in tracer.LAYERS:
        attributed += values[f"{layer}.self_s"]
        print(f"{layer:<10} {values[f'{layer}.self_s']:9.3f} {values[f'{layer}.share']:7.1%}")
    print(f"{'(other)':<10} {job_s - attributed:9.3f} {(job_s - attributed) / job_s:7.1%}"
          "   (threads overlap in serve: shares may sum past 100%)")
    tabled = {f"{layer}.{kind}" for layer in tracer.LAYERS for kind in ("self_s", "share")}
    for name, unit, _ in tracer.per_layer_spec():
        if name not in tabled:
            print(f"  {name:<36} {values[name]:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "cli.py")):
        print(f"error: no program under {src} (run from a repository checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    ctx = Context(ROOT, workdir, args.seed, args.seconds, bool(args.trace))
    layers = values = sampled = wall = wall_values = None
    try:
        meter = Meter(workdir)
        try:
            run = WORKLOADS[args.workload](ctx)
        finally:
            meter.stop()
        tally = checks.Tally()
        for error in run.errors:
            tally.check("run completed", False, error)
        ledger = checks.Ledger(
            os.path.join(WORK, "ledger"), checks.source_fingerprint(src), args.workload, args.seed
        )
        if run.workload == "serve":
            facts = _check_serve(run, tally, ledger)
        else:
            facts = _check_cli(run, tally, ledger)
        if args.trace:
            layers = per_layer(run, facts, tally, meter)
        else:
            sampled, wall = samples(run, meter)
            values = end_to_end(sampled, facts["beam_minutes"])
            wall_values = end_to_end(wall, facts["beam_minutes"])
    except (ValueError, KeyError, OSError, statistics.StatisticsError, TypeError) as exc:
        print(f"error: {args.workload} run produced no usable measurement: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "settings": run.settings,
        "samples": sampled,
        "wall_samples": wall,
        "wall_metrics": wall_values,
        "probe_fastest_s": meter.fastest,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed_frac,
        "failed_checks": [c for c in tally.checks if not c["ok"]],
        "checks": len(tally.checks),
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as handle:
        json.dump(dict(record, metrics=layers or values), handle, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  settings {json.dumps(run.settings)}")
    print(f"attempted {tally.attempted}  failed {tally.failed}  failed_frac {tally.failed_frac:.4f}  "
          f"checks {len(tally.checks)} ({len(record['failed_checks'])} failed)")
    for check in record["failed_checks"]:
        print(f"  FAILED {check['check']}: {check['detail']}")
    if layers is not None:
        _print_layers(layers)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in tracer.per_layer_spec()}
    else:
        print(f"  {'metric':<20} {'value':>12}        {'wall':>12}   "
              "samples (n, median, tail percentile)")
        for name, unit in END_TO_END.items():
            basis = SAMPLES_OF[name]
            print(f"  {name:<20} {values[name]:>12.4f} {unit:<6} {wall_values[name]:>12.4f}   "
                  f"{basis}: {json.dumps(summarize(sampled[basis]))}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
