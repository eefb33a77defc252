"""Output checks, the determinism ledger, and operation accounting.

Everything here runs after the timed section.  The program's own
verifiers are imported lazily from the checkout's ``src`` (the caller
puts it on ``sys.path``): ``repro.validate.postjob`` judges every
``campaign.json`` and ``repro.scheduler.DirectoryStore`` counts
quarantined units.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, List, Optional


class Tally:
    """Operations attempted and failed, and the output checks of one run.

    An operation is one job: a CLI invocation, or one submission to the
    service.  It fails when it exits non-zero, is refused, times out, or
    when any output check charged to it fails.  ``correct`` is False as
    soon as any output check fails.
    """

    def __init__(self) -> None:
        self.ops: Dict[str, bool] = {}
        self.checks: List[dict] = []

    def op(self, op_id: str, ok: bool = True) -> None:
        self.ops[op_id] = self.ops.get(op_id, True) and bool(ok)

    def check(self, name: str, ok: bool, detail: str = "", op: Optional[str] = None) -> bool:
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        if op is not None:
            self.op(op, ok)
        return bool(ok)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for ok in self.ops.values() if not ok)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return all(c["ok"] for c in self.checks)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def source_fingerprint(src_dir: str) -> str:
    """Hash of the program's sources: ledgers never compare across code."""
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(src_dir)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


class Ledger:
    """Output digests per (program sources, workload, seed), kept across runs.

    The determinism contract: at one seed every output is byte-identical
    across the runs of a set.  Each run compares its digests with those
    earlier runs of the same code and seed recorded, then adds its own.
    """

    def __init__(self, folder: str, fingerprint: str, workload: str, seed: int) -> None:
        os.makedirs(folder, exist_ok=True)
        self.path = os.path.join(folder, f"{fingerprint}-{workload}-{seed}.json")
        try:
            with open(self.path) as handle:
                self.known = json.load(handle)
        except (OSError, ValueError):
            self.known = {}

    def compare(self, digests: Dict[str, str]) -> List[str]:
        """Names whose digest differs from an earlier run's."""
        return sorted(
            name for name, value in digests.items()
            if self.known.get(name, value) != value
        )

    def save(self, digests: Dict[str, str]) -> None:
        merged = dict(self.known)
        for name, value in digests.items():
            merged.setdefault(name, value)
        tmp = f"{self.path}.tmp-{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(merged, handle, sort_keys=True)
        os.replace(tmp, self.path)


def load_json(path: str):
    with open(path) as handle:
        return json.load(handle)


def beam_minutes(campaign: dict) -> float:
    """Simulated beam time flown: the sessions' exposure, in minutes."""
    return sum(
        s["fluence"]["exposure_seconds"] for s in campaign["sessions"].values()
    ) / 60.0


def benchmark_runs(campaign: dict) -> int:
    """Benchmark runs recorded across the campaign's sessions."""
    return sum(len(s["runs"]) for s in campaign["sessions"].values())


def postjob_ok(campaign: dict) -> tuple:
    """``repro.validate.postjob`` verdict: (ok, names of failed gates)."""
    from repro.validate.postjob import postjob_report

    report = postjob_report(campaign)
    failed = [g.get("gate", "?") for g in report["gates"] if not g.get("ok")]
    return bool(report["ok"]), failed


def quarantined(scheduler_dirs: Iterable[str]) -> int:
    """Units the store quarantined under each scheduler directory."""
    from repro.scheduler import DirectoryStore

    return sum(
        len(DirectoryStore(path).quarantined_units())
        for path in scheduler_dirs
        if os.path.isdir(path)
    )


def sweep_beam_minutes(pareto: dict) -> float:
    """Beam time a sweep's strike batches stand for, in minutes.

    The explorer scales each cell's FIT as if its ``events`` had been
    observed at the cell's surfaced L3 upset rate under the beam; the
    beam time behind that is ``events / rate``.  Summed over cells it
    puts the sweep's work in the same currency as a campaign's.
    """
    from repro.injection.calibration import LevelRateModel
    from repro.soc.geometry import CacheLevel
    from repro.tech import get_node
    from repro.workloads.profiles import PROFILES

    minutes = 0.0
    for cell in pareto["cells"]:
        rates = LevelRateModel.for_node(get_node(cell.get("node", "xgene2-28")))
        pmd, soc = float(cell["pmd_mv"]), float(cell["soc_mv"])
        raw = rates.rate_per_min(CacheLevel.L3, True, pmd, soc) + rates.rate_per_min(
            CacheLevel.L3, False, pmd, soc
        )
        surfaced = raw * PROFILES[cell["workload"]].detection_efficiency("L3 Cache")
        minutes += cell["events"] / surfaced
    return minutes
