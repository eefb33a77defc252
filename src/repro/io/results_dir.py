"""On-disk results directory: campaign JSON + one CSV per artifact.

``ResultsDirectory`` gives the reproduction the same artifact layout a
real campaign leaves behind: the raw data (``campaign.json``), the run
bookkeeping (``manifest.json``, ``failures.json``), the run's
checkpoints (``scheduler/``), the regenerated tables (``table2.csv``
... ``fig13.csv``), and the session logcaptures (``<label>.dmesg``).
"""

from __future__ import annotations

import contextlib
import os
import shutil
from typing import Dict, Iterable

from ..core.report import Table
from ..errors import AnalysisError, ReproIOError
from ..harness.campaign import CampaignResult
from ..telemetry import RunManifest
from .atomic import atomic_write_json, atomic_write_text
from .json_store import load_campaign, save_campaign


class ResultsDirectory:
    """Manages one campaign's artifacts under a directory.

    Parameters
    ----------
    root:
        Directory path.  Created on first write.
    """

    CAMPAIGN_FILE = "campaign.json"
    MANIFEST_FILE = "manifest.json"
    FAILURES_FILE = "failures.json"
    SCHEDULER_DIR = "scheduler"
    #: The checkpoint journal ``run`` kept before it checkpointed into
    #: ``scheduler/``; refused, never read.
    LEGACY_JOURNAL_FILE = "journal.jsonl"

    def __init__(self, root: str) -> None:
        self.root = root

    def _path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def _ensure_root(self) -> None:
        os.makedirs(self.root, exist_ok=True)

    # -- resilient-run artifacts -----------------------------------------------

    def scheduler_dir(self) -> str:
        """The run's checkpoint store (a ``DirectoryStore`` root)."""
        return self._path(self.SCHEDULER_DIR)

    def has_checkpoints(self) -> bool:
        """True if a run left scheduler state here (it can be resumed)."""
        return os.path.isdir(self.scheduler_dir())

    def refuse_legacy_journal(self) -> None:
        """Raise :class:`ReproIOError` if a pre-store journal is here."""
        if os.path.exists(self._path(self.LEGACY_JOURNAL_FILE)):
            raise ReproIOError(
                f"{self.root!r} holds {self.LEGACY_JOURNAL_FILE}, the "
                f"checkpoint format from before runs checkpointed into "
                f"{self.SCHEDULER_DIR}/; it can be neither resumed nor "
                f"checked -- start afresh with --fresh, which removes it"
            )

    def failures_path(self) -> str:
        """Path of the per-unit failure report of the last run."""
        return self._path(self.FAILURES_FILE)

    def discard_run(self, labels: Iterable[str]) -> None:
        """Remove what a run writes: checkpoints, JSON files, .dmesg logs."""
        if self.has_checkpoints():
            shutil.rmtree(self.scheduler_dir())
        names = [
            self.CAMPAIGN_FILE,
            self.FAILURES_FILE,
            self.MANIFEST_FILE,
            self.LEGACY_JOURNAL_FILE,
        ]
        for name in names + [f"{label}.dmesg" for label in labels]:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self._path(name))

    # -- campaign data ---------------------------------------------------------

    def save_campaign(self, campaign: CampaignResult) -> str:
        """Persist the raw campaign; returns the JSON path."""
        self._ensure_root()
        path = self._path(self.CAMPAIGN_FILE)
        save_campaign(campaign, path)
        return path

    def save_campaign_dict(self, data: dict) -> str:
        """Persist an already-encoded campaign dict; returns the JSON path.

        ``run`` and ``serve`` write ``campaign.json`` this way, from the
        unit payloads they assembled, avoiding a decode/re-encode round
        trip that could perturb floating-point text.
        """
        self._ensure_root()
        return atomic_write_json(self._path(self.CAMPAIGN_FILE), data)

    def load_campaign(self) -> CampaignResult:
        """Reload the raw campaign."""
        path = self._path(self.CAMPAIGN_FILE)
        if not os.path.exists(path):
            raise AnalysisError(f"no campaign stored under {self.root!r}")
        return load_campaign(path)

    # -- run manifest ----------------------------------------------------------

    def save_manifest(self, manifest: RunManifest) -> str:
        """Persist the run manifest; returns the JSON path."""
        self._ensure_root()
        return atomic_write_text(
            self._path(self.MANIFEST_FILE), manifest.to_json()
        )

    def load_manifest(self) -> RunManifest:
        """Reload the run manifest."""
        path = self._path(self.MANIFEST_FILE)
        if not os.path.exists(path):
            raise AnalysisError(
                f"no run manifest stored under {self.root!r} "
                f"(fly one with 'repro-campaign run')"
            )
        with open(path) as handle:
            return RunManifest.from_json(handle.read())

    # -- tables ------------------------------------------------------------------

    def save_table(self, name: str, table: Table) -> str:
        """Persist one regenerated table as CSV; returns the path."""
        self._ensure_root()
        return atomic_write_text(self._path(f"{name}.csv"), table.to_csv())

    # -- logs ----------------------------------------------------------------------

    def save_dmesg(self, campaign_dict: dict) -> Dict[str, str]:
        """Write each session's ``edac_dmesg`` as ``<label>.dmesg``.

        *campaign_dict* is what ``campaign.json`` holds, so both come
        from the same rendered dict.  Returns ``{label: path}``.
        """
        self._ensure_root()
        return {
            label: atomic_write_text(
                self._path(f"{label}.dmesg"), session["edac_dmesg"]
            )
            for label, session in campaign_dict["sessions"].items()
        }
