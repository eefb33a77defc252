"""On-disk results directory: campaign JSON + one CSV per artifact.

``ResultsDirectory`` gives the reproduction the same artifact layout a
real campaign leaves behind: the raw data (``campaign.json``), the run
bookkeeping (``manifest.json``), the regenerated tables (``table2.csv``
... ``fig13.csv``), and the session logcaptures (``<label>.dmesg``).
"""

from __future__ import annotations

import contextlib
import os
from typing import Dict, Iterable

from ..core.report import Table
from ..errors import AnalysisError
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
    JOURNAL_FILE = "journal.jsonl"
    FAILURES_FILE = "failures.json"

    def __init__(self, root: str) -> None:
        self.root = root

    def _path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def _ensure_root(self) -> None:
        os.makedirs(self.root, exist_ok=True)

    # -- resilient-run artifacts -----------------------------------------------

    def journal_path(self, ensure_root: bool = False) -> str:
        """Path of the checkpoint journal (see :mod:`repro.resilient`)."""
        if ensure_root:
            self._ensure_root()
        return self._path(self.JOURNAL_FILE)

    def has_journal(self) -> bool:
        """True if a checkpoint journal exists (a run can be resumed)."""
        return os.path.exists(self._path(self.JOURNAL_FILE))

    def failures_path(self) -> str:
        """Path of the per-unit failure report of the last run."""
        return self._path(self.FAILURES_FILE)

    def discard_run(self, labels: Iterable[str]) -> None:
        """Remove what a run writes: its JSON files and each label's .dmesg."""
        names = [self.CAMPAIGN_FILE, self.FAILURES_FILE, self.MANIFEST_FILE]
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
        from the same payload bytes.  Returns ``{label: path}``.
        """
        self._ensure_root()
        return {
            label: atomic_write_text(
                self._path(f"{label}.dmesg"), session["edac_dmesg"]
            )
            for label, session in campaign_dict["sessions"].items()
        }
