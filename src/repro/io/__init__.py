"""Persistence: save and reload campaign results.

Beam time is the scarcest resource in a radiation study; the authors
analyzed their console captures long after leaving TRIUMF.  This
subpackage gives the reproduction the same workflow: serialize a
:class:`~repro.harness.campaign.CampaignResult` to JSON right after the
(simulated) campaign, then run any analysis later without re-flying it.

* :mod:`repro.io.atomic` -- crash-safe primitives: every artifact is
  written via temp-file + :func:`os.replace` (a kill mid-write leaves
  the old file, never torn JSON), with a salvage reader for the rest.
* :mod:`repro.io.json_store` -- lossless JSON encoding of sessions,
  events, EDAC records and fluence accounts.
* :mod:`repro.io.results_dir` -- an on-disk results directory: the
  campaign JSON plus one CSV per regenerated table/figure, the run
  manifest, and where a run keeps its checkpoint store.
"""

from .atomic import (
    atomic_write_json,
    atomic_write_text,
    fsync_directory,
    read_json_or_default,
)
from .json_store import (
    campaign_to_dict,
    campaign_from_dict,
    save_campaign,
    load_campaign,
)
from .results_dir import ResultsDirectory

__all__ = [
    "atomic_write_json",
    "atomic_write_text",
    "fsync_directory",
    "read_json_or_default",
    "campaign_to_dict",
    "campaign_from_dict",
    "save_campaign",
    "load_campaign",
    "ResultsDirectory",
]
