"""Campaign specs: the submission currency of the broker and service.

A :class:`CampaignSpec` is everything a campaign's physics depends on
-- seed, time scale, technology node -- plus the scheduling attributes
the broker cares about (priority, a worker cap and a display name).
Every spec flies Table 2's session plans at their own flux through the
vectorized injector.  It is deliberately JSON-shaped: specs arrive as
job files dropped into a watched directory, as HTTP POST bodies, or are
built in-process, and all three roads lead to the same frozen
dataclass.

The spec's :meth:`config_hash` is *the* identity used everywhere:

* it equals :meth:`repro.harness.campaign.Campaign.config_hash` for the
  campaign the spec describes (the spec builds that exact campaign),
  so it also equals the hash recorded in ``manifest.json`` and the
  ``<hash12>`` prefix of every unit id a run commits;
* the broker dedupes submissions on it -- submitting the same physics
  twice yields the same submission, not twice the beam time;
* it names the submission (``sub-<hash12>``) and prefixes every
  planned unit's stable id.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from ..errors import SchedulerError

#: Keys a spec dict may carry; anything else is a typo we refuse to
#: silently drop (a misspelled "time_scale" would otherwise submit a
#: full-length campaign).
_SPEC_KEYS = frozenset(
    {
        "name",
        "seed",
        "time_scale",
        "vectorized",
        "priority",
        "max_workers",
        "tech_node",
    }
)


@dataclass(frozen=True)
class CampaignSpec:
    """One submittable campaign configuration.

    Attributes
    ----------
    seed / time_scale:
        The root seed and beam-time fraction
        :class:`~repro.harness.campaign.Campaign` flies; the spec always
        flies the Table 2 session plans.
    priority:
        Broker queueing priority (higher leases first; default 0).
        Scheduling only -- never part of the config hash, because it
        cannot change the physics.
    max_workers:
        Cap on how many pool workers this submission's leased batches
        may occupy at once (``None`` = no cap).  Scheduling only, like
        ``priority`` -- a quota cannot change the physics, so it never
        enters the config hash; one huge sweep throttled to 2 workers
        is the *same submission* as the unthrottled one.
    tech_node:
        Optional registered technology-node name.  Part of the physics
        (it moves every operating point and rate model), so it folds
        into the config hash -- but only when non-default: the 28 nm
        anchor ``"xgene2-28"`` hashes identically to an unset node, so
        pre-existing submissions and checkpoints keep their identities.
    name:
        Display name for status output; defaults to the submission id.
    """

    seed: int = 2023
    time_scale: float = 1.0
    priority: int = 0
    max_workers: Optional[int] = None
    tech_node: Optional[str] = None
    name: str = ""
    _config_hash: Optional[str] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise SchedulerError(f"spec seed must be an int, got {self.seed!r}")
        if not isinstance(self.time_scale, (int, float)) or isinstance(
            self.time_scale, bool
        ):
            raise SchedulerError(
                f"spec time_scale must be a number, got {self.time_scale!r}"
            )
        if self.time_scale <= 0:
            raise SchedulerError("spec time_scale must be positive")
        if not isinstance(self.priority, int) or isinstance(
            self.priority, bool
        ):
            raise SchedulerError(
                f"spec priority must be an int, got {self.priority!r}"
            )
        if self.max_workers is not None and (
            not isinstance(self.max_workers, int)
            or isinstance(self.max_workers, bool)
            or self.max_workers < 1
        ):
            raise SchedulerError(
                f"spec max_workers must be a positive int or null, "
                f"got {self.max_workers!r}"
            )
        if self.tech_node is not None:
            if not isinstance(self.tech_node, str) or not self.tech_node:
                raise SchedulerError(
                    f"spec tech_node must be a non-empty string or null, "
                    f"got {self.tech_node!r}"
                )
            from ..errors import TechError
            from ..tech import get_node

            try:
                canonical = get_node(self.tech_node).name
            except TechError as exc:
                raise SchedulerError(str(exc)) from exc
            object.__setattr__(self, "tech_node", canonical)
        object.__setattr__(self, "time_scale", float(self.time_scale))

    # -- campaign construction ---------------------------------------------------

    def campaign(self):
        """The :class:`~repro.harness.campaign.Campaign` this spec describes."""
        from ..harness.campaign import Campaign

        return Campaign(
            seed=self.seed,
            time_scale=self.time_scale,
            tech_node=self.tech_node,
        )

    def config_hash(self) -> str:
        """The campaign's stable config hash (cached after first use).

        Computed by building the campaign and asking *it*, so spec
        identity can never drift from the hash ``manifest.json`` and
        a run's commit ids record for the same physics.
        """
        if self._config_hash is None:
            object.__setattr__(
                self, "_config_hash", self.campaign().config_hash()
            )
        return self._config_hash

    @property
    def submission_id(self) -> str:
        """Stable submission identity: ``sub-<hash12>``."""
        return f"sub-{self.config_hash()[:12]}"

    @property
    def display_name(self) -> str:
        return self.name or self.submission_id

    # -- JSON round trip ---------------------------------------------------------

    def to_dict(self) -> dict:
        data = {
            "seed": self.seed,
            "time_scale": self.time_scale,
            "priority": self.priority,
        }
        if self.max_workers is not None:
            data["max_workers"] = self.max_workers
        if self.tech_node is not None:
            data["tech_node"] = self.tech_node
        if self.name:
            data["name"] = self.name
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: object) -> "CampaignSpec":
        if not isinstance(data, dict):
            raise SchedulerError(
                f"campaign spec must be a JSON object, got "
                f"{type(data).__name__}"
            )
        if "flux_per_cm2_s" in data:
            raise SchedulerError(
                "campaign spec key 'flux_per_cm2_s' is no longer "
                "supported: every campaign flies its plans' own flux"
            )
        # Every spec file written before the scalar path left the spec
        # carries "vectorized": true, so that spelling is still read.
        if data.get("vectorized", True) is not True:
            raise SchedulerError(
                "campaign spec key 'vectorized' must be true: the scalar "
                "injector path is not submittable"
            )
        unknown = sorted(set(data) - _SPEC_KEYS)
        if unknown:
            raise SchedulerError(
                f"campaign spec has unknown key(s) {unknown}; "
                f"allowed: {sorted(_SPEC_KEYS)}"
            )
        try:
            return cls(
                seed=data.get("seed", 2023),
                time_scale=data.get("time_scale", 1.0),
                priority=data.get("priority", 0),
                max_workers=data.get("max_workers"),
                tech_node=data.get("tech_node"),
                name=str(data.get("name", "")),
            )
        except TypeError as exc:
            raise SchedulerError(f"malformed campaign spec: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchedulerError(
                f"campaign spec is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(data)
