"""The planner: expand a campaign into an ordered list of work units.

Pure in the strictest sense -- planning touches no RNG, no clock, no
filesystem, and carries no execution state.  The same spec always plans
to the same tuple of :class:`PlannedUnit`\\ s with the same stable ids,
no matter which process (or host) plans it; that is what lets a second
broker pointed at the same results directory recognize another broker's
leases and commits by id alone.

A unit id is ``<hash12>/<label>``: the first 12 hex digits of the
campaign's stable config hash, then the session label.  The hash pins
the physics (seed, time scale, injector path, node, the full plan
list), the label pins the session -- so ids collide exactly when the
work is byte-identical, which is precisely when collision is the
desired behaviour (dedup, exactly-once commit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..engine.executor import WorkUnit
from .spec import CampaignSpec


@dataclass(frozen=True)
class PlannedUnit:
    """One schedulable session, with its stable identity.

    Attributes
    ----------
    unit_id:
        ``<hash12>/<label>`` -- globally stable across processes/hosts.
    label:
        The session label ("session1", ...), the key results merge
        under.
    seq:
        Position in the plan; the deterministic merge order.
    unit:
        The picklable :class:`~repro.engine.WorkUnit` payload.
    """

    unit_id: str
    label: str
    seq: int
    unit: WorkUnit


@dataclass(frozen=True)
class CampaignPlan:
    """A planned campaign: ordered units plus their shared identity.

    ``spec`` is present when the plan came from a submittable
    :class:`CampaignSpec`; plans built straight from a live
    :class:`~repro.harness.campaign.Campaign` (the ``Campaign.run()``
    shim, custom session-plan lists) carry ``spec=None``.
    """

    config_hash: str
    units: Tuple[PlannedUnit, ...]
    name: str = ""
    priority: int = 0
    spec: Optional[CampaignSpec] = None
    seed: int = 2023
    time_scale: float = 1.0
    max_workers: Optional[int] = None

    @property
    def submission_id(self) -> str:
        return f"sub-{self.config_hash[:12]}"

    @property
    def display_name(self) -> str:
        return self.name or self.submission_id

    def labels(self) -> List[str]:
        return [unit.label for unit in self.units]


def plan_units(
    session_plans: Sequence,
    seed: int,
    config_hash: str,
    with_metrics: bool = False,
    tech_node: Optional[str] = None,
) -> Tuple[PlannedUnit, ...]:
    """Expand prepared session plans into ordered planned units.

    *session_plans* must already be time- and node-scaled (the
    campaign's plan preparation owns that); this function only wraps
    each one in a picklable work unit and stamps the stable id.  *tech_node* rides along only when non-default, so
    default-plan unit payloads pickle byte-identically to pre-scaling
    plans.
    """
    from ..harness.campaign import _fly_session

    prefix = config_hash[:12]
    kwargs = {"with_metrics": with_metrics}
    if tech_node:
        kwargs["tech_node"] = tech_node
    return tuple(
        PlannedUnit(
            unit_id=f"{prefix}/{plan.label}",
            label=plan.label,
            seq=seq,
            unit=WorkUnit(
                key=plan.label,
                fn=_fly_session,
                args=(plan, seed),
                kwargs=dict(kwargs),
            ),
        )
        for seq, plan in enumerate(session_plans)
    )


def plan_campaign(
    spec: CampaignSpec, with_metrics: bool = False
) -> CampaignPlan:
    """Plan one spec: the ordered, stable-id unit list the broker queues."""
    campaign = spec.campaign()
    config_hash = campaign.config_hash()
    return CampaignPlan(
        config_hash=config_hash,
        units=plan_units(
            campaign.plans,
            seed=spec.seed,
            config_hash=config_hash,
            with_metrics=with_metrics,
            tech_node=campaign.tech_node,
        ),
        name=spec.name,
        priority=spec.priority,
        spec=spec,
        seed=spec.seed,
        time_scale=spec.time_scale,
        max_workers=spec.max_workers,
    )
