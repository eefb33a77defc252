"""The four-session radiation campaign of Table 2.

Runs every session plan against a fresh chip, collects the results,
and exposes campaign-level views (per-voltage aggregation, consolidated
EDAC statistics) that the analysis layer turns into the paper's tables
and figures.

Sessions fan out through the :mod:`repro.engine` execution layer: each
session is one picklable :class:`~repro.engine.WorkUnit` carrying its
plan and the campaign's root seed, so a
:class:`~repro.engine.ParallelExecutor` flies them on separate
processes and still produces output bit-identical to the serial run --
session streams are derived from ``(seed, label)`` alone, never from
cross-session draw order.  :meth:`Campaign.run` maps the planned units
straight through its executor; the checkpointed ``run`` verb
(:class:`~repro.resilient.ResilientCampaign`) drains the same plan
through a scheduler broker instead.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..engine import ExecutionContext, Executor, SerialExecutor, WorkUnit
from ..errors import SessionError
from ..rng import RngStreams
from ..soc.xgene2 import XGene2
from ..telemetry import MetricsRegistry, NULL_TELEMETRY, stable_config_hash
from .session import (
    BeamSession,
    SessionPlan,
    SessionResult,
    TABLE2_SESSION_PLANS,
    scaled_plan,
)


@dataclass
class CampaignResult:
    """All sessions of one campaign, by label."""

    sessions: Dict[str, SessionResult] = field(default_factory=dict)
    sram_bits: int = 0

    def session(self, label: str) -> SessionResult:
        """Look one session up by label."""
        if label not in self.sessions:
            raise SessionError(f"no such session: {label!r}")
        return self.sessions[label]

    def by_pmd_voltage(self) -> Dict[int, SessionResult]:
        """Sessions keyed by their PMD voltage."""
        return {
            result.plan.point.pmd_mv: result
            for result in self.sessions.values()
        }

    def labels(self) -> List[str]:
        """Session labels in insertion (flight) order."""
        return list(self.sessions)


def _fly_session(
    plan: SessionPlan,
    seed: int,
    vectorized: bool = True,
    with_metrics: bool = False,
    tech_node: Optional[str] = None,
) -> Tuple[SessionResult, int, Optional[dict]]:
    """Fly one session on a fresh chip (module-level: must pickle).

    The session's stream is derived from ``(seed, plan.label)`` inside
    :class:`BeamSession`, so this function is a pure function of its
    arguments -- the foundation of the serial/parallel determinism
    guarantee.

    A non-default *tech_node* name builds the chip and the calibrated
    rate/outcome models for that node (the plan's operating point has
    already been scaled by the campaign); the default node takes the
    original code path bit-for-bit.

    When *with_metrics* is set, the session counts into a private
    registry whose snapshot rides home with the result; the parent
    merges snapshots in submission order, so the merged counts are
    identical no matter which process (or how many) flew the sessions.
    """
    metrics = MetricsRegistry() if with_metrics else None
    if tech_node:
        from ..injection.calibration import LevelRateModel, OutcomeMixModel
        from ..tech import get_node

        node = get_node(tech_node)
        chip = XGene2(tech_node=node)
        session = BeamSession(
            plan,
            RngStreams(seed),
            chip=chip,
            rate_model=LevelRateModel.for_node(node),
            outcome_mix=OutcomeMixModel.for_node(node),
            vectorized=vectorized,
            metrics=metrics,
        )
    else:
        chip = XGene2()
        session = BeamSession(
            plan, RngStreams(seed), chip=chip, vectorized=vectorized,
            metrics=metrics,
        )
    result = session.run()
    snapshot = metrics.to_dict() if metrics is not None else None
    return result, chip.sram_data_bits, snapshot


class Campaign:
    """Runs a list of session plans with deterministic seeding.

    Parameters
    ----------
    plans:
        Session plans to fly (defaults to Table 2's four).
    seed:
        Root seed; every stochastic draw of the campaign derives
        from it.  Ignored when *context* is given.
    time_scale:
        Shrinks every session's beam time (1.0 = full length;
        tests and quick demos use much smaller values).  Ignored when
        *context* is given.
    executor:
        Engine executor the sessions fan out through (defaults to
        :class:`~repro.engine.SerialExecutor`; pass
        ``ParallelExecutor(4)`` to fly the four sessions concurrently).
    context:
        Full :class:`~repro.engine.ExecutionContext`; supersedes the
        loose *seed*/*time_scale* pair and can carry a campaign-wide
        flux override plus a telemetry sink.
    vectorized:
        Select the injector realization path (see
        :class:`~repro.injection.injector.BeamInjector`).
    tech_node:
        Optional registered technology-node name.  A non-default node
        scales every plan's operating point onto the node's grid and
        flies sessions on the node's chip/rate models; the default
        ``"xgene2-28"`` (or ``None``) collapses to the plain 28 nm
        code path and leaves the config hash untouched.
    """

    def __init__(
        self,
        plans: Optional[List[SessionPlan]] = None,
        seed: int = 2023,
        time_scale: float = 1.0,
        executor: Optional[Executor] = None,
        context: Optional[ExecutionContext] = None,
        vectorized: bool = True,
        tech_node: Optional[str] = None,
    ) -> None:
        if context is None:
            context = ExecutionContext(seed=seed, time_scale=time_scale)
        self.context = context
        node = None
        if tech_node:
            from ..tech import get_node

            node = get_node(tech_node)
            if node.is_default:
                # The 28 nm anchor *is* the plain chip: collapse so the
                # hash, the unit payloads and the flown bytes all match
                # a default-node campaign exactly (the tech_anchor
                # differential pairing pins this).
                node = None
        self.tech_node = node.name if node is not None else None
        base_plans = plans if plans is not None else TABLE2_SESSION_PLANS
        if context.time_scale != 1.0:
            base_plans = [
                scaled_plan(p, context.time_scale) for p in base_plans
            ]
        if context.flux_per_cm2_s is not None:
            base_plans = [
                replace(p, flux_per_cm2_s=context.flux_per_cm2_s)
                for p in base_plans
            ]
        if node is not None:
            base_plans = [
                replace(p, point=node.scaled_point(p.point))
                for p in base_plans
            ]
        self.plans = base_plans
        self.executor = executor or SerialExecutor()
        self.vectorized = vectorized

    def config_hash(self) -> str:
        """Stable hash of the flown configuration (plans + root inputs).

        Recorded in the run manifest so a results directory can always
        be traced back to the exact configuration that produced it.
        """
        data = {
            "seed": self.context.seed,
            "time_scale": self.context.time_scale,
            "flux_per_cm2_s": self.context.flux_per_cm2_s,
            "vectorized": self.vectorized,
            "plans": [asdict(plan) for plan in self.plans],
        }
        # The node folds in only when non-default, so every pre-existing
        # campaign hash (and the checkpoint journals pinned on them)
        # stays byte-identical.
        if self.tech_node is not None:
            data["tech_node"] = self.tech_node
        return stable_config_hash(data)

    def plan_campaign(self):
        """Plan this campaign: ordered, stable-id work units.

        ``Campaign`` owns plan preparation (time scaling, flux
        overrides) and the config hash;
        :func:`~repro.scheduler.plan_units` owns the unit wrapping.
        Units carry a metrics registry when the context's telemetry is
        enabled.
        """
        from ..scheduler import CampaignPlan, plan_units

        telemetry = self.context.telemetry or NULL_TELEMETRY
        config_hash = self.config_hash()
        return CampaignPlan(
            config_hash=config_hash,
            units=plan_units(
                self.plans,
                seed=self.context.seed,
                config_hash=config_hash,
                vectorized=self.vectorized,
                with_metrics=telemetry.enabled,
                tech_node=self.tech_node,
            ),
            seed=self.context.seed,
            time_scale=self.context.time_scale,
        )

    def run(self) -> CampaignResult:
        """Fly every session on a fresh chip; return all results.

        Maps the planned units through this campaign's executor in plan
        order, so serial and parallel executors produce identical span
        trees, merged counters and result bytes.

        With a telemetry sink on the context, each work unit flies with
        a private metrics registry and ships its snapshot back; the
        merge happens here, strictly in submission order, so the merged
        counts are bit-identical between serial and parallel executors.
        """
        telemetry = self.context.telemetry or NULL_TELEMETRY
        plan = self.plan_campaign()
        result = CampaignResult()
        with telemetry.span("campaign.run", sessions=len(plan.units)):
            outcomes = self.executor.map(
                [planned.unit for planned in plan.units],
                telemetry=self.context.telemetry,
            )
            for planned, (session_result, sram_bits, snapshot) in zip(
                plan.units, outcomes
            ):
                telemetry.merge_snapshot(snapshot)
                result.sessions[planned.label] = session_result
                if not result.sram_bits:
                    result.sram_bits = sram_bits
        return result
