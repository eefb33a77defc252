"""Post-job gates: automatic validation of a just-assembled campaign.

``repro-campaign serve --validate`` runs these after every submission
is assembled, turning the service into a self-checking pipeline: a
result that drifts from the calibrated physics is flagged in
``validation.json`` (and in the broker's ``status.json``) the moment
it lands, instead of waiting for someone to run the conformance suite
by hand.

Two kinds of gate, both pure functions of the committed
``campaign.json`` dict:

* **roundtrip** -- the dict decodes through the session model and the
  decode/encode pair *converges*: one more hop reproduces the
  re-encoded dict exactly.  (Strict first-hop equality is deliberately
  not required -- the decoder documents two lossy fields: per-run
  failure lists collapse to session scope, and the fluence account is
  rebuilt as rate x seconds.)  A **invariants** companion gate pins
  the physics that must survive the first hop anyway: session labels,
  per-session failure counts, upset counts and durations.  A failure
  in either means the committed payloads and the in-memory model
  disagree about the serialization contract, which would silently
  poison every later ``analyze`` / ``export`` of the directory.
* **upsets** -- one Poisson count gate per session: the detected upset
  count must be statistically consistent with the calibrated
  :class:`~repro.injection.calibration.LevelRateModel` expectation for
  the session's operating point, flux and beam-on duration, on the
  technology node the campaign flew.  The acceptance region is the
  central Poisson interval at the gates module's ``DEFAULT_EPSILON``,
  so a healthy service essentially never trips it while a
  miscalibrated or corrupted run does.

``campaign.json`` records operating points, not the node.  Every
registered node scales Table 2's points onto a grid of its own, so the
flown points name the node; points that match no registered node fail
one ``postjob/node`` gate instead of being judged by a model they were
not flown on.
"""

from __future__ import annotations

from typing import List, Optional

from ..harness.session import TABLE2_SESSION_PLANS
from ..injection.calibration import LevelRateModel
from ..io.json_store import campaign_from_dict, campaign_to_dict
from ..tech import TechNode, get_node, list_nodes
from .gates import GateResult, poisson_count_gate


def _grid_point(point) -> tuple:
    return (point.freq_mhz, point.pmd_mv, point.soc_mv)


def _flown_node(campaign) -> Optional[TechNode]:
    """The registered node whose scaled Table 2 points *campaign* flew."""
    flown = {
        label: _grid_point(campaign.session(label).plan.point)
        for label in campaign.labels()
    }
    for name in list_nodes():
        node = get_node(name)
        scaled = {
            plan.label: _grid_point(node.scaled_point(plan.point))
            for plan in TABLE2_SESSION_PLANS
        }
        if all(scaled.get(label) == point for label, point in flown.items()):
            return node
    return None


def postjob_gates(campaign_dict: dict) -> List[GateResult]:
    """All post-job gates for one assembled campaign dict."""
    campaign = campaign_from_dict(campaign_dict)
    encoded = campaign_to_dict(campaign)
    stable = campaign_to_dict(campaign_from_dict(encoded)) == encoded
    gates = [
        GateResult(
            gate="postjob/roundtrip",
            ok=stable,
            measured="converged" if stable else "divergent",
            expected="converged",
            detail=(
                "to_dict(from_dict(.)) is a fixed point after one hop"
                if stable
                else "decode/re-encode keeps changing the campaign "
                "dict; the committed payloads disagree with the "
                "session model"
            ),
        )
    ]
    drifted = []
    for label, data in sorted(campaign_dict["sessions"].items()):
        session = campaign.session(label)
        if len(data["failures"]) != session.failure_count:
            drifted.append(f"{label}: failure count")
        if len(data["upsets"]) != len(session.upsets.upsets):
            drifted.append(f"{label}: upset events")
        if sum(data["counts"].values()) != session.upset_count:
            drifted.append(f"{label}: upset counts")
        encoded_seconds = data["fluence"]["exposure_seconds"]
        if abs(encoded_seconds - session.fluence.exposure_seconds) > 1e-6:
            drifted.append(f"{label}: exposure")
    labels = sorted(campaign_dict["sessions"])
    if labels != sorted(campaign.labels()):
        drifted.append("session labels")
    gates.append(
        GateResult(
            gate="postjob/invariants",
            ok=not drifted,
            measured="preserved" if not drifted else "; ".join(drifted),
            expected="preserved",
            detail=(
                "labels, failure/upset counts and exposure survive "
                "decoding"
            ),
        )
    )
    node = _flown_node(campaign)
    if node is None:
        gates.append(
            GateResult(
                gate="postjob/node",
                ok=False,
                measured="no registered node",
                expected="a registered node's Table 2 points",
                detail="the sessions' operating points match no registered "
                "node's scaled Table 2 points, so no rate model applies",
            )
        )
        return gates
    model = LevelRateModel.for_node(node)
    for label in campaign.labels():
        session = campaign.session(label)
        point = session.plan.point
        mean = (
            model.total_rate_per_min(
                point.pmd_mv, point.soc_mv, session.plan.flux_per_cm2_s
            )
            * session.duration_minutes
        )
        gates.append(
            poisson_count_gate(
                f"postjob/upsets/{label}", session.upset_count, mean
            )
        )
    return gates


def postjob_report(campaign_dict: dict) -> dict:
    """The ``validation.json`` payload for one assembled campaign."""
    gates = postjob_gates(campaign_dict)
    return {
        "schema": 1,
        "ok": all(gate.ok for gate in gates),
        "gates": [gate.to_dict() for gate in gates],
    }
