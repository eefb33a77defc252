"""The conformance, differential, and statistical validation suites.

Three executable answers to "does this reproduce the paper?":

* **conformance** -- re-measure every reproduced artifact (Table 1
  geometry through Fig. 13's FIT split) and gate each number against
  the golden registry (:mod:`repro.validate.oracles`) at its declared
  tolerance.  Count-like measurements use scale-aware Poisson gates, so
  the suite is meaningful at any ``time_scale``.
* **differential** -- fly the paired configurations of
  :class:`~repro.validate.differential.DifferentialRunner` and require
  each pairing's agreement promise to hold.
* **statistical** -- distribution-level checks over a seed ladder:
  Garwood CIs must cover the calibrated model rates at the advertised
  frequency, upset counts across seeds must pass a chi-square Poisson
  dispersion test, and pooled outcome proportions must match the
  calibrated mix model.

Every suite returns a :class:`SuiteResult` of
:class:`~repro.validate.gates.GateResult`; :func:`run_suites` bundles
them into a :class:`ConformanceReport` (the ``conformance.json``
payload of ``repro-campaign validate``).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.confidence import poisson_rate_interval
from ..errors import AnalysisError, ValidationError
from ..injection.calibration import LevelRateModel, OutcomeMixModel
from ..injection.events import OutcomeKind
from ..soc.geometry import total_capacity_bits, xgene2_structures
from ..telemetry import NULL_TELEMETRY, Telemetry
from .differential import DifferentialRunner
from .gates import (
    GateResult,
    SeedLadder,
    interval_coverage_gate,
    poisson_dispersion_gate,
    proportion_gate,
)
from .oracles import OracleRegistry, default_registry

#: Suite names, in report order.
SUITES = ("conformance", "differential", "statistical")

#: Default configuration for the campaign-backed suites.
DEFAULT_SEED = 2023
DEFAULT_TIME_SCALE = 0.2

#: The statistical suite's defaults: a ladder of distinct seeds flown
#: at a reduced scale (each rung is a full four-session campaign).
STATISTICAL_SEEDS = (101, 102, 103, 104, 105)
STATISTICAL_TIME_SCALE = 0.05


@dataclass
class SuiteResult:
    """Verdict of one validation suite."""

    suite: str
    gates: List[GateResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(g.ok for g in self.gates)

    @property
    def failures(self) -> List[GateResult]:
        return [g for g in self.gates if not g.ok]

    def render(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        lines = [
            f"== {self.suite} suite: {verdict} "
            f"({len(self.gates) - len(self.failures)}/{len(self.gates)} "
            f"gates pass) =="
        ]
        lines.extend(g.render() for g in self.gates)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "ok": self.ok,
            "gates": [g.to_dict() for g in self.gates],
        }


@dataclass
class ConformanceReport:
    """The full ``repro-campaign validate`` result (conformance.json)."""

    seed: int
    time_scale: float
    suites: List[SuiteResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.suites)

    @property
    def failures(self) -> List[GateResult]:
        return [g for s in self.suites for g in s.failures]

    def render(self) -> str:
        lines = [s.render() for s in self.suites]
        verdict = "PASS" if self.ok else "FAIL"
        total = sum(len(s.gates) for s in self.suites)
        failed = len(self.failures)
        lines.append(
            f"validation: {verdict} ({total - failed}/{total} gates pass, "
            f"seed={self.seed}, time_scale={self.time_scale})"
        )
        if failed:
            lines.append("failed gates:")
            lines.extend(f"  {g.gate}" for g in self.failures)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "ok": self.ok,
            "seed": self.seed,
            "time_scale": self.time_scale,
            "suites": [s.to_dict() for s in self.suites],
        }


# -- conformance measurements --------------------------------------------------
#
# One extractor per artifact.  Each returns (measured dict, count_scale):
# the dict's keys match the artifact's golden oracles; count_scale is
# the factor Poisson oracles multiply their full-length expected means
# by (the flown time_scale for campaign counts, 1.0 for scale-invariant
# artifacts).  Every artifact with an experiment driver is measured from
# that driver's series -- re-keyed, selected or rescaled, never
# re-derived -- so the gates check the numbers `repro-experiment`
# prints.


def _series(artifact: str, seed: int, time_scale: float) -> dict:
    """The ``series`` of *artifact*'s experiment driver.

    Imported on call: importing :mod:`repro.experiments` at module level
    would load every driver on ``import repro``.
    """
    driver = importlib.import_module(f"..experiments.{artifact}", __package__)
    return driver.run(seed=seed, time_scale=time_scale).series


def _measure_table1(seed: int, time_scale: float) -> Tuple[dict, float]:
    specs = xgene2_structures()
    capacity: Dict[str, int] = {}
    protection: Dict[str, str] = {}
    interleave: Dict[str, int] = {}
    for spec in specs:
        level = spec.level.value
        capacity[level] = capacity.get(level, 0) + spec.capacity_bits
        protection[level] = spec.protection.value
        interleave[level] = spec.interleave
    return (
        {
            "capacity_bits": capacity,
            "protection": protection,
            "interleave": interleave,
            "total_capacity_bits": total_capacity_bits(specs),
        },
        1.0,
    )


def _measure_table2(seed: int, time_scale: float) -> Tuple[dict, float]:
    series = _series("table2", seed, time_scale)
    # Session 3's duration -- and with it its fluence and raw counts --
    # depends on when it hits its failure target, so its conformance
    # lives in the scale-invariant rate gates; the fixed-duration
    # sessions (1, 2, 4) also gate raw counts.
    fixed = series["fixed_duration"]

    def pick(key: str, fixed_duration: bool = True) -> list:
        return [
            value
            for value, is_fixed in zip(series[key], fixed)
            if is_fixed == fixed_duration
        ]

    measured = {
        "voltages_mv": series["voltages_mv"],
        "upsets_fixed": pick("upsets"),
        "failures_fixed": pick("failures"),
        "upset_rates": series["upset_rates"],
        "failure_rate_session3": pick("failure_rates", False)[0],
        "ser_fit_per_mbit": series["ser_fit_per_mbit"],
        "fluences_fixed": [f / time_scale for f in pick("fluences")],
        "fluence_session3": pick("fluences", False)[0] / time_scale,
    }
    return measured, time_scale


def _measure_table3(seed: int, time_scale: float) -> Tuple[dict, float]:
    series = _series("table3", seed, time_scale)
    return {"points": [list(p) for p in series["points"]]}, 1.0


def _measure_fig4(seed: int, time_scale: float) -> Tuple[dict, float]:
    series = _series("fig4", seed, time_scale)
    return (
        {
            "safe_vmin_mv": {
                str(freq): vmin
                for freq, vmin in series["safe_vmin_mv"].items()
            },
            "guardbands_mv": {
                str(freq): gb for freq, gb in series["guardbands_mv"].items()
            },
        },
        1.0,
    )


def _measure_fig5(seed: int, time_scale: float) -> Tuple[dict, float]:
    series = _series("fig5", seed, time_scale)
    return {"total_rates": series["rates"]["Total"]}, time_scale


def _bar_counts(counts: dict) -> dict:
    """Fig. 6/7 counts re-keyed from (level, severity) to "level/severity"."""
    return {f"{level}/{severity}": n for (level, severity), n in counts.items()}


def _measure_fig6(seed: int, time_scale: float) -> Tuple[dict, float]:
    series = _series("fig6", seed, time_scale)
    return {"counts": _bar_counts(series["counts"])}, time_scale


def _measure_fig7(seed: int, time_scale: float) -> Tuple[dict, float]:
    series = _series("fig7", seed, time_scale)
    return {"counts": _bar_counts(series["counts"])}, time_scale


def _measure_fig8(seed: int, time_scale: float) -> Tuple[dict, float]:
    series = _series("fig8", seed, time_scale)
    mixes: Dict[str, Dict[str, List[int]]] = {}
    sdc_share_920 = 0.0
    for voltage, counts in series["counts"].items():
        total = sum(counts.values())
        mixes[str(voltage)] = {
            kind: [count, total] for kind, count in counts.items()
        }
        if voltage == 920:
            sdc_share_920 = counts["SDC"] / total
    return {"mixes": mixes, "sdc_share_920": sdc_share_920}, time_scale


def _measure_fig9(seed: int, time_scale: float) -> Tuple[dict, float]:
    series = _series("fig9", seed, time_scale)
    return (
        {
            "power_watts": series["power_watts"],
            "upsets_per_min": series["upsets_per_min"],
        },
        1.0,
    )


def _measure_fig10(seed: int, time_scale: float) -> Tuple[dict, float]:
    series = _series("fig10", seed, time_scale)
    return (
        {
            "power_savings_pct": series["power_savings_pct"],
            "susceptibility_increase_pct": series[
                "susceptibility_increase_pct"
            ],
            "outpaced": series["outpaced"],
        },
        1.0,
    )


def _measure_fig11(seed: int, time_scale: float) -> Tuple[dict, float]:
    series = _series("fig11", seed, time_scale)
    fit = series["fit"]
    return (
        {
            "total_fit": {str(mv): row["Total"] for mv, row in fit.items()},
            "sdc_fit_920": fit[920]["SDC"],
            "sdc_increase_x": series["sdc_increase_x"],
            "total_increase_x": series["total_increase_x"],
        },
        time_scale,
    )


def _measure_fig12(seed: int, time_scale: float) -> Tuple[dict, float]:
    series = _series("fig12", seed, time_scale)
    return (
        {"sdc_fit_920_without": series["sdc_fit"][920]["without"]},
        time_scale,
    )


def _measure_tech(seed: int, time_scale: float) -> Tuple[dict, float]:
    # Deterministic model probes -- no campaign flights: the node axis
    # is pinned at the calibrated-model layer, the flown physics is
    # covered by the statistical suite's node-FIT gates.
    from ..sram.cross_section import CrossSectionModel
    from ..tech import get_node, list_nodes

    measured: Dict[str, Dict[str, object]] = {
        "total_rate_nominal_per_min": {},
        "outcome_rate_nominal_per_min": {},
        "sigma_mult_5pct_undervolt": {},
        "freq_at_nominal_mhz": {},
        "scaled_vmin": {},
        "nominal": {},
    }
    for name in list_nodes():
        node = get_node(name)
        rates = LevelRateModel.for_node(node)
        mix = OutcomeMixModel.for_node(node)
        xs = CrossSectionModel.for_node(node)
        nominal_mv = float(node.pmd_nominal_mv)
        measured["total_rate_nominal_per_min"][name] = (
            rates.total_rate_per_min(
                node.pmd_nominal_mv, node.soc_nominal_mv
            )
        )
        measured["outcome_rate_nominal_per_min"][name] = sum(
            mix.rates_per_min(
                node.nominal_freq_mhz, node.pmd_nominal_mv
            ).values()
        )
        measured["sigma_mult_5pct_undervolt"][name] = xs.sigma_cm2(
            nominal_mv * 0.95
        ) / xs.sigma_cm2(nominal_mv)
        measured["freq_at_nominal_mhz"][name] = node.freq_mhz_at(nominal_mv)
        measured["scaled_vmin"][name] = [
            node.scale_pmd_mv(920),
            node.scale_soc_mv(920),
        ]
        measured["nominal"][name] = [
            node.nominal_freq_mhz,
            node.pmd_nominal_mv,
            node.soc_nominal_mv,
        ]
    return measured, 1.0


def _measure_fig13(seed: int, time_scale: float) -> Tuple[dict, float]:
    series = _series("fig13", seed, time_scale)
    return (
        {"notified_split": [series["sdc_notified"], max(series["sdcs"], 1)]},
        time_scale,
    )


#: Artifact id -> measurement extractor.
MEASUREMENTS: Dict[str, Callable[[int, float], Tuple[dict, float]]] = {
    "table1": _measure_table1,
    "table2": _measure_table2,
    "table3": _measure_table3,
    "fig4": _measure_fig4,
    "fig5": _measure_fig5,
    "fig6": _measure_fig6,
    "fig7": _measure_fig7,
    "fig8": _measure_fig8,
    "fig9": _measure_fig9,
    "fig10": _measure_fig10,
    "fig11": _measure_fig11,
    "fig12": _measure_fig12,
    "fig13": _measure_fig13,
    "tech": _measure_tech,
}


def run_conformance(
    seed: int = DEFAULT_SEED,
    time_scale: float = DEFAULT_TIME_SCALE,
    artifacts: Optional[List[str]] = None,
    registry: Optional[OracleRegistry] = None,
    telemetry: Optional[Telemetry] = None,
) -> SuiteResult:
    """Measure the selected artifacts and gate them against the registry."""
    registry = registry or default_registry()
    selected = artifacts if artifacts is not None else registry.artifacts()
    unknown = [a for a in selected if a not in MEASUREMENTS]
    if unknown:
        raise ValidationError(
            f"no measurement extractor for {unknown}; "
            f"known: {sorted(MEASUREMENTS)}"
        )
    telemetry = telemetry or NULL_TELEMETRY
    result = SuiteResult(suite="conformance")
    for artifact in selected:
        try:
            with telemetry.span("validate.measure", artifact=artifact):
                measured, scale = MEASUREMENTS[artifact](seed, time_scale)
        except AnalysisError as exc:
            # An artifact the flown campaign cannot support (say, no
            # nominal SDC to divide by at a tiny time_scale) fails its
            # own gate; the other artifacts still get measured.
            gates = [
                GateResult(gate=f"{artifact}/measure", ok=False, detail=str(exc))
            ]
        else:
            gates = registry.check(artifact, measured, scale=scale)
        result.gates.extend(gates)
        telemetry.count("validate.gates", n=len(gates))
    return result


def run_differential(
    seed: int = DEFAULT_SEED,
    time_scale: float = 0.01,
    pairings: Optional[List[str]] = None,
    workdir: Optional[str] = None,
    telemetry: Optional[Telemetry] = None,
) -> SuiteResult:
    """Fly the paired configurations and collect their agreement gates."""
    runner = DifferentialRunner(
        seed=seed, time_scale=time_scale, workdir=workdir
    )
    result = SuiteResult(suite="differential")
    for name in pairings if pairings is not None else runner.pairings():
        if telemetry is not None:
            with telemetry.span("validate.pairing", pairing=name):
                report = runner.run(name)
        else:
            report = runner.run(name)
        result.gates.extend(report.gates)
        # Field diffs are localization detail, folded into the gate's
        # detail line so the rendered report names the drifted paths.
        if report.field_diffs and result.gates:
            drifted = ", ".join(d.path for d in report.field_diffs[:3])
            last = result.gates[-1]
            result.gates[-1] = GateResult(
                gate=last.gate,
                ok=last.ok,
                measured=last.measured,
                expected=last.expected,
                detail=f"{last.detail}; drifted: {drifted}",
            )
        if telemetry is not None:
            telemetry.count("validate.pairings", pairing=name)
    return result


def run_statistical(
    seeds: Optional[Tuple[int, ...]] = None,
    time_scale: float = STATISTICAL_TIME_SCALE,
    required: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
) -> SuiteResult:
    """Distribution-level gates over a ladder of seeds.

    Each rung flies the four-session campaign at *time_scale*; the
    gates then assert:

    * every session's Garwood 95 % CI on the upset rate covers the
      calibrated :class:`LevelRateModel` expectation -- pooled over
      rungs with one coverage miss tolerated per ~20 checks (the CI's
      own advertised miss rate);
    * session upset counts across rungs are Poisson-dispersed
      (chi-square, both tails);
    * the pooled SDC share at Vmin matches the calibrated
      :class:`OutcomeMixModel` proportion (exact Clopper-Pearson);
    * per registered technology node, Garwood CIs on Poisson-drawn
      nominal-rate counts cover each node's calibrated model rate
      (pooled K-of-N over the same ladder -- no extra flights).
    """
    from ..experiments.config import shared_campaign

    seeds = tuple(seeds) if seeds is not None else STATISTICAL_SEEDS
    ladder = SeedLadder(seeds, required=max(1, len(seeds) - 1))
    rate_model = LevelRateModel()
    mix_model = OutcomeMixModel()

    campaigns = {}

    def campaign_for(seed: int):
        if seed not in campaigns:
            if telemetry is not None:
                with telemetry.span("validate.rung", seed=seed):
                    campaigns[seed] = shared_campaign(seed, time_scale)
            else:
                campaigns[seed] = shared_campaign(seed, time_scale)
        return campaigns[seed]

    result = SuiteResult(suite="statistical")

    def ci_coverage_trial(seed: int) -> Tuple[int, int]:
        campaign = campaign_for(seed)
        hits, total = 0, 0
        for label in campaign.labels():
            session = campaign.session(label)
            point = session.plan.point
            expected = rate_model.total_rate_per_min(
                point.pmd_mv, point.soc_mv, session.plan.flux_per_cm2_s
            )
            interval = poisson_rate_interval(
                session.upset_count, session.duration_minutes
            )
            gate = interval_coverage_gate(
                f"statistical/ci/{seed}/{label}", interval, expected
            )
            hits += int(gate.ok)
            total += 1
        return hits, total

    checks = len(seeds) * 4
    result.gates.append(
        ladder.run_counting(
            "statistical/upset_ci_coverage",
            ci_coverage_trial,
            required_hits=checks - max(1, checks // 10),
        )
    )

    counts_by_label: Dict[str, List[int]] = {}
    sdc_hits, sdc_total = 0, 0
    for seed in seeds:
        campaign = campaign_for(seed)
        for label in campaign.labels():
            session = campaign.session(label)
            if session.plan.target_failures is None:
                counts_by_label.setdefault(label, []).append(
                    session.upset_count
                )
            if session.plan.point.pmd_mv == 920:
                counts = session.failure_counts()
                sdc_hits += counts.get(OutcomeKind.SDC, 0)
                sdc_total += sum(counts.values())

    for label, counts in sorted(counts_by_label.items()):
        result.gates.append(
            poisson_dispersion_gate(
                f"statistical/dispersion/{label}", counts
            )
        )

    expected_rates = mix_model.rates_per_min(2400, 920)
    expected_sdc = expected_rates["SDC"] / sum(expected_rates.values())
    result.gates.append(
        proportion_gate(
            "statistical/sdc_share_vmin",
            sdc_hits,
            sdc_total,
            expected_sdc,
            level=0.999,
            method="clopper-pearson",
        )
    )

    # -- cross-node FIT coverage.  The flown campaigns above are all
    # 28 nm; the node axis is gated at the model layer instead: per
    # rung and per registered node, draw a Poisson upset count from the
    # node's calibrated nominal rate over a fixed exposure, then require
    # the Garwood CI on the drawn rate to cover the model expectation.
    # Same CI machinery, same pooled K-of-N acceptance -- and no extra
    # campaign flights.
    from ..rng import RngStreams
    from ..tech import get_node, list_nodes

    node_names = list_nodes()
    node_exposure_min = 600.0

    def node_fit_trial(seed: int) -> Tuple[int, int]:
        hits, total = 0, 0
        streams = RngStreams(seed)
        for name in node_names:
            node = get_node(name)
            node_rates = LevelRateModel.for_node(node)
            expected = node_rates.total_rate_per_min(
                node.pmd_nominal_mv, node.soc_nominal_mv
            )
            rng = streams.child("validate-node-fit", node=name)
            count = int(rng.poisson(expected * node_exposure_min))
            interval = poisson_rate_interval(count, node_exposure_min)
            gate = interval_coverage_gate(
                f"statistical/node_fit/{seed}/{name}", interval, expected
            )
            hits += int(gate.ok)
            total += 1
        return hits, total

    node_checks = len(seeds) * len(node_names)
    result.gates.append(
        ladder.run_counting(
            "statistical/node_fit_ci_coverage",
            node_fit_trial,
            required_hits=node_checks - max(1, node_checks // 10),
        )
    )
    if telemetry is not None:
        telemetry.count("validate.gates", n=len(result.gates))
    return result


def run_suites(
    suites: Optional[List[str]] = None,
    seed: int = DEFAULT_SEED,
    time_scale: float = DEFAULT_TIME_SCALE,
    telemetry: Optional[Telemetry] = None,
) -> ConformanceReport:
    """Run the named suites (default: all three) into one report."""
    selected = list(suites) if suites is not None else list(SUITES)
    unknown = [s for s in selected if s not in SUITES]
    if unknown:
        raise ValidationError(
            f"unknown suite(s) {unknown}; choose from {list(SUITES)}"
        )
    report = ConformanceReport(seed=seed, time_scale=time_scale)
    for suite in selected:
        if suite == "conformance":
            report.suites.append(
                run_conformance(
                    seed=seed, time_scale=time_scale, telemetry=telemetry
                )
            )
        elif suite == "differential":
            report.suites.append(
                run_differential(seed=seed, telemetry=telemetry)
            )
        else:
            report.suites.append(run_statistical(telemetry=telemetry))
    return report
