"""Temporal-race verdicts and the ADC-technology trend projection.

The protocol is only as good as the gap between the key-exchange duration
and the attacker's time to break the phase-1 public-key scheme: the
long-term key stays everlastingly secret exactly when the exchange
finishes strictly first. Attacker time models are data (a preset registry
plus user configs), not predictions made here.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import Enum
from importlib import resources

SECONDS_PER_YEAR = 365.25 * 86400.0

# Extrapolation is a straight constant-doubling line; survey authors expect
# progress to hit the purity limit of sampling clocks eventually.
TREND_CAVEAT = ("constant-doubling extrapolation: aperture-jitter progress "
                "may saturate once clock purity becomes the limit")
CLASSICAL_SCALING_CAVEAT = ("wall time assumes ideally linear scaling of "
                            "factoring effort across cores")


class RaceVerdict(str, Enum):
    EVERLASTING = "everlasting"
    BROKEN = "broken"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class AttackerTimeModel:
    """Time for an attacker to recover the phase-1 secret; ``None`` means
    no credible estimate exists and verdicts must propagate 'unknown'."""

    name: str
    t_qc_s: float | None
    note: str = ""

    def __post_init__(self):
        if self.t_qc_s is not None and not self.t_qc_s > 0:
            raise ValueError("attacker time must be positive when known")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RaceScenario:
    t_j_s: float
    attacker: AttackerTimeModel
    verdict: RaceVerdict

    def to_dict(self) -> dict:
        return asdict(self) | {"verdict": self.verdict.value}


def race_verdict(t_j_s: float, attacker: AttackerTimeModel) -> RaceScenario:
    """Everlasting iff the exchange strictly beats the attacker; a tie is
    conservatively broken; an unknown attacker time stays unknown."""
    if not t_j_s > 0:
        raise ValueError("exchange duration must be positive")
    if attacker.t_qc_s is None:
        verdict = RaceVerdict.UNKNOWN
    elif t_j_s < attacker.t_qc_s:
        verdict = RaceVerdict.EVERLASTING
    else:
        verdict = RaceVerdict.BROKEN
    return RaceScenario(t_j_s=t_j_s, attacker=attacker, verdict=verdict)


@dataclass(frozen=True)
class JitterTrend:
    """Exponential improvement of achievable aperture jitter: halves every
    ``doubling_period_years`` starting from a reference state of the art."""

    reference_year: float
    reference_jitter_s: float
    doubling_period_years: float

    def __post_init__(self):
        if not self.doubling_period_years > 0:
            raise ValueError("doubling period must be positive")
        if not self.reference_jitter_s > 0:
            raise ValueError("reference jitter must be positive")


# ADC survey data (B. Murmann, "ADC Performance Survey 1997-2024"):
# bandwidth-resolution product doubled about every 4.57 years over
# 2005-2024 (only every 8.34 years over 2010-2024), with ~50 fs rms the
# best published aperture jitter at the 2024 edge.
DEFAULT_TREND = JitterTrend(reference_year=2024.0, reference_jitter_s=50e-15,
                            doubling_period_years=4.57)


def project_jitter(trend: JitterTrend, year: float) -> float:
    """Achievable jitter in ``year`` under the trend (monotone decreasing)."""
    if year < trend.reference_year:
        raise ValueError("projection year precedes the trend reference year")
    return trend.reference_jitter_s * 2.0 ** (
        -(year - trend.reference_year) / trend.doubling_period_years)


def year_for_jitter(trend: JitterTrend, target_jitter_s: float) -> float:
    """Year at which the trend reaches ``target_jitter_s`` (inverse of
    :func:`project_jitter`)."""
    if not 0 < target_jitter_s < trend.reference_jitter_s:
        raise ValueError("target jitter must be below the reference jitter")
    year = trend.reference_year + trend.doubling_period_years * math.log2(
        trend.reference_jitter_s / target_jitter_s)
    if not math.isfinite(year):
        raise ValueError(f"the jitter trend reaches {target_jitter_s!r} s "
                         "in no finite year")
    return year


def _from_core_years(entry: dict, cores: int) -> AttackerTimeModel:
    if not cores >= 1:
        raise ValueError("core count must be at least 1")
    wall_s = entry["core_years"] * SECONDS_PER_YEAR / cores
    return AttackerTimeModel(
        name=entry["name"], t_qc_s=wall_s,
        note=f"{entry['note']}; {cores} cores; {CLASSICAL_SCALING_CAVEAT}")


def _registry() -> dict:
    raw = resources.files("jkelab").joinpath("data/attacker_presets.json")
    with raw.open("r", encoding="utf-8") as fh:
        data = json.load(fh)
    return {entry["name"]: entry for entry in data["presets"]}


def get_preset(name: str, cores: int = 1) -> AttackerTimeModel:
    """Look up an attacker preset; effort-based presets are converted to
    wall time for ``cores``, which a fixed-time preset does not take."""
    registry = _registry()
    if name not in registry:
        raise KeyError(f"unknown attacker preset: {name!r} "
                       f"(known: {', '.join(sorted(registry))})")
    entry = registry[name]
    if "core_years" in entry:
        return _from_core_years(entry, cores)
    if cores != 1:
        raise ValueError(f"attacker preset {name!r} has a fixed time, so it "
                         f"takes no core count, got {cores!r}")
    return AttackerTimeModel(name=entry["name"], t_qc_s=entry["t_qc_s"],
                             note=entry["note"])
