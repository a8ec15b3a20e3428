"""jkelab: a desk-scale laboratory for hybrid public-key + jamming
key-exchange systems.

Three instruments over one set of domain types:

* an analytical secrecy-rate engine (:mod:`jkelab.secrecy`, backed by the
  jitter-limited ADC model in :mod:`jkelab.adc`),
* a Monte-Carlo wiretap-channel protocol simulator (:mod:`jkelab.session`,
  with :mod:`jkelab.kem` and :mod:`jkelab.jamming`),
* an adversary timing-race model (:mod:`jkelab.race`).

The ``jkelab`` CLI (:mod:`jkelab.cli`) ties them together.
"""

from .adc import QuantizerConfig, bob_resolution, enob_from_jitter, eve_resolution, quantize
from .params import (AdcSpec, KeyMaterial, SnrPoint, SystemParams,
                     ValidationError, noise_var_to_snr, snr_to_noise_var,
                     validate)
from .race import (AttackerTimeModel, JitterTrend, RaceScenario, RaceVerdict,
                   get_preset, project_jitter, race_verdict, year_for_jitter)
from .secrecy import (JkeTiming, NoPositiveSecrecyError, SecrecyReport,
                      SnrThreshold, ThresholdKind, jke_duration,
                      min_bob_snr_for_positive_rs, secrecy_rate,
                      sweep_min_bob_snr, sweep_rate_vs_snr)

__version__ = "0.1.0"

# The Monte-Carlo names come from modules that load NumPy, which the
# analytic commands never need, so they are imported on first access
# (PEP 562) rather than here.
_LAZY = {
    "CancellationModel": "session", "EveAttackReport": "session",
    "SimTrace": "session", "cancellation_bits": "session",
    "eve_storage_attack": "session", "run_jke_session": "session",
    "true_jamming_stream": "session",
    "JammingStream": "jamming", "jamming_stream": "jamming",
}


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module

        value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "AdcSpec", "AttackerTimeModel", "CancellationModel", "EveAttackReport",
    "JammingStream", "JitterTrend", "JkeTiming", "KeyMaterial",
    "NoPositiveSecrecyError", "QuantizerConfig", "RaceScenario",
    "RaceVerdict", "SecrecyReport", "SimTrace", "SnrPoint", "SnrThreshold",
    "SystemParams", "ThresholdKind", "ValidationError",
    "bob_resolution", "cancellation_bits",
    "enob_from_jitter", "eve_resolution", "eve_storage_attack", "get_preset",
    "jamming_stream", "jke_duration", "min_bob_snr_for_positive_rs",
    "noise_var_to_snr", "project_jitter", "quantize", "race_verdict",
    "run_jke_session", "secrecy_rate", "snr_to_noise_var",
    "sweep_min_bob_snr", "sweep_rate_vs_snr", "true_jamming_stream",
    "validate", "year_for_jitter",
]
