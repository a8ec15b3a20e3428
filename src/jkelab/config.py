"""Run-configuration files: a JSON schema mapping 1:1 onto the operating
point plus per-command blocks (sweep axes, simulation settings, race
attacker/trend). SI units throughout: Hz, seconds, dB.

Shipped example configs double as executable documentation; a --config
argument resolves either a filesystem path or a shipped name like
``paper-operating-point``.

Schema (analyze):
    {
      "system": {
        "bandwidth_hz": 40e6,
        "signal_power": 1.0,              # optional, default 1.0
        "jamming_bits_per_symbol": 14,
        "dynamic_range_factor": 2.5,      # optional, default 2.5
        "bob_adc": {"aperture_jitter_s": 500e-15,
                     "explicit_bits": 12.5},          # override optional
        "eve_adc": {"aperture_jitter_s": 5e-15},
        "bob_channel": {"snr_db": 32.0},  # or {"noise_var": ...}
        "eve_channel": {"snr_db": "inf"}  # "inf" = noiseless channel
      },
      "key_bits": 256,                    # optional, default 256
      "efficiency": 0.001                 # optional, default 0.001
    }

sweep adds:  {"sweep": {"which": "fig3a"|"fig3b", <axis blocks>}}
    axis block: {"values": [...]} or {"min", "max", "step"} (linear) or
    {"min", "max", "points", "spacing": "log"}
simulate adds: {"simulate": {"n_symbols", "seed", "cancellation_db",
    "kem": {"mode": "toy-rsa", "bit_length": 64} | {"mode": "passthrough"},
    "jam_scale": <optional>}}
race adds: {"race": {"attacker": {"preset": <name>, "cores": <opt>} |
    {"name", "t_qc_s", "note"}, "trend": {"reference_year",
    "reference_jitter_s", "doubling_period_years"}}}

Every number is a finite JSON number: ``true``, ``"32"``, ``null`` and
``1e400`` are rejected, except the ``"inf"`` of ``snr_db`` and
``cancellation_db`` and the ``null`` of ``explicit_bits`` and ``t_qc_s``.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from pathlib import Path

from .params import (AdcSpec, SnrPoint, SystemParams, ValidationError,
                     noise_var_to_snr, snr_to_noise_var)


def resolve_config(name_or_path) -> Path:
    """Interpret the argument as a filesystem path first, then as the name
    of a shipped example config."""
    path = Path(name_or_path)
    if path.exists():
        return path
    shipped = resources.files("jkelab").joinpath(f"configs/{name_or_path}.json")
    if shipped.is_file():
        return Path(str(shipped))
    raise FileNotFoundError(
        f"config not found: {name_or_path!r} (no such file, and no shipped "
        f"config of that name; shipped: {', '.join(shipped_config_names())})")


def shipped_config_names() -> tuple:
    cfg_dir = resources.files("jkelab").joinpath("configs")
    return tuple(sorted(p.name[:-5] for p in cfg_dir.iterdir()
                        if p.name.endswith(".json")))


def load_config(name_or_path) -> dict:
    path = resolve_config(name_or_path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    return require_object(config, "<root>")


def require_object(block, context: str) -> dict:
    """``block`` itself, if it is a JSON object."""
    if not isinstance(block, dict):
        raise ValidationError(f"{context} must be an object")
    return block


def require_integer(value, context: str) -> int:
    """A JSON number with an integral value (``14`` or ``14.0``) as an int;
    anything else, such as ``14.7``, ``true`` or ``"14"``, is rejected
    rather than truncated, and so is an integer beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{context} must be an integer, got {value!r}")
    number = _number(value, context)
    if not math.isfinite(number):
        raise ValidationError(
            f"{context} must be within the float range, got {value!r}")
    if not number.is_integer():
        raise ValidationError(f"{context} must be an integer, got {value!r}")
    return int(value)


def require_number(value, context: str) -> float:
    """A finite JSON number (``32`` or ``32.5``) as a float; ``true``,
    ``"32"``, ``null``, a container or ``1e400`` is rejected rather than
    coerced."""
    number = _number(value, context)
    if not math.isfinite(number):
        raise ValidationError(f"{context} must be finite, got {value!r}")
    return number


def require_string(value, context: str) -> str:
    """A JSON string, as is; ``null``, a number or a container is rejected
    rather than passed through ``str()``."""
    if not isinstance(value, str):
        raise ValidationError(f"{context} must be a string, got {value!r}")
    return value


def _number(value, context: str) -> float:
    """Any JSON number as a float, with ``1e400`` as inf."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{context} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        return math.inf if value > 0 else -math.inf


def _require(block: dict, key: str, context: str):
    if key not in block:
        raise ValidationError(f"config missing required key {context}.{key}")
    return block[key]


def _parse_channel(block, signal_power: float, context: str) -> float:
    if not isinstance(block, dict) or ("snr_db" in block) == ("noise_var" in block):
        raise ValidationError(
            f"{context} must set exactly one of 'snr_db' or 'noise_var'")
    if "noise_var" in block:
        noise_var = require_number(block["noise_var"], f"{context}.noise_var")
        # The operating point is echoed with its SNR, P / noise_var in dB.
        # A non-finite signal power is left for validate() to name.
        if (noise_var > 0 and math.isfinite(signal_power)
                and math.isinf(signal_power / noise_var)):
            raise ValidationError(
                f"{context}.noise_var of {noise_var!r} is out of range: its "
                f"SNR at signal power {signal_power!r} is not finite")
        return noise_var
    snr_db = block["snr_db"]
    if snr_db == "inf":
        return snr_to_noise_var(SnrPoint.infinite(), signal_power)
    return snr_to_noise_var(
        SnrPoint(require_number(snr_db, f"{context}.snr_db")), signal_power)


def _parse_adc(block, context: str) -> AdcSpec:
    require_object(block, context)
    explicit = block.get("explicit_bits")
    return AdcSpec(
        aperture_jitter_s=require_number(
            _require(block, "aperture_jitter_s", context),
            f"{context}.aperture_jitter_s"),
        explicit_bits=None if explicit is None else require_number(
            explicit, f"{context}.explicit_bits"))


def parse_system(config: dict) -> SystemParams:
    sys_block = require_object(_require(config, "system", "<root>"), "system")
    # validate() names a non-finite bandwidth, signal power or dynamic
    # range factor, so these three may parse to inf.
    signal_power = _number(sys_block.get("signal_power", 1.0),
                           "system.signal_power")
    return SystemParams(
        bandwidth_hz=_number(_require(sys_block, "bandwidth_hz", "system"),
                             "system.bandwidth_hz"),
        signal_power=signal_power,
        jamming_bits_per_symbol=require_integer(
            _require(sys_block, "jamming_bits_per_symbol", "system"),
            "system.jamming_bits_per_symbol"),
        dynamic_range_factor=_number(sys_block.get("dynamic_range_factor", 2.5),
                                     "system.dynamic_range_factor"),
        bob_adc=_parse_adc(_require(sys_block, "bob_adc", "system"),
                           "system.bob_adc"),
        eve_adc=_parse_adc(_require(sys_block, "eve_adc", "system"),
                           "system.eve_adc"),
        bob_noise_var=_parse_channel(
            _require(sys_block, "bob_channel", "system"), signal_power,
            "system.bob_channel"),
        eve_noise_var=_parse_channel(
            _require(sys_block, "eve_channel", "system"), signal_power,
            "system.eve_channel"),
    )


def system_to_dict(params: SystemParams) -> dict:
    """Echo an operating point in config-schema shape (noise as variances,
    with derived SNRs alongside for readability)."""
    def adc_dict(spec: AdcSpec) -> dict:
        out = {"aperture_jitter_s": spec.aperture_jitter_s}
        if spec.explicit_bits is not None:
            out["explicit_bits"] = spec.explicit_bits
        return out

    def channel_dict(noise_var: float) -> dict:
        snr = noise_var_to_snr(noise_var, params.signal_power)
        return {"noise_var": noise_var,
                "snr_db": "inf" if snr.is_infinite else snr.snr_db}

    return {
        "bandwidth_hz": params.bandwidth_hz,
        "signal_power": params.signal_power,
        "jamming_bits_per_symbol": params.jamming_bits_per_symbol,
        "dynamic_range_factor": params.dynamic_range_factor,
        "bob_adc": adc_dict(params.bob_adc),
        "eve_adc": adc_dict(params.eve_adc),
        "bob_channel": channel_dict(params.bob_noise_var),
        "eve_channel": channel_dict(params.eve_noise_var),
    }


def parse_axis(block, context: str) -> list:
    """An axis is an explicit value list, a linear min/max/step range, or a
    log-spaced min/max/points range; always strictly increasing."""
    require_object(block, context)
    if "values" in block:
        if not isinstance(block["values"], list):
            raise ValidationError(f"{context}.values must be a list")
        return [require_number(v, f"{context}.values") for v in block["values"]]
    lo = require_number(_require(block, "min", context), f"{context}.min")
    hi = require_number(_require(block, "max", context), f"{context}.max")
    if hi < lo:
        raise ValidationError(f"{context}: max must be >= min")
    spacing = block.get("spacing", "linear")
    if spacing not in ("linear", "log"):
        raise ValidationError(
            f"{context}.spacing must be 'linear' or 'log', got {spacing!r}")
    if spacing == "log":
        points = require_integer(_require(block, "points", context),
                                 f"{context}.points")
        if points < 1 or lo <= 0:
            raise ValidationError(f"{context}: log axis needs points >= 1 and min > 0")
        if points == 1:
            return [lo]
        ratio = (hi / lo) ** (1.0 / (points - 1))
        return [lo * ratio ** i for i in range(points)]
    step = require_number(_require(block, "step", context), f"{context}.step")
    if not step > 0:
        raise ValidationError(f"{context}: step must be positive")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + i * step for i in range(count)]
