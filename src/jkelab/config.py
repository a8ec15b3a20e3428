"""Run-configuration files: a JSON schema mapping 1:1 onto the operating
point plus per-command blocks (sweep axes, simulation settings, race
attacker/trend). SI units throughout: Hz, seconds, dB.

Shipped example configs double as executable documentation; a --config
argument resolves either a filesystem path or a shipped name like
``paper-operating-point``.

The schema is the block tables below (``ROOT``, ``SYSTEM``, ``ADC``,
``CHANNEL``, the three axis tables, ``SWEEP``, ``SIMULATE``, ``KEM``,
``RACE``, ``PRESET_ATTACKER``, ``CUSTOM_ATTACKER``, ``TREND``): each maps a
key to its parser and its default, and :func:`read_block` rejects any key
its table does not list.
README.md ("Config schema") describes the same schema in prose.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

from . import kem, race
from .params import (AdcSpec, KeyMaterial, SnrPoint, SystemParams,
                     ValidationError, check_jamming_bits, noise_var_to_snr,
                     snr_to_noise_var, validate)


_CONFIGS = Path(__file__).parent / "configs"


def resolve_config(name_or_path) -> Path:
    """Interpret the argument as a filesystem path first, then as the name
    of a shipped example config."""
    path = Path(name_or_path)
    if path.exists():
        return path
    shipped = _CONFIGS / f"{name_or_path}.json"
    if shipped.is_file():
        return shipped
    raise FileNotFoundError(
        f"config not found: {name_or_path!r} (no such file, and no shipped "
        f"config of that name; shipped: {', '.join(shipped_config_names())})")


def shipped_config_names() -> tuple:
    return tuple(sorted(p.name[:-5] for p in _CONFIGS.iterdir()
                        if p.name.endswith(".json")))


def load_config(name_or_path) -> dict:
    """The JSON object in the config. A file that is not UTF-8 JSON, or
    that Python's json cannot read (an integer literal of more than 4300
    digits, brackets nested too deep), is an error naming the file."""
    path = resolve_config(name_or_path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
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


def _or(special, parse):
    """``parse``, with the JSON value ``special`` (``null`` or ``"inf"``)
    accepted as is."""
    return lambda value, context: value if value == special else parse(value, context)


def _choice(*choices):
    def parse(value, context: str):
        if value not in choices:
            raise ValidationError(f"{context} must be "
                                  f"{' or '.join(map(repr, choices))}, got {value!r}")
        return value
    return parse


def _bounded(parse, low, high=math.inf):
    """``parse``, rejecting a value outside [low, high]."""
    def parse_bounded(value, context: str):
        number = parse(value, context)
        if not low <= number <= high:
            bounds = f"at least {low}" if high == math.inf else f"in [{low}, {high}]"
            raise ValidationError(f"{context} must be {bounds}, got {value!r}")
        return number
    return parse_bounded


def _positive(value, context: str) -> float:
    number = require_number(value, context)
    if not number > 0:
        raise ValidationError(f"{context} must be positive, got {value!r}")
    return number


def _number_list(value, context: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{context} must be a list")
    return [require_number(v, context) for v in value]


REQUIRED = object()  # the default of a key that must be given

# Size budgets, checked before anything of that size is allocated. A
# sweep grid peaks near 0.7 KB per cell while its JSON is written: about
# 0.7 GB at its budget. A session with its storage attack runs in constant
# memory (42 MB RSS at w = 20 from 10^6 to 10^8 symbols), but simulate
# always writes trace.csv, whose nine columns take 72 B per symbol: 0.7 GB
# at 10^7. The symbol budget stays there until the trace is optional.
MAX_SWEEP_CELLS = 10 ** 6
MAX_SYMBOLS = 10 ** 7


def read_block(block, context: str, table: dict) -> dict:
    """Each key of ``table``, a ``(parser, default)`` pair, read from the
    JSON object ``block``: a given value through its parser under its
    dotted key, a missing one as its default. A key the table does not
    list is rejected, naming the closest listed key."""
    require_object(block, context)
    prefix = "" if context == "<root>" else f"{context}."
    for key in block:
        if key not in table:
            import difflib  # only this error needs it
            close = difflib.get_close_matches(key, table, n=1)
            hint = f"; did you mean {prefix}{close[0]}?" if close else ""
            raise ValidationError(f"unknown config key {prefix}{key}{hint}")
    values = {}
    for key, (parse, default) in table.items():
        if key in block:
            values[key] = parse(block[key], prefix + key)
        elif default is REQUIRED:
            raise ValidationError(f"config missing required key {context}.{key}")
        else:
            values[key] = default
    return values


def _reader(table: dict, build=dict):
    """The parser of a block-valued key: the block read by ``table``,
    its values passed to ``build`` as keywords."""
    return lambda block, context: build(**read_block(block, context, table))


def _attacker(block, context: str) -> race.AttackerTimeModel:
    """A preset attacker or a custom one, read by the table of its form,
    where a key of the other form is unknown. Each given value is checked
    first, so a ``preset`` that is not a string is named as such."""
    read_block(block, context, PRESET_ATTACKER | CUSTOM_ATTACKER)
    if "preset" in block:
        attacker = read_block(block, context, PRESET_ATTACKER)
        try:
            return race.get_preset(attacker["preset"], cores=attacker["cores"])
        except KeyError as exc:
            raise ValidationError(str(exc)) from exc
        except ValueError as exc:  # a core count on a fixed-time preset
            raise ValidationError(f"{context}.cores: {exc}") from exc
    if "t_qc_s" in block or "name" in block:
        return race.AttackerTimeModel(
            **read_block(block, context, CUSTOM_ATTACKER))
    raise ValidationError(
        f"{context} must name a preset or define a custom time model")


# Block-valued keys that not every command reads are checked as objects
# here and read by the parse function of the command that uses them.
ROOT = {"system": (require_object, REQUIRED),
        "key_bits": (require_integer, KeyMaterial.DEFAULT_BITS),
        "efficiency": (require_number, 0.001),
        "sweep": (require_object, {}),
        "simulate": (require_object, {}),
        "race": (require_object, {})}
ADC = {"aperture_jitter_s": (require_number, REQUIRED),
       "explicit_bits": (_or(None, require_number), AdcSpec.explicit_bits)}
CHANNEL = {"snr_db": (_or("inf", require_number), None),
           "noise_var": (require_number, None)}
SYSTEM = {
    # validate() names a non-finite bandwidth, signal power or dynamic
    # range factor, so these three may parse to inf.
    "bandwidth_hz": (_number, REQUIRED),
    "signal_power": (_number, SystemParams.signal_power),
    "jamming_bits_per_symbol": (require_integer, REQUIRED),
    "dynamic_range_factor": (_number, SystemParams.dynamic_range_factor),
    "bob_adc": (_reader(ADC, AdcSpec), REQUIRED),
    "eve_adc": (_reader(ADC, AdcSpec), REQUIRED),
    "bob_channel": (_reader(CHANNEL), REQUIRED),
    "eve_channel": (_reader(CHANNEL), REQUIRED),
}
_BOUNDS = {"min": (require_number, REQUIRED), "max": (require_number, REQUIRED)}
VALUES_AXIS = {"values": (_number_list, REQUIRED)}
LINEAR_AXIS = _BOUNDS | {"step": (require_number, REQUIRED),
                         "spacing": (_choice("linear", "log"), "linear")}
LOG_AXIS = _BOUNDS | {"points": (require_integer, REQUIRED),
                      "spacing": (_choice("log"), "log")}
# Sweep kinds and their axes: "fig3a" maps a (bob SNR x eve SNR) grid of
# secrecy rates, "fig3b" maps minimum-bob-SNR thresholds over (jamming
# bits x eve jitter) with a noiseless eavesdropper.
SWEEP_AXES = {"fig3a": ("bob_snr_db", "eve_snr_db"),
              "fig3b": ("jamming_bits", "eve_jitter_s")}
SWEEP = {
    "which": (_choice(*SWEEP_AXES), REQUIRED),  # or the --which flag
    # Default axes are plot-scale estimates.
    "bob_snr_db": (require_object, {"min": 0.0, "max": 60.0, "step": 2.0}),
    "eve_snr_db": (require_object, {"min": 0.0, "max": 80.0, "step": 2.0}),
    "jamming_bits": (require_object, {"min": 1, "max": 20, "step": 1}),
    "eve_jitter_s": (require_object, {"min": 1e-15, "max": 500e-15,
                                      "points": 25, "spacing": "log"}),
}
KEM = {"mode": (_choice("toy-rsa", "passthrough"), "toy-rsa"),
       "bit_length": (_bounded(require_integer, kem.MIN_MODULUS_BITS,
                               kem.MAX_MODULUS_BITS), 64)}
SIMULATE = {
    # One symbol has no sample variance, so no effective SNR.
    "n_symbols": (_bounded(require_integer, 2), 100_000),
    "seed": (_bounded(require_integer, 0), 0),
    "cancellation_db": (_or("inf", _bounded(require_number, 0.0)), "inf"),
    "key_bits": (require_integer, None),  # None: the root's key_bits
    "kem": (_reader(KEM), read_block({}, "simulate.kem", KEM)),
    "jam_scale": (_or(None, _positive), None),
}
# The two forms of the attacker block: a preset (with a core count for
# the core-year presets), or a custom time model.
PRESET_ATTACKER = {"preset": (require_string, None),
                   "cores": (_bounded(require_integer, 1), 1)}
CUSTOM_ATTACKER = {"name": (require_string, "custom"),
                   "t_qc_s": (_or(None, require_number), None),
                   "note": (require_string, race.AttackerTimeModel.note)}
TREND = {key: (require_number, value)
         for key, value in vars(race.DEFAULT_TREND).items()}
RACE = {"attacker": (_attacker, REQUIRED),
        "trend": (_reader(TREND, race.JitterTrend), race.DEFAULT_TREND)}


def _root(config: dict) -> dict:
    return read_block(config, "<root>", ROOT)


def parse_system(config: dict) -> SystemParams:
    """The operating point, which :func:`params.validate` has passed: the
    same valid point for every command."""
    system = read_block(_root(config)["system"], "system", SYSTEM)
    for side in ("bob", "eve"):
        system[f"{side}_noise_var"] = _noise_var(
            system.pop(f"{side}_channel"), system["signal_power"],
            f"system.{side}_channel")
    return validate(SystemParams(**system))


def _noise_var(channel: dict, signal_power: float, context: str) -> float:
    noise_var, snr_db = channel["noise_var"], channel["snr_db"]
    if (snr_db is None) == (noise_var is None):
        raise ValidationError(
            f"{context} must set exactly one of 'snr_db' or 'noise_var'")
    if noise_var is None:
        return snr_to_noise_var(
            SnrPoint.infinite() if snr_db == "inf" else SnrPoint(snr_db),
            signal_power)
    # The operating point is echoed with its SNR, P / noise_var in dB.
    # A non-finite signal power is left for validate() to name.
    if (noise_var > 0 and math.isfinite(signal_power)
            and math.isinf(signal_power / noise_var)):
        raise ValidationError(
            f"{context}.noise_var of {noise_var!r} is out of range: its "
            f"SNR at signal power {signal_power!r} is not finite")
    return noise_var


def parse_exchange(config: dict) -> tuple:
    """The key exchange's ``(key_bits, efficiency)``."""
    root = _root(config)
    return root["key_bits"], root["efficiency"]


def parse_sweep(config: dict, which=None) -> tuple:
    """The sweep kind (``which`` overrides the config's) and its axes."""
    sweep = _root(config)["sweep"]
    sweep = read_block(sweep | {"which": which} if which else sweep,
                       "sweep", SWEEP)
    which = sweep["which"]
    axes = {name: parse_axis(sweep[name], f"sweep.{name}")
            for name in SWEEP_AXES[which]}
    cells = math.prod(map(len, axes.values()))
    if cells > MAX_SWEEP_CELLS:
        raise ValidationError(
            f"{' x '.join(f'sweep.{name}' for name in axes)}: {cells} cells, "
            f"more than {MAX_SWEEP_CELLS}")
    if which == "fig3b":
        axes["jamming_bits"] = [check_jamming_bits(
            require_integer(w, "sweep.jamming_bits"), "sweep.jamming_bits")
            for w in axes["jamming_bits"]]
    return which, axes


def parse_simulate(config: dict, seed=None) -> dict:
    """The simulate block (``seed`` overrides the config's), its
    ``key_bits`` falling back to the root's."""
    root = _root(config)
    simulate = root["simulate"]
    simulate = read_block(simulate if seed is None else simulate | {"seed": seed},
                          "simulate", SIMULATE)
    if simulate["n_symbols"] > MAX_SYMBOLS:
        raise ValidationError(f"simulate.n_symbols must be at most "
                              f"{MAX_SYMBOLS}, got {simulate['n_symbols']}")
    if simulate["key_bits"] is None:
        simulate["key_bits"] = root["key_bits"]
    if simulate["key_bits"] % 8:
        raise ValidationError(
            f"key_bits must be a multiple of 8, got {simulate['key_bits']}")
    # The session holds one amplitude per key bit, so a key is bounded
    # like a symbol stream.
    if not KeyMaterial.MIN_BITS <= simulate["key_bits"] <= MAX_SYMBOLS:
        raise ValidationError(
            f"key_bits must be in [{KeyMaterial.MIN_BITS}, {MAX_SYMBOLS}] for "
            f"simulate, got {simulate['key_bits']}")
    return simulate


def parse_race(config: dict) -> tuple:
    """The race's ``(attacker, trend)``."""
    block = read_block(_root(config)["race"], "race", RACE)
    return block["attacker"], block["trend"]


def system_to_dict(params: SystemParams) -> dict:
    """Echo an operating point in config-schema shape (noise as variances,
    with derived SNRs alongside for readability)."""
    # An unset explicit_bits is left out, as a config would leave it out.
    system = asdict(params, dict_factory=lambda items: {
        key: value for key, value in items
        if not (key == "explicit_bits" and value is None)})
    for side in ("bob", "eve"):
        noise_var = system.pop(f"{side}_noise_var")
        snr = noise_var_to_snr(noise_var, params.signal_power)
        system[f"{side}_channel"] = {
            "noise_var": noise_var,
            "snr_db": "inf" if snr.is_infinite else snr.snr_db}
    return system


def parse_axis(block, context: str) -> list:
    """An axis is an explicit value list, a linear min/max/step range, or a
    log-spaced min/max/points range; always strictly increasing."""
    require_object(block, context)
    if "values" in block:
        return read_block(block, context, VALUES_AXIS)["values"]
    log = block.get("spacing") == "log"
    axis = read_block(block, context, LOG_AXIS if log else LINEAR_AXIS)
    lo, hi = axis["min"], axis["max"]
    if hi < lo:
        raise ValidationError(f"{context}: max must be >= min")
    if log:
        points = axis["points"]
        if points < 1 or lo <= 0:
            raise ValidationError(f"{context}: log axis needs points >= 1 and min > 0")
        if points > MAX_SWEEP_CELLS:
            raise ValidationError(f"{context}: {points} points, more than "
                                  f"{MAX_SWEEP_CELLS}")
        if points == 1:
            return [lo]
        ratio = (hi / lo) ** (1.0 / (points - 1))
        return [lo * ratio ** i for i in range(points)]
    step = axis["step"]
    if not step > 0:
        raise ValidationError(f"{context}: step must be positive")
    # The point count is floor(span) + 1; span may overflow to inf.
    span = (hi - lo) / step + 1e-9
    if not span < MAX_SWEEP_CELLS:
        raise ValidationError(f"{context}: more than {MAX_SWEEP_CELLS} "
                              f"points at step {step!r}")
    count = int(math.floor(span)) + 1
    return [lo + i * step for i in range(count)]
