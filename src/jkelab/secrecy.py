"""Secrecy-rate engine.

Analytical lower bound on the secrecy rate of the jammed wiretap channel,
the resulting key-exchange duration, a closed-form threshold for the
minimum legitimate-channel SNR with positive secrecy, and the sweep
drivers that map those quantities over parameter grids.

The two log terms are deliberately asymmetric: the legitimate receiver's
quantization noise enters as step^2/12 on both sides of its ratio, while
the eavesdropper's noise floor uses step^2/(2*pi*e); the bound is
implemented exactly as stated, not "corrected". Both terms are log1p(x)/ln 2,
with the eavesdropper's x = K - 1 formed directly, not as a rounded K minus 1.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from enum import Enum

from . import adc
from .params import SnrPoint, SystemParams, ValidationError, snr_to_noise_var

_LN2 = math.log(2.0)


class NoPositiveSecrecyError(ValueError):
    """Raised when an operation needs a positive secrecy rate and the
    operating point does not provide one."""


def positive_rate(rate: float) -> bool:
    """Whether a key exchange can run at this rate (0, -0.0, NaN: no)."""
    return rate > 0.0  # not 0: float against float is the faster comparison


@dataclass(frozen=True, slots=True)
class SecrecyReport:
    """Secrecy-rate lower bound at one operating point, with the per-term
    decomposition. ``rate_bits_per_s`` may be negative: the raw bound is
    meaningful for display, but rate-consuming operations must refuse it.
    """

    bandwidth_hz: float
    rate_bits_per_s: float
    bob_term_bits: float
    eve_term_bits: float
    delta_b: float
    delta_e: float

    @property
    def positive(self) -> bool:
        return positive_rate(self.rate_bits_per_s)

    def to_dict(self) -> dict:
        return asdict(self) | {"positive": self.positive}


@dataclass(frozen=True)
class JkeTiming:
    """How long the jamming key exchange takes to move ``key_bits`` secret
    bits at a given protocol efficiency."""

    key_bits: int
    efficiency: float
    duration_s: float

    def to_dict(self) -> dict:
        return dict(vars(self))


def _eve_excess(p: float, eve_noise_var: float, delta_e: float) -> tuple:
    """(numerator, floor) of Eve's K - 1: the numerator, formed directly,
    is P + step^2/12 - step^2/(2*pi*e) > 0, as 1/12 > 1/(2*pi*e)."""
    quant = delta_e ** 2 / adc.TWO_PI_E
    eve_floor = eve_noise_var + quant
    if eve_floor == 0:
        raise ValidationError(
            "eve noise variance and quantization step cannot both be zero")
    return p + (delta_e ** 2 / 12.0 - quant), eve_floor


def _resolutions(params: SystemParams) -> tuple:
    """(delta_b, delta_e): both receivers' quantization steps at ``params``."""
    p, l = params.signal_power, params.dynamic_range_factor
    return (adc.bob_resolution(p, params.bob_bits(), l),
            adc.eve_resolution(p, params.eve_bits(),
                               params.jamming_bits_per_symbol, l))


def secrecy_rate(params: SystemParams) -> SecrecyReport:
    """Evaluate the secrecy-rate lower bound at ``params``.

    Only the terms the bound needs are checked here; run
    :func:`jkelab.params.validate` first for every operating-point
    invariant, such as a positive bandwidth.
    """
    p = params.signal_power
    delta_b, delta_e = _resolutions(params)

    bob_floor = params.bob_noise_var + delta_b ** 2 / 12.0
    if bob_floor == 0:
        raise ValidationError(
            "bob noise variance and quantization step cannot both be zero")
    bob_term = math.log1p(p / bob_floor) / _LN2
    numerator, eve_floor = _eve_excess(p, params.eve_noise_var, delta_e)
    eve_term = math.log1p(numerator / eve_floor) / _LN2
    rate = _finite_rate(params.bandwidth_hz, bob_term, eve_term)
    return SecrecyReport(params.bandwidth_hz, rate, bob_term, eve_term,
                         delta_b, delta_e)


def _finite_rate(bandwidth: float, bob_term: float, eve_term: float) -> float:
    """The rate ``bandwidth * (bob_term - eve_term)``, rejected when it is
    not a finite float, never reported as inf."""
    rate = bandwidth * (bob_term - eve_term)
    if not math.isfinite(rate):
        raise ValidationError(
            f"secrecy rate at bandwidth {bandwidth!r} Hz with log terms "
            f"{bob_term!r} and {eve_term!r} bits is out of range: it is not "
            f"a finite float")
    return rate


def jke_duration(report: SecrecyReport, key_bits: int, efficiency: float) -> JkeTiming:
    """Duration of a key exchange for ``key_bits`` secret bits when the
    protocol extracts ``efficiency`` of the raw secrecy rate. A duration
    that is not a finite float is rejected, never reported as inf."""
    if not key_bits >= 1:
        raise ValidationError("key bits must be at least 1")
    if not 0 < efficiency <= 1:
        raise ValidationError("efficiency must be in (0, 1]")
    if not report.positive:
        raise NoPositiveSecrecyError(
            "no positive secrecy at this operating point")
    try:
        duration = key_bits / (efficiency * report.rate_bits_per_s)
    except ZeroDivisionError:  # efficiency * rate underflows to 0
        duration = math.inf
    if not math.isfinite(duration):
        raise ValidationError(
            f"exchange duration of {key_bits} key bits at efficiency "
            f"{efficiency!r} is out of range: it is not a finite float")
    return JkeTiming(key_bits, efficiency, duration)


class ThresholdKind(str, Enum):
    THRESHOLD = "threshold"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True, slots=True)
class SnrThreshold:
    """Minimum legitimate-channel SNR with positive secrecy, ``snr_db``. Eve's
    K - 1 is formed directly and is positive, so the kind is ``THRESHOLD``
    unless it is ``INFEASIBLE``: the legitimate receiver's own quantizer is
    already too coarse, no channel SNR helps, and ``snr_db`` is None."""

    kind: ThresholdKind
    snr_db: float | None = None

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "snr_db": self.snr_db}


def min_bob_snr_for_positive_rs(params: SystemParams) -> SnrThreshold:
    """Closed-form threshold on the legitimate channel's SNR above which
    the secrecy rate is positive; ``params.bob_noise_var`` is ignored.

    With K the eavesdropper's signal-to-floor ratio, positive secrecy
    needs the legitimate total noise below P/(K-1), less the fixed
    quantization share; a threshold that is not a finite float is rejected.
    """
    return _threshold(params.signal_power, *_resolutions(params),
                      params.eve_noise_var)


_INFEASIBLE = SnrThreshold(ThresholdKind.INFEASIBLE)


def _as_threshold(snr_db: float | None) -> SnrThreshold:
    """The threshold at ``snr_db``, or ``_INFEASIBLE`` for None."""
    return (_INFEASIBLE if snr_db is None
            else SnrThreshold(ThresholdKind.THRESHOLD, snr_db))


def _threshold(p: float, delta_b: float, delta_e: float,
               eve_noise_var: float) -> SnrThreshold:
    return _as_threshold(_min_snr_db(p, delta_b ** 2 / 12.0, delta_e,
                                     eve_noise_var))


def _min_snr_db(p: float, bob_quant: float, delta_e: float,
                eve_noise_var: float) -> float | None:
    """The minimum legitimate SNR in dB with positive secrecy, or None where
    it is infeasible; ``bob_quant`` is the legitimate receiver's
    step^2/12."""
    numerator, eve_floor = _eve_excess(p, eve_noise_var, delta_e)
    channel_noise = eve_floor * (p / numerator) - bob_quant
    if channel_noise <= 0:
        return None
    snr = p / channel_noise
    if not sys.float_info.min <= snr < math.inf:  # 0, subnormal or inf
        raise ValidationError(
            f"minimum bob SNR at eve noise variance {eve_noise_var!r} is out "
            "of range: its linear value is not a positive normal float")
    return 10.0 * math.log10(snr)


def _check_axis(name: str, values, integer: bool = False) -> tuple:
    """``values`` as a tuple of finite floats, or with ``integer`` of ints
    >= 0; a bool, a string or (with ``integer``) a float is rejected, not
    coerced."""
    vals = tuple(values)
    if not vals:
        raise ValidationError(f"{name} axis must be non-empty")
    kind, what = ((numbers.Integral, "non-negative integers") if integer
                  else (numbers.Real, "real numbers"))
    if not all(isinstance(v, kind) and not isinstance(v, bool)
               and (not integer or v >= 0) for v in vals):
        raise ValidationError(f"{name} axis values must be {what}")
    try:
        vals = tuple(map(int if integer else float, vals))
        finite = integer or all(map(math.isfinite, vals))
    except OverflowError:  # an int past the float range, such as 10**400
        finite = False
    if not finite:
        raise ValidationError(f"{name} axis values must be finite")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ValidationError(f"{name} axis must be strictly increasing")
    return vals


@dataclass(frozen=True, slots=True)
class RateCells(Sequence):
    """A swept rate grid's cells as its factors: Bob's report per row, Eve's
    per column, and the rates. ``cells[i][j]`` is the report with the rate
    ``rates[i][j]`` and the row's and column's other values; each row is
    built as a tuple of reports only when it is read."""

    bob_reports: tuple
    eve_reports: tuple
    rates: tuple  # rates[i][j]: bandwidth * (bob term i - eve term j)

    def _row(self, bob: SecrecyReport, rates: tuple) -> tuple:
        return tuple([SecrecyReport(bob.bandwidth_hz, rate, bob.bob_term_bits,
                                    eve.eve_term_bits, bob.delta_b, eve.delta_e)
                      for eve, rate in zip(self.eve_reports, rates)])

    def __len__(self) -> int:
        return len(self.rates)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._row, self.bob_reports[index],
                             self.rates[index]))
        return self._row(self.bob_reports[index], self.rates[index])


@dataclass(frozen=True)
class RateSweepGrid:
    """Secrecy-rate reports over a (legitimate SNR x eavesdropper SNR)
    grid, plus per eavesdropper-SNR column the :class:`SnrThreshold` where
    the rate turns positive, which may lie off the legitimate-SNR axis.

    ``cells`` is a :class:`RateCells`: one report per row and per column
    and a matrix of rates, which the grid writers format directly."""

    bob_snr_db: tuple
    eve_snr_db: tuple
    cells: RateCells  # cells[i][j] -> SecrecyReport at (bob_snr_db[i], eve_snr_db[j])
    zero_crossing_bob_snr_db: tuple  # one SnrThreshold per eve_snr_db column


@dataclass(frozen=True, slots=True)
class ThresholdCells(Sequence):
    """A swept threshold grid's cells as their SNRs: ``snr_db[i][j]`` is
    the threshold in dB, or None where it is infeasible. ``cells[i]`` is
    row i as a tuple of :class:`SnrThreshold`, built only when it is read;
    its infeasible cells are all ``_INFEASIBLE``."""

    snr_db: tuple  # one tuple of floats and Nones per row

    def __len__(self) -> int:
        return len(self.snr_db)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(tuple(map(_as_threshold, row))
                         for row in self.snr_db[index])
        return tuple(map(_as_threshold, self.snr_db[index]))


def _snr_of(cell: SnrThreshold) -> float | None:
    """``cell``'s SNR, None exactly when it is infeasible."""
    if (cell.kind is ThresholdKind.INFEASIBLE) != (cell.snr_db is None):
        raise ValueError(f"{cell!r} is neither a threshold with an SNR nor "
                         "infeasible without one")
    return cell.snr_db


@dataclass(frozen=True)
class ThresholdSweepGrid:
    """Minimum legitimate-SNR thresholds over a (jamming bits x
    eavesdropper jitter) grid, for a noiseless eavesdropper channel.

    ``cells`` is a :class:`ThresholdCells`, which the grid writers format
    directly; rows of :class:`SnrThreshold`s given instead are kept as
    one."""

    jamming_bits: tuple
    eve_jitter_s: tuple
    cells: ThresholdCells  # cells[i][j] -> SnrThreshold at (jamming_bits[i], eve_jitter_s[j])

    def __post_init__(self):
        if not isinstance(self.cells, ThresholdCells):
            object.__setattr__(self, "cells", ThresholdCells(tuple(
                tuple(map(_snr_of, row)) for row in self.cells)))


def sweep_rate_vs_snr(template: SystemParams, bob_snr_db, eve_snr_db) -> RateSweepGrid:
    """Evaluate the secrecy rate over a rectangular SNR grid, legitimate-SNR
    index outer. Only the noise varies, so each log term is evaluated once
    per axis point (first row, then first column: the order a per-cell loop
    meets them) and each cell's rate combines them as :func:`secrecy_rate`
    does. The grid keeps those reports and the rates as :class:`RateCells`
    and builds no report per cell. Each column's crossing is the closed-form
    threshold at its eavesdropper noise, as
    :func:`min_bob_snr_for_positive_rs` gives it."""
    bob_axis = _check_axis("bob SNR", bob_snr_db)
    eve_axis = _check_axis("eve SNR", eve_snr_db)
    p = template.signal_power

    def noise(snr_db):
        return snr_to_noise_var(SnrPoint(snr_db), p)

    first_row = template.with_bob_noise_var(noise(bob_axis[0]))
    eve_reports = [secrecy_rate(first_row.with_eve_noise_var(noise(se)))
                   for se in eve_axis]
    first_col = template.with_eve_noise_var(noise(eve_axis[0]))
    bob_reports = eve_reports[:1] + [
        secrecy_rate(first_col.with_bob_noise_var(noise(sb)))
        for sb in bob_axis[1:]]
    # The rate is monotone in the term difference, so if the two extreme
    # cells are finite, every cell is.
    bob_terms = [b.bob_term_bits for b in bob_reports]
    eve_terms = [e.eve_term_bits for e in eve_reports]
    _finite_rate(template.bandwidth_hz, max(bob_terms), min(eve_terms))
    _finite_rate(template.bandwidth_hz, min(bob_terms), max(eve_terms))
    rates = tuple(
        tuple([b.bandwidth_hz * (bob_term - eve_term) for eve_term in eve_terms])
        for b, bob_term in zip(bob_reports, bob_terms))
    crossings = tuple(_threshold(p, bob_reports[0].delta_b, eve.delta_e, noise(se))
                      for se, eve in zip(eve_axis, eve_reports))
    return RateSweepGrid(bob_axis, eve_axis,
                         RateCells(tuple(bob_reports), tuple(eve_reports), rates),
                         crossings)


def sweep_min_bob_snr(template: SystemParams, jamming_bits, eve_jitter_s) -> ThresholdSweepGrid:
    """Evaluate the positive-secrecy SNR threshold over a (jamming bits x
    eavesdropper jitter) grid with a noiseless eavesdropper channel. Eve's
    ENOB is taken once per jitter and her steps over the grid by
    :func:`adc.eve_resolutions`, so each cell only combines floats as
    :func:`min_bob_snr_for_positive_rs` does; the grid keeps the SNRs as
    :class:`ThresholdCells` and builds no threshold per cell."""
    w_axis = _check_axis("jamming bits", jamming_bits, integer=True)
    jitter_axis = _check_axis("eve jitter", eve_jitter_s)
    if any(v <= 0 for v in jitter_axis):
        raise ValidationError("eve jitter axis values must be positive")

    p, l = template.signal_power, template.dynamic_range_factor
    bob_quant = adc.bob_resolution(p, template.bob_bits(), l) ** 2 / 12.0
    # ENOB from the jitter alone: an explicit-bits override on the
    # template's eavesdropper ADC must not pin the whole jitter axis.
    eve_bits = [adc.enob_from_jitter(template.bandwidth_hz, jitter)
                for jitter in jitter_axis]
    rows = tuple(tuple([_min_snr_db(p, bob_quant, delta_e, 0.0)
                        for delta_e in steps])
                 for steps in adc.eve_resolutions(p, eve_bits, w_axis, l))
    return ThresholdSweepGrid(w_axis, jitter_axis, ThresholdCells(rows))
