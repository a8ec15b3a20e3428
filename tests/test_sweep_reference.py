"""Whole sweep grids against the per-cell reference.

The sweep drivers evaluate each log term once per axis point; the
reference below is the per-cell form they replaced: one ``SystemParams``
per cell (and a fresh eavesdropper ``AdcSpec`` per fig3b cell) passed to
``secrecy_rate`` or ``min_bob_snr_for_positive_rs``. Every cell must have
the same ``repr``, so a moved bit, a -0.0 for a 0.0 or an int for a float
fails. Each column's zero-rate crossing must have the ``repr`` of
``min_bob_snr_for_positive_rs`` at that column's eavesdropper noise: its
kind and its SNR, wherever it lies against the legitimate-SNR axis.
"""

import random
from dataclasses import replace

import pytest

from jkelab import config as cfg
from jkelab.params import AdcSpec, SnrPoint, SystemParams, snr_to_noise_var
from jkelab.secrecy import (_INFEASIBLE, ThresholdCells, ThresholdKind,
                            ThresholdSweepGrid, min_bob_snr_for_positive_rs,
                            secrecy_rate, sweep_min_bob_snr, sweep_rate_vs_snr)


def reference_rate_grid(template, bob_axis, eve_axis):
    p = template.signal_power
    rows = []
    for sb in bob_axis:
        params_b = template.with_bob_noise_var(snr_to_noise_var(SnrPoint(sb), p))
        rows.append(tuple(
            secrecy_rate(params_b.with_eve_noise_var(
                snr_to_noise_var(SnrPoint(se), p)))
            for se in eve_axis))
    crossings = tuple(
        min_bob_snr_for_positive_rs(
            template.with_eve_noise_var(snr_to_noise_var(SnrPoint(se), p)))
        for se in eve_axis)
    return tuple(rows), crossings


def reference_threshold_grid(template, w_axis, jitter_axis):
    base = template.with_eve_noise_var(0.0)
    return tuple(
        tuple(min_bob_snr_for_positive_rs(
            replace(base, jamming_bits_per_symbol=w,
                    eve_adc=AdcSpec(aperture_jitter_s=jitter)))
              for jitter in jitter_axis)
        for w in w_axis)


def assert_same_cells(cells, expected):
    assert len(cells) == len(expected)
    for i, (row, ref_row) in enumerate(zip(cells, expected)):
        assert repr(row) == repr(ref_row), f"row {i} differs"


def check_rate_sweep(template, bob_axis, eve_axis):
    grid = sweep_rate_vs_snr(template, bob_axis, eve_axis)
    cells, crossings = reference_rate_grid(template, bob_axis, eve_axis)
    assert_same_cells(grid.cells, cells)
    assert repr(grid.zero_crossing_bob_snr_db) == repr(crossings)
    return grid


def check_threshold_sweep(template, w_axis, jitter_axis):
    grid = sweep_min_bob_snr(template, w_axis, jitter_axis)
    assert_same_cells(grid.cells, reference_threshold_grid(
        template, w_axis, jitter_axis))
    return grid


def linear(lo, hi, step):
    return cfg.parse_axis({"min": lo, "max": hi, "step": step}, "axis")


def log(lo, hi, points):
    return cfg.parse_axis({"min": lo, "max": hi, "points": points,
                           "spacing": "log"}, "axis")


def shipped(name):
    config = cfg.load_config(name)
    axes = [cfg.parse_axis(block, name)
            for key, block in config["sweep"].items() if key != "which"]
    return cfg.parse_system(config), axes


def test_shipped_fig3a_axes():
    template, (bob_axis, eve_axis) = shipped("fig3a")
    grid = check_rate_sweep(template, bob_axis, eve_axis)
    # The 0 dB column's crossing lies just below the axis, and is not
    # clamped to it.
    crossings = [c.snr_db for c in grid.zero_crossing_bob_snr_db]
    assert crossings[0] < bob_axis[0] < crossings[1]


def test_fig3a_crossing_does_not_depend_on_the_bob_step():
    # A crossing is the closed form, not read off the grid, so the Bob step
    # cannot move it.
    template, (bob_axis, eve_axis) = shipped("fig3a")
    fine = check_rate_sweep(template, bob_axis, eve_axis)
    coarse = check_rate_sweep(template, linear(0.0, 60.0, 10.0), eve_axis)
    assert coarse.zero_crossing_bob_snr_db == fine.zero_crossing_bob_snr_db


def test_fig3a_crossings_of_every_kind():
    # At an Eve SNR of -200 dB her K - 1 is tiny but positive, so the
    # crossing lies near -200 dB; with a 2-bit Bob ADC no Bob SNR helps.
    template, _ = shipped("fig3a")
    eve_axis = [-200.0, -10.0, 0.0, 40.0, 80.0]
    grid = check_rate_sweep(template, linear(10.0, 20.0, 5.0), eve_axis)
    kinds = [c.kind for c in grid.zero_crossing_bob_snr_db]
    assert kinds == [ThresholdKind.THRESHOLD] * 5
    snrs = [c.snr_db for c in grid.zero_crossing_bob_snr_db]
    assert snrs[0] == pytest.approx(-199.99829429948338, abs=1e-12)
    assert snrs[0] < snrs[1] < snrs[2] < 10.0 < 20.0 < snrs[3] < snrs[4]
    coarse_bob = replace(template, bob_adc=AdcSpec(500e-15, explicit_bits=2))
    grid = check_rate_sweep(coarse_bob, linear(0.0, 60.0, 10.0), eve_axis)
    kinds = [c.kind for c in grid.zero_crossing_bob_snr_db]
    assert kinds == [ThresholdKind.THRESHOLD] * 3 + [ThresholdKind.INFEASIBLE] * 2


def test_shipped_fig3b_axes():
    template, (w_axis, jitter_axis) = shipped("fig3b")
    check_threshold_sweep(template, [int(w) for w in w_axis], jitter_axis)


def test_threshold_cells_read_as_the_rows_they_replace():
    template, _ = shipped("fig3b")
    w_axis, jitter_axis = [0, 1, 8, 14, 20, 32], [1e-15, 5e-14, 5e-13, 1e-9]
    cells = sweep_min_bob_snr(template, w_axis, jitter_axis).cells
    rows = reference_threshold_grid(template, w_axis, jitter_axis)
    assert isinstance(cells, ThresholdCells)
    assert len(cells) == len(rows) == 6
    for i in range(-len(rows), len(rows)):
        assert repr(cells[i]) == repr(rows[i])
    for part in (slice(1, 4), slice(None, None, -2), slice(4, 40), slice(3, 1)):
        assert repr(cells[part]) == repr(rows[part])
    assert repr(tuple(cells)) == repr(rows)
    assert repr(list(reversed(cells))) == repr(list(reversed(rows)))
    with pytest.raises(IndexError):
        cells[len(rows)]
    kinds = {cell.kind for row in rows for cell in row}
    assert kinds == set(ThresholdKind)
    infeasible = [cell for row in cells for cell in row
                  if cell.kind is ThresholdKind.INFEASIBLE]
    assert all(cell is _INFEASIBLE for cell in infeasible)
    # Rows of thresholds given by hand are kept as the same cells.
    assert ThresholdSweepGrid(tuple(w_axis), tuple(jitter_axis),
                              rows).cells == cells


def test_random_fig3b_grids_match_the_reference():
    # Seeded grids with w in 0..32 and jitter from 1e-18 to 1e-9 s, at
    # random signal powers and dynamic range factors: each crosses the
    # infeasible boundary, which the reference must be matched on both
    # sides of.
    rng = random.Random(2323)
    shipped_template, _ = shipped("fig3b")
    for _ in range(25):
        template = replace(shipped_template,
                           signal_power=10.0 ** rng.uniform(-3.0, 3.0),
                           dynamic_range_factor=rng.uniform(1.0, 6.0))
        w_axis = sorted(rng.sample(range(33), rng.randint(8, 20)))
        jitter_axis = sorted({10.0 ** rng.uniform(-18.0, -9.0)
                              for _ in range(rng.randint(8, 20))})
        grid = check_threshold_sweep(template, w_axis, jitter_axis)
        kinds = {cell.kind for row in grid.cells for cell in row}
        assert kinds == set(ThresholdKind)


@pytest.mark.parametrize("bandwidth_hz", [1e6, 2e9])
def test_fig3a_explicit_bits_from_negative_snr(bandwidth_hz):
    template = SystemParams(
        bandwidth_hz=bandwidth_hz, jamming_bits_per_symbol=8,
        bob_adc=AdcSpec(500e-15, explicit_bits=13.37),
        eve_adc=AdcSpec(5e-15, explicit_bits=27.5),
        bob_noise_var=0.0, eve_noise_var=0.0,
        signal_power=7.5, dynamic_range_factor=4.0)
    grid = check_rate_sweep(template, linear(-20.0, 100.0, 1.25),
                            linear(-20.0, 120.0, 1.4))
    rates = [cell.rate_bits_per_s for row in grid.cells for cell in row]
    assert min(rates) < 0 < max(rates)


def test_fig3b_ignores_eve_noise_and_explicit_bits():
    template = SystemParams(
        bandwidth_hz=40e6, jamming_bits_per_symbol=14,
        bob_adc=AdcSpec(500e-15), eve_adc=AdcSpec(5e-15, explicit_bits=30.0),
        bob_noise_var=1e-3, eve_noise_var=1e-8,
        signal_power=0.3, dynamic_range_factor=1.0)
    grid = check_threshold_sweep(template, list(range(41)),
                                 log(1e-16, 5e-10, 150))
    kinds = {cell.kind.value for row in grid.cells for cell in row}
    assert kinds == {"threshold", "infeasible"}


def test_zero_bandwidth_refused_as_by_the_reference():
    # ENOB from jitter has no value at zero bandwidth, in the sweep as in
    # the per-cell reference.
    template = SystemParams(
        bandwidth_hz=0.0, jamming_bits_per_symbol=14,
        bob_adc=AdcSpec(500e-15), eve_adc=AdcSpec(5e-15),
        bob_noise_var=0.0, eve_noise_var=0.0)
    for sweep in (sweep_rate_vs_snr, reference_rate_grid):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            sweep(template, linear(-20.0, 60.0, 10.0), [0.0, 40.0, 80.0])
