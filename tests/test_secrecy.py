import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jkelab import (AdcSpec, NoPositiveSecrecyError, SecrecyReport,
                    SystemParams, ThresholdKind, ValidationError,
                    jke_duration, min_bob_snr_for_positive_rs, secrecy_rate,
                    sweep_min_bob_snr, sweep_rate_vs_snr)
from jkelab import output, secrecy
from jkelab.adc import TWO_PI_E

from conftest import HEADLINE_POINT
from test_sweep_reference import reference_rate_grid

# frozen from a 50-digit arbitrary-precision evaluation of the full bound
HEADLINE_RATE = 22222131.2379162
HEADLINE_DURATION_S = 0.0115200471664574
NOISELESS_EVE_THRESHOLD_DB = 30.3262689106286  # noiseless-Eve threshold, same oracle


def bisect_threshold_db(params: SystemParams, lo_db=-60.0, hi_db=600.0,
                        tol_db=1e-4):
    """Independent oracle: bisect the sign change of the secrecy rate over
    the legitimate channel's SNR. Returns None when even an essentially
    noiseless channel stays non-positive (quantizer-limited)."""
    p = params.signal_power

    def rate_at(db: float) -> float:
        return secrecy_rate(
            params.with_bob_noise_var(p / 10 ** (db / 10))).rate_bits_per_s

    if rate_at(hi_db) <= 0:
        return None
    assert rate_at(lo_db) <= 0, "bracket must start non-positive"
    lo, hi = lo_db, hi_db
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if rate_at(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestSecrecyRate:
    def test_headline_operating_point(self, headline_params):
        report = secrecy_rate(headline_params)
        assert report.rate_bits_per_s == pytest.approx(HEADLINE_RATE, rel=1e-12)
        assert report.positive

    def test_decomposition_identity(self, headline_params):
        r = secrecy_rate(headline_params)
        assert r.rate_bits_per_s == r.bandwidth_hz * (r.bob_term_bits
                                                      - r.eve_term_bits)

    @pytest.mark.parametrize("rate, positive", [
        (1.0, True), (5e-324, True), (math.inf, True), (0.0, False),
        (-0.0, False), (-5e-324, False), (-math.inf, False), (math.nan, False)],
        ids=repr)
    def test_positive_rate(self, rate, positive):
        assert secrecy.positive_rate(rate) is positive
        assert SecrecyReport(1.0, rate, 0.0, 0.0, 0.0, 0.0).positive is positive

    def test_report_keeps_no_instance_dict(self, headline_params):
        # Reading a row of a sweep grid builds one report per cell.
        report = secrecy_rate(headline_params)
        assert not hasattr(report, "__dict__")
        assert not hasattr(min_bob_snr_for_positive_rs(headline_params),
                           "__dict__")
        assert list(report.to_dict()) == [
            field.name for field in dataclasses.fields(report)] + ["positive"]

    def test_zero_bandwidth_rejected_where_bits_come_from_jitter(
            self, headline_params):
        # validate() refuses a zero bandwidth; without it, ENOB from jitter
        # has no value there, and explicit bits give the plain formula.
        zero = dataclasses.replace(headline_params, bandwidth_hz=0.0)
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            secrecy_rate(zero)
        report = secrecy_rate(dataclasses.replace(
            zero, bob_adc=AdcSpec(500e-15, explicit_bits=12.0),
            eve_adc=AdcSpec(5e-15, explicit_bits=20.0)))
        assert report.rate_bits_per_s == 0.0 and report.delta_b > 0
        assert not report.positive

    def test_symmetric_receivers_without_jamming_is_negative(self, headline_params):
        # identical ADCs and noise on both sides, no jamming: the
        # eavesdropper's milder noise-floor denominator (2*pi*e > 12)
        # forces a negative bound
        point = dataclasses.replace(
            headline_params, jamming_bits_per_symbol=0,
            eve_adc=headline_params.bob_adc,
            eve_noise_var=headline_params.bob_noise_var)
        assert secrecy_rate(point).rate_bits_per_s < 0

    def test_deltas_match_adc_model(self, headline_params):
        from jkelab import bob_resolution, eve_resolution
        r = secrecy_rate(headline_params)
        assert r.delta_b == bob_resolution(1.0, headline_params.bob_bits(), 2.5)
        assert r.delta_e == eve_resolution(1.0, headline_params.eve_bits(), 14, 2.5)

    def test_explicit_bits_override_respected(self, headline_params):
        point = dataclasses.replace(
            headline_params, bob_adc=AdcSpec(500e-15, explicit_bits=8.0))
        assert secrecy_rate(point).delta_b == pytest.approx(5.0 / 2 ** 8)

    @given(st.floats(min_value=-20, max_value=60),
           st.floats(min_value=0.1, max_value=20.0))
    @settings(max_examples=50)
    def test_rate_increases_as_bob_noise_drops(self, snr_db, drop_db):
        params = SystemParams(**HEADLINE_POINT)
        noisy = params.with_bob_noise_var(10 ** (-snr_db / 10))
        quieter = params.with_bob_noise_var(10 ** (-(snr_db + drop_db) / 10))
        assert (secrecy_rate(quieter).rate_bits_per_s
                > secrecy_rate(noisy).rate_bits_per_s)

    @given(st.integers(min_value=0, max_value=25),
           st.floats(min_value=0.0, max_value=60.0))
    @settings(max_examples=50)
    def test_rate_increases_in_jamming_bits(self, w, eve_snr_db):
        # restricted to eavesdropper SNR >= 0 dB, where widening the
        # eavesdropper's step is guaranteed to hurt them
        params = SystemParams(**HEADLINE_POINT).with_eve_noise_var(
            10 ** (-eve_snr_db / 10))
        low = dataclasses.replace(params, jamming_bits_per_symbol=w)
        high = dataclasses.replace(params, jamming_bits_per_symbol=w + 1)
        assert (secrecy_rate(high).rate_bits_per_s
                > secrecy_rate(low).rate_bits_per_s)

    @given(st.floats(min_value=1e-15, max_value=400e-15),
           st.floats(min_value=1.05, max_value=10.0))
    @settings(max_examples=50)
    def test_rate_non_increasing_as_eve_jitter_shrinks(self, jitter, factor):
        params = SystemParams(**HEADLINE_POINT)
        sharp = dataclasses.replace(params, eve_adc=AdcSpec(jitter))
        blunt = dataclasses.replace(params, eve_adc=AdcSpec(jitter * factor))
        assert (secrecy_rate(sharp).rate_bits_per_s
                <= secrecy_rate(blunt).rate_bits_per_s)

    def test_eve_term_saturates_for_overwhelming_jamming(self, headline_params):
        # with b_E - w <= -10 the eavesdropper term equals its direct
        # evaluation at the (huge) step and sits just above log2(2*pi*e/12)
        point = dataclasses.replace(
            headline_params, jamming_bits_per_symbol=15,
            eve_adc=AdcSpec(5e-15, explicit_bits=5.0), eve_noise_var=0.0)
        r = secrecy_rate(point)
        direct = math.log2((1.0 + r.delta_e ** 2 / 12.0)
                           / (r.delta_e ** 2 / TWO_PI_E))
        assert r.eve_term_bits == pytest.approx(direct, abs=1e-6)
        assert r.eve_term_bits > math.log2(TWO_PI_E / 12.0)


class TestJkeDuration:
    def test_headline_duration(self, headline_params):
        timing = jke_duration(secrecy_rate(headline_params), 256, 0.001)
        assert timing.duration_s == pytest.approx(HEADLINE_DURATION_S, rel=1e-12)
        # headline number: approx 11.52 ms
        assert timing.duration_s == pytest.approx(11.52e-3, rel=5e-3)

    def test_unit_ratio(self):
        report = SecrecyReport(1.0, 256.0, 256.0, 0.0, 0.0, 0.0)
        assert jke_duration(report, 256, 1.0).duration_s == pytest.approx(1.0)

    def test_negative_rate_refused(self):
        report = SecrecyReport(1.0, -1.0, 0.0, 1.0, 0.0, 0.0)
        with pytest.raises(NoPositiveSecrecyError, match="no positive secrecy"):
            jke_duration(report, 256, 0.001)

    def test_bad_efficiency_rejected(self, headline_params):
        report = secrecy_rate(headline_params)
        for eff in (0.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                jke_duration(report, 256, eff)
        with pytest.raises(ValidationError):
            jke_duration(report, 0, 0.001)

    @pytest.mark.parametrize("rate", [0.0, -0.0, 5e-324, -5e-324, math.nan],
                             ids=repr)
    def test_refused_exactly_when_the_report_is_not_positive(self, rate):
        # A NaN rate once passed the refusal while its report read as not
        # positive.
        report = SecrecyReport(1.0, rate, 0.0, 0.0, 0.0, 0.0)
        try:
            jke_duration(report, 1, 1.0)
            refused = False
        except NoPositiveSecrecyError:
            refused = True
        except ValidationError:  # 1 / 5e-324 is no finite duration
            refused = False
        assert refused is not report.positive

    @pytest.mark.parametrize("rate", [1e8, 0.25],
                             ids=["quotient-overflows", "product-underflows"])
    def test_nonfinite_duration_rejected(self, rate):
        report = SecrecyReport(1.0, rate, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValidationError, match="of 256 key bits at "
                           "efficiency 5e-324 is out of range"):
            jke_duration(report, 256, 5e-324)


class TestMinBobSnr:
    def test_noiseless_eve_threshold_frozen(self, headline_params):
        thr = min_bob_snr_for_positive_rs(headline_params.with_eve_noise_var(0.0))
        assert thr.kind is ThresholdKind.THRESHOLD
        assert thr.snr_db == pytest.approx(NOISELESS_EVE_THRESHOLD_DB, rel=1e-12)

    def test_matches_bisection_oracle(self, headline_params):
        point = headline_params.with_eve_noise_var(0.0)
        thr = min_bob_snr_for_positive_rs(point)
        oracle = bisect_threshold_db(point)
        assert abs(thr.snr_db - oracle) < 0.01

    def test_rate_sign_flips_at_threshold(self, headline_params):
        point = headline_params.with_eve_noise_var(0.0)
        thr = min_bob_snr_for_positive_rs(point).snr_db
        above = point.with_bob_noise_var(10 ** (-(thr + 0.01) / 10))
        below = point.with_bob_noise_var(10 ** (-(thr - 0.01) / 10))
        assert secrecy_rate(above).rate_bits_per_s > 0
        assert secrecy_rate(below).rate_bits_per_s < 0

    def test_overwhelmed_eve_gives_low_threshold(self, headline_params):
        # b_E - w <= 0: tiny eavesdropper ratio, threshold below 0 dB
        point = dataclasses.replace(
            headline_params.with_eve_noise_var(0.0),
            eve_adc=AdcSpec(5e-15, explicit_bits=10.0),
            jamming_bits_per_symbol=14)
        thr = min_bob_snr_for_positive_rs(point)
        oracle = bisect_threshold_db(point)
        assert thr.kind is ThresholdKind.THRESHOLD
        assert abs(thr.snr_db - oracle) < 0.01
        assert thr.snr_db < 0

    def test_infeasible_when_bob_quantizer_too_coarse(self, headline_params):
        # 1-bit legitimate receiver against a near-ideal eavesdropper
        point = dataclasses.replace(
            headline_params.with_eve_noise_var(0.0),
            bob_adc=AdcSpec(500e-15, explicit_bits=1.0),
            eve_adc=AdcSpec(1e-15), jamming_bits_per_symbol=1)
        thr = min_bob_snr_for_positive_rs(point)
        assert thr.kind is ThresholdKind.INFEASIBLE
        assert thr.snr_db is None
        assert bisect_threshold_db(point) is None

    def test_randomized_agreement_with_oracle(self, headline_params):
        import numpy as np
        rng = np.random.default_rng(1318)
        checked_threshold = checked_infeasible = 0
        for _ in range(25):
            point = dataclasses.replace(
                headline_params.with_eve_noise_var(0.0),
                jamming_bits_per_symbol=int(rng.integers(1, 21)),
                eve_adc=AdcSpec(float(rng.uniform(1e-15, 500e-15))))
            thr = min_bob_snr_for_positive_rs(point)
            oracle = bisect_threshold_db(point)
            if thr.kind is ThresholdKind.INFEASIBLE:
                assert oracle is None
                checked_infeasible += 1
            else:
                assert abs(thr.snr_db - oracle) < 0.01
                checked_threshold += 1
        assert checked_threshold > 0


class TestRateSweep:
    def test_single_cell_matches_point_evaluation(self, headline_params):
        grid = sweep_rate_vs_snr(headline_params, [32.0], [80.0])
        assert (grid.cells[0][0].rate_bits_per_s
                == secrecy_rate(headline_params).rate_bits_per_s)

    def test_rows_monotone_along_bob_axis(self, headline_params):
        grid = sweep_rate_vs_snr(headline_params, list(range(0, 61, 5)),
                                 [20.0, 50.0, 80.0])
        for j in range(len(grid.eve_snr_db)):
            rates = [grid.cells[i][j].rate_bits_per_s
                     for i in range(len(grid.bob_snr_db))]
            assert all(b > a for a, b in zip(rates, rates[1:]))

    @staticmethod
    def scanned_crossing_kinds(params) -> set:
        """Check each column's crossing against an independent scan for the
        column's first positive cell; the (kind, first index) pairs seen."""
        bob_axis = [float(v) for v in range(-5, 26)]
        # Eve at -200 dB puts the crossing far below the axis, at the Bob
        # SNR where the rate's sign changes, near -200 dB.
        eve_axis = [-200.0] + [float(v) for v in range(-20, 81, 5)]
        grid = sweep_rate_vs_snr(params, bob_axis, eve_axis)
        lowest = grid.zero_crossing_bob_snr_db[0]
        assert lowest.kind == ThresholdKind.THRESHOLD
        oracle = bisect_threshold_db(params.with_eve_noise_var(
            params.signal_power * 1e20), lo_db=-250.0, hi_db=-150.0)
        assert abs(lowest.snr_db - oracle) < 0.01
        first_positive = []
        seen = set()
        for j in range(len(eve_axis)):
            rates = [grid.cells[i][j].rate_bits_per_s
                     for i in range(len(bob_axis))]
            idx = next((i for i, r in enumerate(rates) if r > 0), None)
            first_positive.append(idx)
            crossing = grid.zero_crossing_bob_snr_db[j]
            seen.add((crossing.kind, idx))
            if crossing.kind == ThresholdKind.INFEASIBLE:
                assert idx is None
            elif idx is None:
                assert crossing.snr_db > bob_axis[-1]
            elif idx == 0:
                assert crossing.snr_db <= bob_axis[0]
            else:
                assert bob_axis[idx - 1] < crossing.snr_db <= bob_axis[idx]
        # contour monotone in the eavesdropper SNR
        indices = [i for i in first_positive if i is not None]
        assert all(b >= a for a, b in zip(indices, indices[1:]))
        return seen

    def test_zero_crossing_contour_from_independent_sign_scan(self, headline_params):
        seen = self.scanned_crossing_kinds(headline_params)
        assert {(ThresholdKind.THRESHOLD, 0),
                (ThresholdKind.THRESHOLD, None)} <= seen
        assert any(kind == ThresholdKind.THRESHOLD and idx for kind, idx in seen)

    def test_zero_crossing_contour_when_infeasible(self, headline_params):
        # A 2-bit Bob ADC: no Bob SNR helps at the high Eve SNR columns.
        seen = self.scanned_crossing_kinds(dataclasses.replace(
            headline_params, bob_adc=AdcSpec(500e-15, explicit_bits=2.0)))
        assert (ThresholdKind.INFEASIBLE, None) in seen

    def test_builds_one_report_per_row_and_column(self, headline_params,
                                                  monkeypatch, tmp_path):
        built = []

        def counting_report(*values, report=secrecy.SecrecyReport):
            built.append(values)
            return report(*values)

        monkeypatch.setattr(secrecy, "SecrecyReport", counting_report)
        grid = sweep_rate_vs_snr(headline_params,
                                 [0.4 * i for i in range(150)],
                                 [0.4 * j for j in range(200)])
        assert len(built) <= 150 + 200
        # The writers read the row and column reports; they build none.
        swept = len(built)
        output.write_rate_grid_csv(grid, tmp_path / "grid.csv")
        output.dump_json_str(grid)
        assert len(built) == swept
        # Reading a row builds that row's 200 reports, and only those.
        assert len(grid.cells[7]) == 200
        assert len(built) <= 150 + 200 + 200

    def test_cells_read_as_the_per_cell_grid(self, headline_params):
        bob_axis, eve_axis = [0.0, 12.5, 32.0, 60.0], [20.0, 50.0, 80.0]
        grid = sweep_rate_vs_snr(headline_params, bob_axis, eve_axis)
        cells = grid.cells
        expected, _ = reference_rate_grid(headline_params, bob_axis, eve_axis)
        assert len(cells) == len(expected) == 4
        assert repr(tuple(cells)) == repr(expected)
        assert repr([cells[i] for i in range(-4, 4)]) == repr(
            [expected[i] for i in range(-4, 4)])
        assert repr(cells[2][1]) == repr(expected[2][1])
        for part in (slice(1, 3), slice(None, None, -2), slice(3, 9),
                     slice(5, 9)):
            assert repr(cells[part]) == repr(expected[part])
        with pytest.raises(IndexError):
            cells[4]
        assert grid == sweep_rate_vs_snr(headline_params, bob_axis, eve_axis)
        assert hash(grid) == hash(sweep_rate_vs_snr(headline_params, bob_axis,
                                                    eve_axis))

    def test_empty_axis_rejected(self, headline_params):
        with pytest.raises(ValidationError, match="non-empty"):
            sweep_rate_vs_snr(headline_params, [], [80.0])

    def test_non_monotone_axis_rejected(self, headline_params):
        with pytest.raises(ValidationError, match="strictly increasing"):
            sweep_rate_vs_snr(headline_params, [10.0, 10.0], [80.0])

    # ["0", True] was once coerced to the Bob axis (0.0, 1.0).
    @pytest.mark.parametrize("bob, eve, message", [
        (["0", True], [80.0], "bob SNR axis values must be real numbers"),
        ([True], [80.0], "bob SNR axis values must be real numbers"),
        ([32.0], ["80"], "eve SNR axis values must be real numbers"),
        ([32.0], [False, 80.0], "eve SNR axis values must be real numbers"),
    ], ids=["string-and-bool-bob", "bool-bob", "string-eve", "bool-eve"])
    def test_non_number_axis_rejected(self, headline_params, bob, eve, message):
        with pytest.raises(ValidationError, match=message):
            sweep_rate_vs_snr(headline_params, bob, eve)

    # 10**400 once escaped as a bare OverflowError from float().
    @pytest.mark.parametrize("bob, eve, message", [
        ([0, 10**400], [80.0], "bob SNR axis values must be finite"),
        ([32.0], [-10**400], "eve SNR axis values must be finite"),
    ], ids=["huge-int-bob", "huge-int-eve"])
    def test_int_past_float_range_rejected(self, headline_params, bob, eve,
                                           message):
        with pytest.raises(ValidationError, match=message):
            sweep_rate_vs_snr(headline_params, bob, eve)


class TestThresholdSweep:
    def test_cell_matches_point_evaluation(self, headline_params):
        grid = sweep_min_bob_snr(headline_params, [14], [5e-15])
        point = dataclasses.replace(headline_params.with_eve_noise_var(0.0),
                                    eve_adc=AdcSpec(5e-15))
        assert grid.cells[0][0] == min_bob_snr_for_positive_rs(point)

    def test_threshold_non_increasing_in_jamming_bits(self, headline_params):
        grid = sweep_min_bob_snr(headline_params, list(range(1, 21)),
                                 [2e-15, 20e-15, 200e-15])
        for j in range(len(grid.eve_jitter_s)):
            column = [grid.cells[i][j] for i in range(len(grid.jamming_bits))]
            # infeasible cells may only appear at the weak-jamming end
            kinds = [c.kind for c in column]
            first_feasible = next(
                (i for i, k in enumerate(kinds) if k is ThresholdKind.THRESHOLD),
                len(kinds))
            assert all(k is ThresholdKind.INFEASIBLE
                       for k in kinds[:first_feasible])
            values = [c.snr_db for c in column[first_feasible:]]
            assert all(b <= a for a, b in zip(values, values[1:]))

    def test_threshold_non_decreasing_as_jitter_shrinks(self, headline_params):
        grid = sweep_min_bob_snr(headline_params, [8, 14],
                                 [1e-15, 5e-15, 50e-15, 500e-15])
        for i in range(len(grid.jamming_bits)):
            row = [grid.cells[i][j] for j in range(len(grid.eve_jitter_s))]
            feasible = [c.snr_db for c in row if c.kind is ThresholdKind.THRESHOLD]
            # jitter axis ascends, so thresholds must descend
            assert all(b <= a for a, b in zip(feasible, feasible[1:]))

    def test_infeasible_cells_share_one_instance(self, headline_params):
        grid = sweep_min_bob_snr(headline_params, [0, 1, 14],
                                 [1e-15, 5e-13, 5e-10])
        infeasible = [cell for row in grid.cells for cell in row
                      if cell.kind is ThresholdKind.INFEASIBLE]
        assert len(infeasible) == 3
        assert all(cell is infeasible[0] for cell in infeasible)

    @pytest.mark.parametrize("cell", [
        secrecy.SnrThreshold(ThresholdKind.THRESHOLD),
        secrecy.SnrThreshold(ThresholdKind.INFEASIBLE, 12.5)])
    def test_hand_built_cell_needs_an_snr_exactly_when_feasible(self, cell):
        with pytest.raises(ValueError, match="neither a threshold with an SNR"):
            secrecy.ThresholdSweepGrid((14,), (5e-15,), ((cell,),))

    def test_threshold_outside_the_normal_range_keeps_its_message(self):
        # The linear threshold underflows to 0 at this tiny signal power.
        params = dataclasses.replace(SystemParams(**HEADLINE_POINT),
                                     signal_power=1e-300, eve_noise_var=1e30)
        with pytest.raises(ValidationError) as exc:
            min_bob_snr_for_positive_rs(params)
        assert str(exc.value) == (
            "minimum bob SNR at eve noise variance 1e+30 is out of range: "
            "its linear value is not a positive normal float")

    def test_forces_noiseless_eve(self, headline_params):
        # template carries eavesdropper channel noise; the sweep must ignore it
        grid_noisy = sweep_min_bob_snr(headline_params, [14], [5e-15])
        grid_clean = sweep_min_bob_snr(headline_params.with_eve_noise_var(0.0),
                                       [14], [5e-15])
        assert grid_noisy.cells == grid_clean.cells

    def test_integer_words_beyond_32_bits_become_python_ints(self,
                                                             headline_params):
        grid = sweep_min_bob_snr(headline_params, np.array([0, 14, 40]),
                                 [5e-15])
        assert grid.jamming_bits == (0, 14, 40)
        assert all(type(w) is int for w in grid.jamming_bits)

    # A word such as 14.7 was once truncated: [14.7, 15.2] gave (14, 15).
    NOT_WORDS = "jamming bits axis values must be non-negative integers"

    @pytest.mark.parametrize("words, jitters, message", [
        ([14.7, 15.2], [5e-15], NOT_WORDS),
        ([14.0], [5e-15], NOT_WORDS),
        ([np.float64(14)], [5e-15], NOT_WORDS),
        ([True], [5e-15], NOT_WORDS),
        (["14"], [5e-15], NOT_WORDS),
        ([], [5e-15], "jamming bits axis must be non-empty"),
        ([-1, 14], [5e-15], "jamming bits axis values must be non-negative"),
        ([14, 14], [5e-15], "jamming bits axis must be strictly increasing"),
        ([15, 14], [5e-15], "jamming bits axis must be strictly increasing"),
        ([14], [], "eve jitter axis must be non-empty"),
        ([14], [0.0, 5e-15], "eve jitter axis values must be positive"),
        ([14], [-5e-15], "eve jitter axis values must be positive"),
        ([14], ["5e-15"], "eve jitter axis values must be real numbers"),
        ([14], [True], "eve jitter axis values must be real numbers"),
    ], ids=["fractional-words", "float-word", "numpy-float-word", "bool-word",
            "string-word", "empty-words", "negative-word", "repeated-word",
            "falling-words", "empty-jitter", "zero-jitter", "negative-jitter",
            "string-jitter", "bool-jitter"])
    def test_bad_axis_rejected(self, headline_params, words, jitters, message):
        with pytest.raises(ValidationError, match=message):
            sweep_min_bob_snr(headline_params, words, jitters)
