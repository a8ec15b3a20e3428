import pytest
from hypothesis import given, strategies as st

from jkelab import (AttackerTimeModel, JitterTrend, RaceVerdict, get_preset,
                    project_jitter, race_verdict, year_for_jitter)
from jkelab.race import SECONDS_PER_YEAR

TREND = JitterTrend(reference_year=2024, reference_jitter_s=50e-15,
                    doubling_period_years=4.57)


class TestVerdict:
    EIGHT_HOURS = AttackerTimeModel("quantum-8h", 8 * 3600.0)

    def test_truth_table(self):
        # strict inequality: equal times already break the exchange
        cases = [
            (11.52e-3, 8 * 3600.0, RaceVerdict.EVERLASTING),
            (8 * 3600.0, 8 * 3600.0, RaceVerdict.BROKEN),
            (9 * 3600.0, 8 * 3600.0, RaceVerdict.BROKEN),
            (11.52e-3, None, RaceVerdict.UNKNOWN),
        ]
        for t_j, t_qc, expected in cases:
            attacker = AttackerTimeModel("case", t_qc)
            assert race_verdict(t_j, attacker).verdict is expected

    @given(st.floats(min_value=1e-9, max_value=1e9),
           st.floats(min_value=1e-9, max_value=1e9),
           st.floats(min_value=0.0, max_value=0.999))
    def test_everlasting_is_downward_closed(self, t_j, t_qc, shrink):
        attacker = AttackerTimeModel("a", t_qc)
        if race_verdict(t_j, attacker).verdict is RaceVerdict.EVERLASTING:
            faster = t_j * shrink
            if faster > 0:
                assert race_verdict(faster, attacker).verdict is \
                    RaceVerdict.EVERLASTING

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            race_verdict(0.0, self.EIGHT_HOURS)

    def test_attacker_time_must_be_positive_when_known(self):
        with pytest.raises(ValueError):
            AttackerTimeModel("bad", 0.0)


class TestTrend:
    def test_reference_year_is_identity(self):
        assert project_jitter(TREND, 2024) == 50e-15

    def test_projection_to_5_fs(self):
        # 2024 + 4.57 * log2(10), frozen from high-precision evaluation
        year = year_for_jitter(TREND, 5e-15)
        assert year == pytest.approx(2039.18121139364, abs=1e-9)
        assert 2039 <= year <= 2041

    def test_slow_trend_projection(self):
        slow = JitterTrend(2024, 50e-15, 8.34)
        assert year_for_jitter(slow, 5e-15) == pytest.approx(
            2051.70488031136, abs=1e-9)

    def test_projection_before_reference_rejected(self):
        with pytest.raises(ValueError):
            project_jitter(TREND, 2023)

    def test_target_not_below_reference_rejected(self):
        with pytest.raises(ValueError):
            year_for_jitter(TREND, 50e-15)
        with pytest.raises(ValueError):
            year_for_jitter(TREND, 60e-15)

    @given(st.floats(min_value=1e-18, max_value=49e-15))
    def test_round_trip(self, target):
        year = year_for_jitter(TREND, target)
        assert project_jitter(TREND, year) == pytest.approx(target, rel=1e-12)

    @given(st.floats(min_value=2024, max_value=2100),
           st.floats(min_value=0.1, max_value=30))
    def test_projection_monotone_decreasing(self, year, ahead):
        assert project_jitter(TREND, year + ahead) < project_jitter(TREND, year)


class TestPresets:
    def test_quantum_preset(self):
        preset = get_preset("quantum-rsa2048-8h")
        assert preset.t_qc_s == 8 * 3600.0
        assert "Gidney" in preset.note  # provenance travels with the preset

    def test_unknown_preset_name_rejected(self):
        with pytest.raises(KeyError, match="unknown attacker preset"):
            get_preset("quantum-rsa4096-1s")

    def test_unknown_attacker_preset_propagates_unknown(self):
        preset = get_preset("unknown-future")
        assert preset.t_qc_s is None
        assert race_verdict(1.0, preset).verdict is RaceVerdict.UNKNOWN

    def test_classical_effort_linear_scaling(self):
        # 2700 core-years on 2700 cores: one year of wall time
        preset = get_preset("classical-rsa829", cores=2700)
        assert preset.t_qc_s == pytest.approx(SECONDS_PER_YEAR, rel=1e-12)

    def test_classical_effort_large_farm(self):
        # 2700 * 365.25 * 24 / 1e6 hours
        preset = get_preset("classical-rsa829", cores=10 ** 6)
        assert preset.t_qc_s / 3600 == pytest.approx(23.6682, rel=1e-6)
        assert "linear scaling" in preset.note

    def test_fixed_time_preset_takes_no_core_count(self):
        # 64 cores once left the 8-hour preset at 28800 s without a word.
        with pytest.raises(ValueError, match="takes no core count, got 64"):
            get_preset("quantum-rsa2048-8h", cores=64)
        assert get_preset("quantum-rsa2048-8h", cores=1).t_qc_s == 28800.0

    def test_registry_lists_all_shipped_presets(self):
        for name in ("quantum-rsa2048-8h", "quantum-rsa2048-24h",
                     "classical-rsa829", "unknown-future"):
            assert get_preset(name).name == name

    def test_millisecond_exchange_beats_quantum_preset(self):
        scenario = race_verdict(11.52e-3, get_preset("quantum-rsa2048-8h"))
        assert scenario.verdict is RaceVerdict.EVERLASTING
