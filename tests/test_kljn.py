import dataclasses

import numpy as np
import pytest
from scipy import stats

from kextrust import kljn
from kextrust.kljn import (
    BudgetExhaustedError,
    CurrentInjectionAttacker,
    KeyExchangeResult,
    KljnSessionConfig,
    LevelClass,
    PeriodTrace,
    ResistorChoice,
    WireSubstitutionAttacker,
    auth_bit_cost,
    channel_waveforms,
    classify_level,
    quantize_words,
    resistor_noise,
    run_key_exchange,
    simulate_bit_period,
)

CFG = KljnSessionConfig()


def _party_rngs(seed):
    seqs = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(seqs[0]), np.random.default_rng(seqs[1])


def _choice_map(alice, bob):
    if alice is ResistorChoice.LOW and bob is ResistorChoice.LOW:
        return LevelClass.LL
    if alice is ResistorChoice.HIGH and bob is ResistorChoice.HIGH:
        return LevelClass.HH
    return LevelClass.INTERMEDIATE


# 4*k*T_eff*B of the emulated circuit, spelled out from its constants
UNIT = 4.0 * 1.380649e-23 * kljn.T_EFF * kljn.BANDWIDTH


class TestConfigAndLevels:
    def test_circuit_constants(self):
        assert kljn.R_LOW < kljn.R_HIGH
        assert kljn.resistance(ResistorChoice.LOW) == kljn.R_LOW
        assert kljn.resistance(ResistorChoice.HIGH) == kljn.R_HIGH
        assert kljn.NOISE_POWER_UNIT == pytest.approx(UNIT)

    def test_config_holds_only_tolerance_and_seed(self):
        assert [f.name for f in dataclasses.fields(KljnSessionConfig)] == [
            "level_tolerance", "seed"]
        assert (CFG.level_tolerance, CFG.seed) == (0.2, 0)

    @pytest.mark.parametrize("tol", [0.0, 0.5, -0.1, float("nan")])
    def test_invalid_configs_rejected(self, tol):
        with pytest.raises(ValueError, match="level_tolerance"):
            KljnSessionConfig(level_tolerance=tol)

    def test_voltage_levels_follow_parallel_resistance(self):
        r_low, r_high = kljn.R_LOW, kljn.R_HIGH
        assert kljn.LEVELS.voltage == pytest.approx(
            (UNIT * r_low / 2, UNIT / (1 / r_low + 1 / r_high), UNIT * r_high / 2)
        )
        assert kljn.LEVELS.voltage[0] < kljn.LEVELS.voltage[1] < kljn.LEVELS.voltage[2]

    def test_current_levels_follow_loop_resistance(self):
        r_low, r_high = kljn.R_LOW, kljn.R_HIGH
        assert kljn.LEVELS.current == pytest.approx(
            (UNIT / (2 * r_low), UNIT / (r_low + r_high), UNIT / (2 * r_high))
        )
        assert kljn.LEVELS.current[0] > kljn.LEVELS.current[1] > kljn.LEVELS.current[2]

    def test_quantizer_full_scales_are_six_rms_amplitudes(self):
        assert kljn.VOLTAGE_FULL_SCALE == pytest.approx(6 * (UNIT * kljn.R_HIGH / 2) ** 0.5)
        assert kljn.CURRENT_FULL_SCALE == pytest.approx(6 * (UNIT / (2 * kljn.R_LOW)) ** 0.5)


class TestClassifyLevel:
    LEVELS = (1.0, 2.0, 10.0)

    def test_exact_middle_is_intermediate(self):
        assert classify_level(2.0, self.LEVELS, 0.2) is LevelClass.INTERMEDIATE

    def test_between_bands_is_undecided(self):
        assert classify_level(1.5, self.LEVELS, 0.05) is LevelClass.UNDECIDED

    def test_within_tolerance_of_top(self):
        assert classify_level(10.0 * 1.1, self.LEVELS, 0.2) is LevelClass.HH

    def test_two_matching_levels_is_undecided(self):
        assert classify_level(1.3, (1.0, 1.5, 3.0), 0.4) is LevelClass.UNDECIDED

    def test_decreasing_levels_accepted(self):
        assert classify_level(2.0, (10.0, 2.0, 1.0), 0.2) is LevelClass.INTERMEDIATE

    def test_unordered_levels_rejected(self):
        with pytest.raises(ValueError):
            classify_level(1.0, (1.0, 3.0, 2.0), 0.2)

    @pytest.mark.parametrize("tol", [0.0, 0.5, -0.1])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValueError):
            classify_level(1.0, self.LEVELS, tol)


class TestBitPeriod:
    def test_classification_matches_choices(self):
        alice_rng, bob_rng = _party_rngs(101)
        for _ in range(200):
            outcome = simulate_bit_period(CFG, alice_rng, bob_rng)
            assert outcome.level_class is _choice_map(outcome.alice_choice, outcome.bob_choice)
            assert not outcome.attack_flag

    def test_bit_only_on_intermediate(self):
        alice_rng, bob_rng = _party_rngs(102)
        for _ in range(100):
            outcome = simulate_bit_period(CFG, alice_rng, bob_rng)
            if outcome.level_class is LevelClass.INTERMEDIATE and not outcome.attack_flag:
                assert outcome.bit in (0, 1)
            else:
                assert outcome.bit is None

    def test_both_low_measures_lowest_level_and_no_bit(self):
        alice_rng, bob_rng = _party_rngs(103)
        seen = False
        for _ in range(50):
            outcome = simulate_bit_period(CFG, alice_rng, bob_rng)
            if (
                outcome.alice_choice is ResistorChoice.LOW
                and outcome.bob_choice is ResistorChoice.LOW
            ):
                seen = True
                assert outcome.level_class is LevelClass.LL
                assert outcome.bit is None
                assert outcome.ms_voltage == pytest.approx(UNIT * kljn.R_LOW / 2, rel=0.2)
        assert seen

    def test_parties_publish_identical_words_without_attacker(self):
        alice_rng, bob_rng = _party_rngs(104)
        outcome = simulate_bit_period(CFG, alice_rng, bob_rng)
        assert np.array_equal(outcome.alice_trace.voltage_words, outcome.bob_trace.voltage_words)
        assert np.array_equal(outcome.alice_trace.current_words, outcome.bob_trace.current_words)

    def test_both_parties_derive_the_same_bit(self):
        # the second party infers the first party's pick from the mixed class
        alice_rng, bob_rng = _party_rngs(105)
        derived = 0
        for _ in range(500):
            outcome = simulate_bit_period(CFG, alice_rng, bob_rng)
            if outcome.level_class is LevelClass.INTERMEDIATE and not outcome.attack_flag:
                bob_view = 1 if outcome.bob_choice is ResistorChoice.LOW else 0
                assert outcome.bit == bob_view
                derived += 1
        assert derived > 100

    def test_outcome_frequencies(self):
        alice_rng, bob_rng = _party_rngs(106)
        tallies = {cls: 0 for cls in LevelClass}
        n = 2_000
        for _ in range(n):
            outcome = simulate_bit_period(CFG, alice_rng, bob_rng)
            tallies[outcome.level_class] += 1
        assert tallies[LevelClass.LL] / n == pytest.approx(0.25, abs=0.03)
        assert tallies[LevelClass.HH] / n == pytest.approx(0.25, abs=0.03)
        assert tallies[LevelClass.INTERMEDIATE] / n == pytest.approx(0.50, abs=0.03)
        assert tallies[LevelClass.UNDECIDED] / n < 0.01


class TestEstimator:
    def test_error_shrinks_with_window(self):
        rng = np.random.default_rng(107)
        r_low = kljn.R_LOW
        level = UNIT * r_low / 2
        mean_errors = []
        for window in (100, 1_000, 10_000):
            errors = []
            for _ in range(30):
                u_a = resistor_noise(r_low, window, rng)
                u_b = resistor_noise(r_low, window, rng)
                u_ch, _ = channel_waveforms(r_low, r_low, u_a, u_b)
                errors.append(abs(float(np.mean(u_ch**2)) - level) / level)
            mean_errors.append(float(np.mean(errors)))
        assert mean_errors[0] > mean_errors[1] > mean_errors[2]
        assert mean_errors[2] < CFG.level_tolerance

    def test_mixed_orderings_indistinguishable_from_levels(self):
        # a passive observer sees the same mean-square distribution for the
        # two mixed configurations
        rng_lh = np.random.default_rng(108)
        rng_hl = np.random.default_rng(108)
        n, r_low, r_high = kljn.SAMPLES_PER_PERIOD, kljn.R_LOW, kljn.R_HIGH
        ms_lh, ms_hl = [], []
        for _ in range(400):
            u_a = resistor_noise(r_low, n, rng_lh)
            u_b = resistor_noise(r_high, n, rng_lh)
            u_ch, _ = channel_waveforms(r_low, r_high, u_a, u_b)
            ms_lh.append(float(np.mean(u_ch**2)))
            u_a = resistor_noise(r_high, n, rng_hl)
            u_b = resistor_noise(r_low, n, rng_hl)
            u_ch, _ = channel_waveforms(r_high, r_low, u_a, u_b)
            ms_hl.append(float(np.mean(u_ch**2)))
        result = stats.ks_2samp(ms_lh, ms_hl)
        assert result.pvalue > 0.01


class TestQuantization:
    def test_words_cover_range(self):
        samples = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        words = quantize_words(samples, 1.0, 8)
        assert words[0] == 0
        assert words[-1] == 255
        assert words[2] == 128  # rounds half to even on the midpoint grid

    def test_identical_inputs_identical_words(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(size=100)
        assert np.array_equal(quantize_words(samples, 5.0, 12), quantize_words(samples, 5.0, 12))


class TestDetection:
    """Each period's public word comparison flags exactly the attacked periods."""

    def _flagged_periods(self, attacker, periods, seed=109):
        alice_rng, bob_rng = _party_rngs(seed)
        return [
            period
            for period in range(periods)
            if simulate_bit_period(CFG, alice_rng, bob_rng, attacker, period_index=period).attack_flag
        ]

    def test_clean_periods_not_flagged(self):
        assert self._flagged_periods(None, 20) == []

    def test_wire_substitution_flags_every_attacked_period(self):
        attacker = WireSubstitutionAttacker(start_period=3, seed=1)
        assert self._flagged_periods(attacker, 10) == list(range(3, 10))

    def test_current_injection_flags_attacked_periods(self):
        attacker = CurrentInjectionAttacker(start_period=5, seed=2)
        assert self._flagged_periods(attacker, 8) == list(range(5, 8))

    @pytest.mark.parametrize("attacker_type", [WireSubstitutionAttacker, CurrentInjectionAttacker])
    def test_flagged_periods_yield_no_bit(self, attacker_type):
        alice_rng, bob_rng = _party_rngs(110)
        attacker = attacker_type(start_period=0, seed=3)
        flagged = 0
        for period in range(20):
            outcome = simulate_bit_period(CFG, alice_rng, bob_rng, attacker, period_index=period)
            if outcome.attack_flag:
                flagged += 1
                assert outcome.bit is None
        assert flagged > 0

    def test_single_flipped_word_is_a_mismatch(self):
        alice_rng, bob_rng = _party_rngs(109)
        trace = simulate_bit_period(CFG, alice_rng, bob_rng).alice_trace
        tampered = trace.current_words.copy()
        tampered[17] += 1
        assert not kljn._words_mismatch(trace, PeriodTrace(trace.voltage_words.copy(),
                                                           trace.current_words.copy()))
        assert kljn._words_mismatch(trace, PeriodTrace(trace.voltage_words, tampered))


class TestKeyExchange:
    def test_full_session_statistics(self):
        result = run_key_exchange(KljnSessionConfig(seed=7), 128)
        assert len(result.key_bits) == 128
        assert not result.attack_detected
        assert 190 < result.periods_used < 330  # waiting time for 128 fair coin successes
        ones = result.key_bits.count("1")
        assert 0.3 < ones / 128 < 0.7

    def test_deterministic_given_seed(self):
        first = run_key_exchange(KljnSessionConfig(seed=11), 32)
        second = run_key_exchange(KljnSessionConfig(seed=11), 32)
        assert first == second
        other = run_key_exchange(KljnSessionConfig(seed=12), 32)
        assert other.key_bits != first.key_bits

    def test_target_bits_must_be_positive(self):
        with pytest.raises(ValueError):
            run_key_exchange(CFG, 0)

    def test_budget_exhaustion_reports_partial_statistics(self):
        cfg = KljnSessionConfig(seed=3, level_tolerance=1e-6)
        with pytest.raises(BudgetExhaustedError) as exc_info:
            run_key_exchange(cfg, 2)
        partial = exc_info.value.partial
        assert partial.periods_used == 128
        assert partial.key_bits == ""
        assert partial.undecided_count == 128

    def test_wire_substitution_detected_and_key_discarded(self):
        attacker = WireSubstitutionAttacker(start_period=10, seed=4)
        result = run_key_exchange(KljnSessionConfig(seed=5), 64, attacker=attacker)
        assert result.attack_detected
        assert result.key_bits == ""
        assert result.periods_used == 11  # ten clean periods, flagged on the next

    def test_current_injection_detected(self):
        attacker = CurrentInjectionAttacker(start_period=0, seed=6)
        result = run_key_exchange(KljnSessionConfig(seed=7), 8, attacker=attacker)
        assert result.attack_detected
        assert result.periods_used == 1

    def test_untampered_periods_skip_the_word_comparison(self, monkeypatch):
        # an untampered period publishes one trace for both parties, which
        # cannot mismatch itself: comparing it would only cost time
        clean = run_key_exchange(KljnSessionConfig(seed=7), 32)
        compare = kljn._words_mismatch

        def compare_distinct(a, b):
            if a is b:
                raise AssertionError("an untampered trace was compared with itself")
            return compare(a, b)

        monkeypatch.setattr(kljn, "_words_mismatch", compare_distinct)
        assert run_key_exchange(KljnSessionConfig(seed=7), 32) == clean
        attacker = WireSubstitutionAttacker(start_period=10, seed=4)
        attacked = run_key_exchange(KljnSessionConfig(seed=5), 64, attacker=attacker)
        assert attacked.attack_detected
        assert attacked.periods_used == 11

    def test_key_hex_packing(self):
        result = KeyExchangeResult("0111001010110100", 30, 10, 0, False, {})
        assert result.key_hex == "72b4"
        empty = KeyExchangeResult("", 5, 5, 0, True, {})
        assert empty.key_hex == ""


class TestAuthCost:
    @pytest.mark.parametrize("m,expected", [(1024, 10.0), (2, 1.0), (256, 8.0)])
    def test_cost(self, m, expected):
        assert auth_bit_cost(m) == expected

    def test_small_word_rejected(self):
        with pytest.raises(ValueError):
            auth_bit_cost(1)
