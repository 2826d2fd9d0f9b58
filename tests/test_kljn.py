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
    detect_active_attack,
    quantize_words,
    resistor_noise,
    run_key_exchange,
    simulate_bit_period,
    theoretical_levels,
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


class TestConfigAndLevels:
    def test_default_config_is_valid(self):
        assert CFG.r_low < CFG.r_high
        assert CFG.resistance(ResistorChoice.LOW) == CFG.r_low
        assert CFG.resistance(ResistorChoice.HIGH) == CFG.r_high

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"r_low": 10_000.0, "r_high": 1_000.0},
            {"r_low": 1_000.0, "r_high": 1_000.0},
            {"r_low": -1.0},
            {"t_eff": 0.0},
            {"bandwidth": -5.0},
            {"samples_per_period": 0},
            {"level_tolerance": 0.0},
            {"level_tolerance": 0.5},
            {"data_word_bits": 1},
            {"data_word_bits": 64},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            KljnSessionConfig(**kwargs)

    def test_voltage_levels_follow_parallel_resistance(self):
        levels = theoretical_levels(CFG)
        unit = CFG.noise_power_unit
        assert levels.voltage == pytest.approx(
            (unit * 500.0, unit * 10_000_000.0 / 11_000.0, unit * 5_000.0)
        )
        assert levels.voltage[0] < levels.voltage[1] < levels.voltage[2]

    def test_current_levels_follow_loop_resistance(self):
        levels = theoretical_levels(CFG)
        unit = CFG.noise_power_unit
        assert levels.current == pytest.approx(
            (unit / 2_000.0, unit / 11_000.0, unit / 20_000.0)
        )
        assert levels.current[0] > levels.current[1] > levels.current[2]


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
        levels = theoretical_levels(CFG)
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
                assert outcome.ms_voltage == pytest.approx(levels.voltage[0], rel=0.2)
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
        level = theoretical_levels(CFG).voltage[0]
        mean_errors = []
        for window in (100, 1_000, 10_000):
            cfg = KljnSessionConfig(samples_per_period=window)
            errors = []
            for _ in range(30):
                u_a = resistor_noise(cfg, cfg.r_low, window, rng)
                u_b = resistor_noise(cfg, cfg.r_low, window, rng)
                u_ch, _ = channel_waveforms(cfg.r_low, cfg.r_low, u_a, u_b)
                errors.append(abs(float(np.mean(u_ch**2)) - level) / level)
            mean_errors.append(float(np.mean(errors)))
        assert mean_errors[0] > mean_errors[1] > mean_errors[2]
        assert mean_errors[2] < CFG.level_tolerance

    def test_mixed_orderings_indistinguishable_from_levels(self):
        # a passive observer sees the same mean-square distribution for the
        # two mixed configurations
        rng_lh = np.random.default_rng(108)
        rng_hl = np.random.default_rng(108)
        n = CFG.samples_per_period
        ms_lh, ms_hl = [], []
        for _ in range(400):
            u_a = resistor_noise(CFG, CFG.r_low, n, rng_lh)
            u_b = resistor_noise(CFG, CFG.r_high, n, rng_lh)
            u_ch, _ = channel_waveforms(CFG.r_low, CFG.r_high, u_a, u_b)
            ms_lh.append(float(np.mean(u_ch**2)))
            u_a = resistor_noise(CFG, CFG.r_high, n, rng_hl)
            u_b = resistor_noise(CFG, CFG.r_low, n, rng_hl)
            u_ch, _ = channel_waveforms(CFG.r_high, CFG.r_low, u_a, u_b)
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
    def _trace_pairs(self, attacker, periods, seed=109):
        alice_rng, bob_rng = _party_rngs(seed)
        alice, bob = [], []
        for period in range(periods):
            outcome = simulate_bit_period(CFG, alice_rng, bob_rng, attacker, period_index=period)
            alice.append(outcome.alice_trace)
            bob.append(outcome.bob_trace)
        return alice, bob

    def test_clean_traces_verdict(self):
        alice, bob = self._trace_pairs(None, 20)
        verdict = detect_active_attack(alice, bob)
        assert verdict.clean
        assert verdict.mismatch_periods == ()

    def test_wire_substitution_flags_every_attacked_period(self):
        alice, bob = self._trace_pairs(WireSubstitutionAttacker(start_period=3, seed=1), 10)
        verdict = detect_active_attack(alice, bob)
        assert not verdict.clean
        assert verdict.mismatch_periods == tuple(range(3, 10))

    def test_current_injection_flags_attacked_periods(self):
        alice, bob = self._trace_pairs(CurrentInjectionAttacker(start_period=5, seed=2), 8)
        verdict = detect_active_attack(alice, bob)
        assert verdict.mismatch_periods == tuple(range(5, 8))

    def test_single_flipped_word_is_localized(self):
        alice, bob = self._trace_pairs(None, 6)
        tampered = bob[4].current_words.copy()
        tampered[17] += 1
        bob[4] = PeriodTrace(bob[4].voltage_words, tampered)
        verdict = detect_active_attack(alice, bob)
        assert verdict.mismatch_periods == (4,)

    def test_length_mismatch_rejected(self):
        alice, bob = self._trace_pairs(None, 4)
        with pytest.raises(ValueError, match="length"):
            detect_active_attack(alice, bob[:3])


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
