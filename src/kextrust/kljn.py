"""Wired key-exchange simulator based on resistor-noise indistinguishability.

Each bit period, both parties privately connect either a low or a high
resistor whose thermal (Johnson) noise is emulated at a very high
effective temperature.  Both ends then measure the mean-square voltage
and current on the shared wire.  The measurable level only reveals the
unordered pair of selections: matched picks (low/low or high/high) are
discarded, while a mixed pick leaves the two orderings indistinguishable
to a passive observer and yields one shared secret bit.

Per-resistor noise is synthesized with variance 4*k*T_eff*B*R; the wire
sees the superposition

    u_ch = (u_A*R_B + u_B*R_A) / (R_A + R_B)
    i_ch = (u_A - u_B) / (R_A + R_B)

whose mean squares land on 4kTB*R_parallel and 4kTB/R_loop respectively,
giving three voltage levels (low < mixed < high) and three current levels
(low > mixed > high).

Active interventions (wire substitution, current injection) break the
equality of the two ends' instantaneous measurements.  The defense
mirrors that: both parties publish their quantized sample words over an
authenticated public channel and compare; any mismatch voids the period.
On an untampered period (no attacker, or one not yet active) both ends
see the one shared waveform, so it is quantized once and both parties
publish that same trace, which cannot mismatch; only tampered periods
run the comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

BOLTZMANN = 1.380649e-23  # J/K

# Quantizer full-scale, in units of the largest theoretical RMS amplitude.
# Clipping beyond 6 sigma affects ~2e-9 of samples and both ends clip alike.
_CLIP_SIGMA = 6.0


class ResistorChoice(str, Enum):
    LOW = "Low"
    HIGH = "High"


class LevelClass(str, Enum):
    LL = "LL"
    INTERMEDIATE = "Intermediate"
    HH = "HH"
    UNDECIDED = "Undecided"


@dataclass(frozen=True)
class KljnSessionConfig:
    """Electrical and estimation parameters for one key-exchange session.

    Only level *ratios* matter for classification, so the default effective
    temperature is an arbitrarily large emulation value.  The tolerance and
    window defaults separate the three levels by far more than the
    estimator spread, keeping undecided periods below 1%.
    """

    r_low: float = 1_000.0
    r_high: float = 10_000.0
    t_eff: float = 1e9
    bandwidth: float = 1_000.0
    samples_per_period: int = 2_000
    level_tolerance: float = 0.2
    data_word_bits: int = 16
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.r_low < self.r_high):
            raise ValueError(f"need 0 < r_low < r_high, got {self.r_low}, {self.r_high}")
        if self.t_eff <= 0 or self.bandwidth <= 0:
            raise ValueError("t_eff and bandwidth must be positive")
        if self.samples_per_period <= 0:
            raise ValueError("samples_per_period must be positive")
        if not (0.0 < self.level_tolerance < 0.5):
            raise ValueError(f"level_tolerance must be in (0, 0.5), got {self.level_tolerance}")
        if not (2 <= self.data_word_bits <= 48):
            # words are kept as 64-bit integers; beyond float64's mantissa a
            # finer grid would quantize rounding noise anyway
            raise ValueError("data_word_bits must be in [2, 48]")

    def resistance(self, choice: ResistorChoice) -> float:
        return self.r_low if choice is ResistorChoice.LOW else self.r_high

    @property
    def noise_power_unit(self) -> float:
        """4*k*T_eff*B, the per-ohm noise power density of this session."""
        return 4.0 * BOLTZMANN * self.t_eff * self.bandwidth


@dataclass(frozen=True)
class ChannelLevels:
    """Theoretical mean-square levels, index order (LL, mixed, HH)."""

    voltage: tuple[float, float, float]
    current: tuple[float, float, float]


def theoretical_levels(cfg: KljnSessionConfig) -> ChannelLevels:
    """Mean-square channel levels for the three selection classes.

    Voltage follows the parallel resistance (R_L/2 < R_L*R_H/(R_L+R_H) <
    R_H/2), current the loop resistance (2R_L < R_L+R_H < 2R_H), so the
    voltage triple is strictly increasing and the current triple strictly
    decreasing.
    """
    unit = cfg.noise_power_unit
    rl, rh = cfg.r_low, cfg.r_high
    v = (unit * rl / 2.0, unit * rl * rh / (rl + rh), unit * rh / 2.0)
    i = (unit / (2.0 * rl), unit / (rl + rh), unit / (2.0 * rh))
    return ChannelLevels(voltage=v, current=i)


def classify_level(measured: float, levels: tuple[float, float, float], tol: float) -> LevelClass:
    """Assign a measured mean square to (LL, mixed, HH) by relative distance.

    A level matches when ``|measured - level| <= tol * level``.  Exactly one
    match decides; zero or several matches is Undecided.  ``levels`` must be
    strictly monotonic (increasing for voltage, decreasing for current).
    """
    lo, mid, hi = levels
    if not (lo < mid < hi or lo > mid > hi):
        raise ValueError(f"levels must be strictly ordered, got {levels}")
    if not (0.0 < tol < 0.5):
        raise ValueError(f"tol must be in (0, 0.5), got {tol}")
    matches = [
        cls
        for cls, level in zip((LevelClass.LL, LevelClass.INTERMEDIATE, LevelClass.HH), levels)
        if abs(measured - level) <= tol * level
    ]
    if len(matches) == 1:
        return matches[0]
    return LevelClass.UNDECIDED


def resistor_noise(cfg: KljnSessionConfig, resistance: float, n: int, rng) -> np.ndarray:
    """One window of emulated thermal noise for a connected resistor."""
    return rng.normal(0.0, math.sqrt(cfg.noise_power_unit * resistance), n)


def channel_waveforms(r_a, r_b, u_a, u_b):
    """Superpose the two generator noises into wire voltage and loop current.

    Computes ``(u_a*r_b + u_b*r_a) / (r_a + r_b)`` and ``(u_a - u_b) /
    (r_a + r_b)`` in place: the noise arrays are consumed (the voltage is
    returned in ``u_a``'s buffer and ``u_b`` is overwritten).
    """
    denom = r_a + r_b
    current = u_a - u_b
    current /= denom
    u_a *= r_b
    u_b *= r_a
    u_a += u_b
    u_a /= denom
    return u_a, current


def quantize_words(samples: np.ndarray, full_scale: float, word_bits: int) -> np.ndarray:
    """Map samples in [-full_scale, full_scale] onto unsigned words.

    Both parties quantize onto the identical config-derived grid, so equal
    observations produce equal words.
    """
    top = (1 << word_bits) - 1
    scaled = samples + full_scale
    scaled *= top / (2.0 * full_scale)
    np.rint(scaled, out=scaled)
    np.clip(scaled, 0, top, out=scaled)
    return scaled.astype(np.int64)


@lru_cache(maxsize=64)
def _period_grid(cfg: KljnSessionConfig) -> tuple[ChannelLevels, float, float]:
    """Theoretical levels and the voltage/current quantizer full scales."""
    levels = theoretical_levels(cfg)
    v_scale = _CLIP_SIGMA * math.sqrt(levels.voltage[2])
    i_scale = _CLIP_SIGMA * math.sqrt(levels.current[0])
    return levels, v_scale, i_scale


def _mean_square(x: np.ndarray) -> float:
    # the same pairwise sum and division np.mean performs
    return float(np.add.reduce(x * x)) / len(x)


@dataclass(frozen=True)
class PeriodTrace:
    """One party's published words for one period."""

    voltage_words: np.ndarray
    current_words: np.ndarray


@dataclass(frozen=True)
class PeriodOutcome:
    alice_choice: ResistorChoice
    bob_choice: ResistorChoice
    ms_voltage: float
    ms_current: float
    level_class: LevelClass
    bit: int | None
    attack_flag: bool
    alice_trace: PeriodTrace
    bob_trace: PeriodTrace


@dataclass(frozen=True)
class AttackVerdict:
    clean: bool
    mismatch_periods: tuple[int, ...] = ()


class WireSubstitutionAttacker:
    """Severs the wire and impersonates a key-exchange partner toward each end.

    Each end still sees a plausible channel, but the two ends now observe
    independent noise, which the public word comparison exposes.
    """

    def __init__(self, start_period: int = 0, seed: int = 0):
        self.start_period = start_period
        self._rng = np.random.default_rng(seed)

    def active(self, period_index: int) -> bool:
        return period_index >= self.start_period

    def tamper(self, cfg, r_a, r_b, u_a, u_b):
        n = len(u_a)
        r_e1 = cfg.r_high if self._rng.integers(0, 2) else cfg.r_low
        r_e2 = cfg.r_high if self._rng.integers(0, 2) else cfg.r_low
        u_e1 = resistor_noise(cfg, r_e1, n, self._rng)
        u_e2 = resistor_noise(cfg, r_e2, n, self._rng)
        alice_u, alice_i = channel_waveforms(r_a, r_e1, u_a, u_e1)
        bob_u, bob_i = channel_waveforms(r_e2, r_b, u_e2, u_b)
        return alice_u, alice_i, bob_u, bob_i


class CurrentInjectionAttacker:
    """Feeds noise current into the wire between the two measurement points.

    The injected current splits between the ends with opposite signs, so
    their current words diverge while the voltage stays shared.
    """

    def __init__(self, start_period: int = 0, scale: float = 0.5, seed: int = 0):
        self.start_period = start_period
        self.scale = scale
        self._rng = np.random.default_rng(seed)

    def active(self, period_index: int) -> bool:
        return period_index >= self.start_period

    def tamper(self, cfg, r_a, r_b, u_a, u_b):
        u_ch, i_ch = channel_waveforms(r_a, r_b, u_a, u_b)
        levels = _period_grid(cfg)[0]
        injected = self._rng.normal(0.0, self.scale * math.sqrt(levels.current[1]), len(u_a))
        return u_ch, i_ch + injected / 2.0, u_ch, i_ch - injected / 2.0


def _combine_classes(by_voltage: LevelClass, by_current: LevelClass) -> LevelClass:
    if by_voltage is by_current:
        return by_voltage
    if by_voltage is LevelClass.UNDECIDED:
        return by_current
    if by_current is LevelClass.UNDECIDED:
        return by_voltage
    return LevelClass.UNDECIDED  # contradictory measurements


def _words_mismatch(a: PeriodTrace, b: PeriodTrace) -> bool:
    if a.voltage_words.shape != b.voltage_words.shape:
        raise ValueError("trace length mismatch")
    return not (
        np.array_equal(a.voltage_words, b.voltage_words)
        and np.array_equal(a.current_words, b.current_words)
    )


def simulate_bit_period(
    cfg: KljnSessionConfig,
    alice_rng,
    bob_rng,
    attacker=None,
    period_index: int = 0,
) -> PeriodOutcome:
    """Run one bit period: selection, measurement, classification, comparison.

    Both parties pick Low/High with equal probability and the wire noise is
    synthesized for one window.  Measurements recorded in the outcome are
    the first party's view, which equals the second party's except under an
    active attack.  An untampered period (no attacker, or one not yet
    active) quantizes the shared waveform once and publishes that one trace
    for both parties; a trace cannot mismatch itself, so only a tampered
    period runs the public word comparison.  The shared bit convention: in
    a mixed period the bit is 1 iff the first (lexicographically smaller)
    party holds the high resistor; either party can compute it from its own
    choice once the level class is known.
    """
    alice_choice = ResistorChoice.HIGH if alice_rng.integers(0, 2) else ResistorChoice.LOW
    bob_choice = ResistorChoice.HIGH if bob_rng.integers(0, 2) else ResistorChoice.LOW
    r_a, r_b = cfg.resistance(alice_choice), cfg.resistance(bob_choice)

    n = cfg.samples_per_period
    u_a = resistor_noise(cfg, r_a, n, alice_rng)
    u_b = resistor_noise(cfg, r_b, n, bob_rng)

    tampered = attacker is not None and attacker.active(period_index)
    if tampered:
        alice_u, alice_i, bob_u, bob_i = attacker.tamper(cfg, r_a, r_b, u_a, u_b)
    else:
        alice_u, alice_i = channel_waveforms(r_a, r_b, u_a, u_b)

    ms_voltage = _mean_square(alice_u)
    ms_current = _mean_square(alice_i)

    levels, v_scale, i_scale = _period_grid(cfg)
    level_class = _combine_classes(
        classify_level(ms_voltage, levels.voltage, cfg.level_tolerance),
        classify_level(ms_current, levels.current, cfg.level_tolerance),
    )

    alice_trace = PeriodTrace(
        quantize_words(alice_u, v_scale, cfg.data_word_bits),
        quantize_words(alice_i, i_scale, cfg.data_word_bits),
    )
    if tampered:
        bob_trace = PeriodTrace(
            quantize_words(bob_u, v_scale, cfg.data_word_bits),
            quantize_words(bob_i, i_scale, cfg.data_word_bits),
        )
    else:
        bob_trace = alice_trace  # one shared waveform, one shared trace
    attack_flag = tampered and _words_mismatch(alice_trace, bob_trace)

    bit = None
    if level_class is LevelClass.INTERMEDIATE and not attack_flag:
        bit = 1 if alice_choice is ResistorChoice.HIGH else 0

    return PeriodOutcome(
        alice_choice=alice_choice,
        bob_choice=bob_choice,
        ms_voltage=ms_voltage,
        ms_current=ms_current,
        level_class=level_class,
        bit=bit,
        attack_flag=attack_flag,
        alice_trace=alice_trace,
        bob_trace=bob_trace,
    )


def detect_active_attack(alice_trace, bob_trace) -> AttackVerdict:
    """Compare the two parties' published word sequences period by period.

    Both ends of an untampered wire observe the same waveform and quantize
    on the same grid, so any differing word convicts an active intervention.
    """
    if len(alice_trace) != len(bob_trace):
        raise ValueError(
            f"trace length mismatch: {len(alice_trace)} vs {len(bob_trace)} periods"
        )
    mismatches = tuple(
        period
        for period, (a, b) in enumerate(zip(alice_trace, bob_trace))
        if _words_mismatch(a, b)
    )
    return AttackVerdict(clean=not mismatches, mismatch_periods=mismatches)


def auth_bit_cost(data_word_bits: int) -> float:
    """Secure bits consumed to authenticate one published data word."""
    if data_word_bits < 2:
        raise ValueError(f"word size must be at least 2 bits, got {data_word_bits}")
    return math.log2(data_word_bits)


@dataclass(frozen=True)
class KeyExchangeResult:
    key_bits: str
    periods_used: int
    discard_count: int
    undecided_count: int
    attack_detected: bool
    level_statistics: dict[str, int] = field(default_factory=dict)

    @property
    def key_hex(self) -> str:
        """Key packed MSB-first into hex, zero-padded to whole nibbles."""
        if not self.key_bits:
            return ""
        padded = self.key_bits + "0" * (-len(self.key_bits) % 4)
        return f"{int(padded, 2):0{len(padded) // 4}x}"


class BudgetExhaustedError(RuntimeError):
    """Period budget ran out before the key was complete; partial stats attached."""

    def __init__(self, partial: KeyExchangeResult):
        super().__init__(
            f"period budget exhausted after {partial.periods_used} periods "
            f"with {len(partial.key_bits)} bits"
        )
        self.partial = partial


def run_key_exchange(
    cfg: KljnSessionConfig,
    target_bits: int,
    attacker=None,
) -> KeyExchangeResult:
    """Repeat bit periods until the key is complete or something stops us.

    Stops early when the public comparison flags a period (the whole key is
    discarded) and raises :class:`BudgetExhaustedError` if the budget of
    ``64 * target_bits`` periods runs out first.  Deterministic for a given
    config seed: the two parties draw from independent streams spawned
    from it.
    """
    if target_bits < 1:
        raise ValueError("target_bits must be at least 1")
    budget = 64 * target_bits
    alice_seq, bob_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    alice_rng = np.random.default_rng(alice_seq)
    bob_rng = np.random.default_rng(bob_seq)

    bits: list[str] = []
    histogram = {cls.value: 0 for cls in LevelClass}
    discards = undecided = periods = 0
    attack = False
    for period in range(budget):
        outcome = simulate_bit_period(cfg, alice_rng, bob_rng, attacker, period_index=period)
        periods += 1
        histogram[outcome.level_class.value] += 1
        if outcome.attack_flag:
            attack = True
            break
        if outcome.level_class is LevelClass.INTERMEDIATE:
            bits.append(str(outcome.bit))
            if len(bits) == target_bits:
                break
        elif outcome.level_class is LevelClass.UNDECIDED:
            undecided += 1
        else:
            discards += 1

    if attack:
        return KeyExchangeResult("", periods, discards, undecided, True, histogram)
    result = KeyExchangeResult("".join(bits), periods, discards, undecided, False, histogram)
    if len(bits) < target_bits:
        raise BudgetExhaustedError(result)
    return result
