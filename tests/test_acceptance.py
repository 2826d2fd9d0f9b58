"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import time

import numpy as np
import sympy as sp
from mpmath import mp, mpf

from kextrust.kljn import (
    KljnSessionConfig,
    LevelClass,
    ResistorChoice,
    WireSubstitutionAttacker,
    run_key_exchange,
    simulate_bit_period,
)
from kextrust.orchestrator import (
    CHANNEL_KLJN,
    CHANNEL_WIRELESS,
    STATUS_REVOKED,
    apply_kill_event,
    establish_network_keys,
    state_to_json,
    trust_report,
)
from kextrust.topology import Topology, derive_wireless_sets, validate
from kextrust.trust import (
    coefficients_closed_form,
    coefficients_fixed_point,
    counts,
    geometric_partial_sum,
    trust,
    trust_matrix,
)
from reference_data import (
    EXPECTED_TRUST,
    SENSORS,
    expected_tolerance,
    geometric_sum_naive,
    random_topology,
)

COEF = coefficients_closed_form()


def _report(number: int, description: str, failures: list, elapsed: float | None = None):
    status = "PASS" if not failures else "FAIL"
    timing = f" ({elapsed:.3f}s)" if elapsed is not None else ""
    print(f"[criterion {number}] {status}{timing} {description}")
    assert not failures, f"criterion {number} failed: {failures}"


def test_criterion_1_published_matrix_reproduction(fig2):
    failures = []
    trust_matrix(fig2, COEF)  # warm-up (imports, allocator)
    elapsed = min(
        (lambda t0: (trust_matrix(fig2, COEF), time.perf_counter() - t0)[1])(
            time.perf_counter()
        )
        for _ in range(3)
    )
    matrix = trust_matrix(fig2, COEF)
    for i_pos, i in enumerate(SENSORS):
        for j_pos, j in enumerate(SENSORS):
            expected = EXPECTED_TRUST[i][j_pos]
            tol = expected_tolerance(i, j)
            got = matrix.values[i_pos, j_pos]
            if abs(got - expected) > tol:
                failures.append(f"G[{i}][{j}] = {got:.6f}, published {expected} (tol {tol})")
    if elapsed >= 0.010:
        failures.append(f"matrix took {elapsed * 1e3:.2f} ms, limit 10 ms")
    _report(1, "all 100 published trust entries within tolerance, < 10 ms", failures, elapsed)


def test_criterion_2_coefficient_correctness():
    failures = []
    residuals = COEF.residuals()
    if max(residuals) >= 1e-12:
        failures.append(f"closed-form residuals {residuals} not < 1e-12")
    numeric = coefficients_fixed_point(1e-10)
    for name, closed, solved in (
        ("a", COEF.a, numeric.a),
        ("b", COEF.b, numeric.b),
        ("c", COEF.c, numeric.c),
    ):
        if abs(closed - solved) >= 1e-10:
            failures.append(f"{name}: closed {closed!r} vs bisection {solved!r}")
    for name, value, published in (("a", COEF.a, 0.3820), ("b", COEF.b, 0.1729), ("c", COEF.c, 0.1474)):
        if round(value, 4) != published:
            failures.append(f"{name} rounds to {round(value, 4)}, published {published}")
    _report(2, "closed forms: residuals < 1e-12, oracle match 1e-10, 4-digit roundings", failures)


def test_criterion_3_saturation_ceilings():
    # The gaps at count 10^6 are ~10^-831000, below any practical float
    # resolution, so strictness is established exactly: the closed-form
    # partial sum decomposes algebraically as limit minus a positive tail,
    # and the exact radical coefficients make each limit equal its bound.
    failures = []
    n = 10**6

    r, m = sp.symbols("r m", positive=True)
    closed_form = r * (1 - r**m) / (1 - r)
    tail = r ** (m + 1) / (1 - r)
    if sp.simplify(closed_form - (r / (1 - r) - tail)) != 0:
        failures.append("partial sum does not decompose as limit minus tail")

    a = (3 - sp.sqrt(5)) / 2
    b = (a + 2 - sp.sqrt(a**2 + 4)) / 2
    c = b / (1 + b)
    if sp.expand(a**2 - 3 * a + 1) != 0:
        failures.append("a does not satisfy a/(1-a) + a = 1 exactly")
    # The b and c identities in polynomial form, which sympy decides exactly
    # by expansion and cancellation.  Multiplying b/(1-b) = a - b by 1 - b
    # gives b^2 - (a+2)b + a = 0; the two are equivalent because that
    # polynomial is -1 at b = 1, so none of its roots is 1.  The c identity
    # needs c != 1, which holds since c = b/(1+b) = 1 has no solution.
    if sp.expand(b**2 - (a + 2) * b + a) != 0:
        failures.append("b does not satisfy b/(1-b) = a - b exactly")
    if sp.cancel(c / (1 - c) - b) != 0:
        failures.append("c does not satisfy c/(1-c) = b exactly")
    ordering = [sp.N(d, 30) for d in (c, b - c, a - b, 1 - a)]
    if not all(d > 0 for d in ordering):
        failures.append(f"coefficient ordering 0 < c < b < a < 1 violated: {ordering}")

    # With the identities exact, each gap IS a sum of tails r^(n+1)/(1-r)
    # with r in (0, 1): strictly positive.  Check magnitude through logs.
    mp.dps = 40
    tails = {
        name: (n + 1) * mp.log10(mpf(str(sp.N(coeff, 35))))
        - mp.log10(mpf(str(sp.N(1 - coeff, 35))))
        for name, coeff in (("a", a), ("b", b), ("c", c))
    }
    gaps = {
        "S_Z < b": (tails["c"], sp.N(b, 20)),
        "S_W + S_Z < a": (max(tails["b"], tails["c"]), sp.N(a, 20)),
        "S_K + S_W + S_Z < 1": (max(tails.values()), sp.Integer(1)),
    }
    for label, (log10_gap, bound) in gaps.items():
        # gap <= 3 * 10^log10_gap, and must stay under 1e-6 of the bound
        if not log10_gap + 1 < mp.log10(mpf(str(sp.N(bound, 20))) * mpf("1e-6")):
            failures.append(f"{label}: gap magnitude 1e{log10_gap} too large")

    # library float path: partial sums saturate onto the bounds, never past
    # the representable range
    f_z = geometric_partial_sum(COEF.c, n)
    f_w = geometric_partial_sum(COEF.b, n)
    f_k = geometric_partial_sum(COEF.a, n)
    if abs(f_z - COEF.b) > 5e-16:
        failures.append(f"float z-series saturates to {f_z!r}, bound {COEF.b!r}")
    if abs(f_w + f_z - COEF.a) > 5e-16:
        failures.append(f"float w+z saturates to {f_w + f_z!r}, bound {COEF.a!r}")
    if abs(f_k + f_w + f_z - 1.0) > 5e-16:
        failures.append(f"float total saturates to {f_k + f_w + f_z!r}, bound 1.0")
    _report(3, "tier ceilings strict at counts 10^6 (exact closed-form tails)", failures)


def _monotone_synthetic_checks(failures):
    explicit_wireless = {
        "z": Topology(
            ("i", "j", "k", "x", "y"),
            frozenset(),
            {
                "j": frozenset({"i", "x", "y"}),
                "k": frozenset({"i", "x"}),
                "i": frozenset({"j", "k", "x", "y"}),
                "x": frozenset({"i", "j", "k", "y"}),
                "y": frozenset({"i", "j", "x"}),
            },
        ),
        "w": Topology(
            ("i", "j", "k", "x", "y"),
            frozenset({("j", "x"), ("j", "y"), ("k", "x")}),
            {
                "j": frozenset({"i"}),
                "k": frozenset({"i"}),
                "i": frozenset({"j", "k", "x", "y"}),
                "x": frozenset({"i", "y"}),
                "y": frozenset({"i", "x"}),
            },
        ),
        "k": Topology(
            ("i", "j", "k", "x", "y"),
            frozenset({("i", "x"), ("j", "x"), ("k", "y")}),
            {
                "j": frozenset({"i"}),
                "k": frozenset({"i"}),
                "i": frozenset({"j", "k", "y"}),
                "x": frozenset({"y"}),
                "y": frozenset({"i", "x"}),
            },
        ),
    }
    for coordinate, t in explicit_wireless.items():
        if not trust(t, COEF, frozenset(), "i", "j") > trust(t, COEF, frozenset(), "i", "k"):
            failures.append(f"constructed {coordinate}-coordinate pair not strictly ordered")


def test_criterion_4_property_suite_on_random_topologies():
    failures = []
    rng = np.random.default_rng(20_260_810)
    start = time.perf_counter()

    _monotone_synthetic_checks(failures)
    # per-coordinate strict monotonicity at float-resolvable counts
    for _ in range(100):
        k, w, z = (int(v) for v in rng.integers(0, 15, size=3))

        def g(kk, ww, zz):
            return (
                geometric_partial_sum(COEF.a, kk)
                + geometric_partial_sum(COEF.b, ww)
                + geometric_partial_sum(COEF.c, zz)
            )

        if not (g(k + 1, w, z) > g(k, w, z) and g(k, w + 1, z) > g(k, w, z) and g(k, w, z + 1) > g(k, w, z)):
            failures.append(f"monotonicity violated at counts {(k, w, z)}")
            break

    for topo_index in range(200):
        n = int(rng.integers(3, 51))
        t = derive_wireless_sets(random_topology(rng, n))
        if not validate(t).ok:
            failures.append(f"topology {topo_index} failed validation")
            break
        killed = {s for s in t.sensors if rng.random() < 0.15}
        matrix = trust_matrix(t, COEF, killed)
        values = matrix.values
        at = {s: p for p, s in enumerate(matrix.order)}
        if values.min() < 0.0 or values.max() > 1.0:
            failures.append(f"topology {topo_index}: values outside [0, 1]")
            break
        for pos, s in enumerate(t.sensors):
            if s in killed and values[:, pos].any():
                failures.append(f"topology {topo_index}: killed column {s} not zero")
                break
        for a_id, b_id in t.kljn_edges:
            if b_id not in killed and values[at[a_id], at[b_id]] != 1.0:
                failures.append(f"topology {topo_index}: wired pair {(a_id, b_id)} not 1")
                break
            if a_id not in killed and values[at[b_id], at[a_id]] != 1.0:
                failures.append(f"topology {topo_index}: wired pair {(b_id, a_id)} not 1")
                break
        # closed form against the term-by-term oracle on sampled cells
        sensors = list(t.sensors)
        for _ in range(5):
            i, j = (sensors[int(v)] for v in rng.integers(0, n, size=2))
            if i == j or j in t.kljn_set(i) or j in killed:
                continue
            k, w, z = counts(t, i, j)
            naive = (
                geometric_sum_naive(COEF.a, k)
                + geometric_sum_naive(COEF.b, w)
                + geometric_sum_naive(COEF.c, z)
            )
            if abs(values[at[i], at[j]] - min(naive, 1.0)) > 1e-12:
                failures.append(f"topology {topo_index}: closed vs naive mismatch at {(i, j)}")
                break
        if failures:
            break

    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"property suite took {elapsed:.2f}s, limit 5s")
    _report(4, "200 random topologies: range, kill, wired maximality, monotonicity, oracle", failures, elapsed)


def test_criterion_5_exchange_statistics():
    failures = []
    start = time.perf_counter()
    cfg = KljnSessionConfig(seed=2026)
    seqs = np.random.SeedSequence(cfg.seed).spawn(2)
    alice_rng, bob_rng = (np.random.default_rng(s) for s in seqs)

    periods = 10_000
    tallies = {cls: 0 for cls in LevelClass}
    bits = []
    disagreements = 0
    for index in range(periods):
        outcome = simulate_bit_period(cfg, alice_rng, bob_rng, period_index=index)
        tallies[outcome.level_class] += 1
        if outcome.level_class is LevelClass.INTERMEDIATE and not outcome.attack_flag:
            bits.append(outcome.bit)
            bob_view = 1 if outcome.bob_choice is ResistorChoice.LOW else 0
            if outcome.bit != bob_view:
                disagreements += 1

    freq = {cls: tallies[cls] / periods for cls in LevelClass}
    for cls, target in ((LevelClass.LL, 0.25), (LevelClass.HH, 0.25), (LevelClass.INTERMEDIATE, 0.50)):
        if abs(freq[cls] - target) > 0.02:
            failures.append(f"{cls.value} frequency {freq[cls]:.4f}, target {target} +/- 0.02")
    if freq[LevelClass.UNDECIDED] >= 0.01:
        failures.append(f"undecided rate {freq[LevelClass.UNDECIDED]:.4f} not < 1%")
    balance = sum(bits) / len(bits)
    if abs(balance - 0.5) > 0.02:
        failures.append(f"key-bit balance {balance:.4f}, target 0.5 +/- 0.02")
    if disagreements:
        failures.append(f"{disagreements} periods where the parties derive different bits")

    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"statistics run took {elapsed:.2f}s, limit 30s")
    _report(5, "10^4 periods: 25/50/25 within 0.02, undecided < 1%, balanced agreed bits", failures, elapsed)


def test_criterion_6_active_attack_detection():
    failures = []
    trials = 1_000

    detected_fast = 0
    for trial in range(trials):
        cfg = KljnSessionConfig(seed=10_000 + trial)
        attacker = WireSubstitutionAttacker(start_period=0, seed=50_000 + trial)
        result = run_key_exchange(cfg, 1, attacker=attacker)
        if result.attack_detected and result.periods_used <= 3:
            detected_fast += 1
    rate = detected_fast / trials
    if rate < 0.99:
        failures.append(f"detection within 3 periods in {rate:.3f} of trials, need >= 0.99")

    false_positives = 0
    for trial in range(trials):
        cfg = KljnSessionConfig(seed=200_000 + trial)
        result = run_key_exchange(cfg, 4)
        if result.attack_detected:
            false_positives += 1
    if false_positives:
        failures.append(f"{false_positives} false positives in {trials} attack-free trials")

    _report(6, "wire substitution caught within 3 periods >= 99%, zero false alarms", failures)


def test_criterion_7_orchestrated_establishment(fig2):
    failures = []
    state = establish_network_keys(fig2, master_seed=42, target_bits=32)
    channels = [r.channel for r in state.records.values()]
    if channels.count(CHANNEL_KLJN) != 6 or channels.count(CHANNEL_WIRELESS) != 39:
        failures.append(
            f"record partition {channels.count(CHANNEL_KLJN)} wired / "
            f"{channels.count(CHANNEL_WIRELESS)} wireless, expected 6 / 39"
        )

    again = establish_network_keys(fig2, master_seed=42, target_bits=32)
    if state_to_json(again) != state_to_json(state):
        failures.append("same master seed did not produce byte-identical state")

    before = trust_report(state, COEF)[0].values
    apply_kill_event(state, "H", note="criterion 7")
    revoked = [r for r in state.records.values() if r.status == STATUS_REVOKED]
    if len(revoked) != 9:
        failures.append(f"{len(revoked)} records revoked by killing H, expected 9")
    after = trust_report(state, COEF)[0].values
    h = SENSORS.index("H")
    if after[:, h].any():
        failures.append("column H not zeroed after kill")
    mask = np.ones(len(SENSORS), dtype=bool)
    mask[h] = False
    if not np.array_equal(after[:, mask], before[:, mask]):
        failures.append("killing H changed columns other than H")

    _report(7, "6 wired + 39 wireless records, kill H revokes 9, reproducible state", failures)


def test_criterion_8_thousand_sensor_scale():
    failures = []
    rng = np.random.default_rng(99)
    n = 1_000
    sensors = tuple(f"n{k:04d}" for k in range(n))
    picks = rng.integers(0, n, size=(3_000, 2))
    edges = frozenset(
        (sensors[min(a, b)], sensors[max(a, b)]) for a, b in picks if a != b
    )
    t = Topology(sensors, edges)

    start = time.perf_counter()
    matrix = trust_matrix(t, COEF)
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"1000-sensor matrix took {elapsed:.2f}s, limit 10s")
    if matrix.values.min() < 0.0 or matrix.values.max() > 1.0:
        failures.append("values outside [0, 1] at scale")
    for _ in range(5):
        a, b = (int(v) for v in rng.integers(0, n, size=2))
        if a == b:
            continue
        if matrix.values[a, b] != trust(t, COEF, frozenset(), sensors[a], sensors[b]):
            failures.append(f"cell ({a}, {b}) differs from scalar evaluation")
    _report(8, "1000-sensor all-pairs matrix under 10 s", failures, elapsed)
