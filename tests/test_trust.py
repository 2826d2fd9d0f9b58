import math
import time
import tracemalloc

import numpy as np
import pytest

from kextrust.topology import Topology, UnknownSensorError, derive_wireless_sets
from kextrust.trust import (
    coefficients_closed_form,
    coefficients_fixed_point,
    counts,
    geometric_partial_sum,
    rank_peers,
    trust,
    trust_matrix,
)
from reference_data import (
    EXPECTED_TRUST,
    SENSORS,
    expected_tolerance,
    geometric_sum_naive,
    random_topology,
    sparse_topology,
    with_explicit_wireless_sets,
)

COEF = coefficients_closed_form()


class TestCoefficients:
    def test_closed_form_values(self):
        assert COEF.a == (3 - math.sqrt(5)) / 2
        assert round(COEF.a, 4) == 0.3820
        assert round(COEF.b, 4) == 0.1729
        assert round(COEF.c, 4) == 0.1474

    def test_ordering_and_range(self):
        assert 0 < COEF.c < COEF.b < COEF.a < 1

    def test_residuals_tiny(self):
        assert max(COEF.residuals()) < 1e-12

    def test_fixed_point_agrees_with_closed_form(self):
        numeric = coefficients_fixed_point(1e-10)
        assert abs(numeric.a - COEF.a) < 1e-10
        assert abs(numeric.b - COEF.b) < 1e-10
        assert abs(numeric.c - COEF.c) < 1e-10
        assert numeric.provenance == "fixed_point"

    @pytest.mark.parametrize("tol", [0.0, -1.0, 1e-3, 1.0])
    def test_fixed_point_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError):
            coefficients_fixed_point(tol)


class TestGeometricPartialSum:
    def test_exact_small_case(self):
        assert geometric_partial_sum(0.5, 3) == 0.875

    def test_empty_sum(self):
        assert geometric_partial_sum(0.9, 0) == 0.0

    @pytest.mark.parametrize("r", [0.0, 1.0, -0.5, 1.5])
    def test_domain_error(self, r):
        with pytest.raises(ValueError):
            geometric_partial_sum(r, 3)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            geometric_partial_sum(0.5, -1)

    def test_monotone_and_bounded(self):
        previous = 0.0
        bound = COEF.c / (1 - COEF.c)
        for n in range(0, 200):
            value = geometric_partial_sum(COEF.c, n)
            assert value >= previous
            assert value <= bound
            previous = value

    def test_z_series_converges_to_second_tier_coefficient(self):
        # summing the bottom tier exhaustively lands on one mid-tier term
        assert abs(geometric_sum_naive(COEF.c, 400) - COEF.b) < 1e-14
        assert abs(geometric_partial_sum(COEF.c, 10**6) - COEF.b) < 1e-15

    def test_closed_form_matches_naive_summation(self):
        for r in (COEF.a, COEF.b, COEF.c):
            for n in (0, 1, 2, 5, 17, 100, 1000):
                assert abs(geometric_partial_sum(r, n) - geometric_sum_naive(r, n)) < 1e-12


class TestCounts:
    @pytest.mark.parametrize(
        "i,j,expected",
        [
            ("A", "C", (1, 0, 7)),
            ("B", "C", (0, 1, 7)),
            ("F", "D", (0, 3, 5)),
            ("A", "E", (2, 0, 6)),
            ("B", "D", (2, 1, 5)),
            ("J", "G", (0, 1, 7)),
        ],
    )
    def test_reference_pairs(self, fig2, i, j, expected):
        assert counts(fig2, i, j) == expected

    def test_same_sensor_rejected(self, fig2):
        with pytest.raises(ValueError):
            counts(fig2, "A", "A")

    def test_unknown_sensor_rejected(self, fig2):
        with pytest.raises(UnknownSensorError):
            counts(fig2, "A", "Q")


class TestTrustFunction:
    def test_wireless_peer_with_shared_wired_neighbour(self, fig2):
        assert trust(fig2, COEF, frozenset(), "A", "C") == pytest.approx(0.555, abs=1e-3)

    def test_wired_peer_is_fully_trusted(self, fig2):
        assert trust(fig2, COEF, frozenset(), "A", "B") == 1.0

    def test_killed_peer_is_zero(self, fig2):
        assert trust(fig2, COEF, {"C"}, "A", "C") == 0.0
        assert trust(fig2, COEF, {"C"}, "A", "B") == 1.0

    def test_asymmetry(self, fig2):
        g_bc = trust(fig2, COEF, frozenset(), "B", "C")
        g_cb = trust(fig2, COEF, frozenset(), "C", "B")
        assert g_bc == pytest.approx(0.346, abs=1e-3)
        assert g_cb == pytest.approx(0.376, abs=1e-3)
        assert g_bc != g_cb

    def test_incomplete_transitivity(self, fig2):
        assert trust(fig2, COEF, frozenset(), "A", "D") == 1.0
        assert trust(fig2, COEF, frozenset(), "D", "C") == 1.0
        assert trust(fig2, COEF, frozenset(), "A", "C") < 1.0

    def test_self_pair_rejected(self, fig2):
        with pytest.raises(ValueError):
            trust(fig2, COEF, frozenset(), "A", "A")

    def test_unknown_sensor_rejected(self, fig2):
        with pytest.raises(UnknownSensorError):
            trust(fig2, COEF, frozenset(), "A", "Q")
        with pytest.raises(UnknownSensorError):
            trust(fig2, COEF, {"Q"}, "A", "Q")


class TestTrustMatrix:
    def test_reproduces_published_values(self, fig2):
        matrix = trust_matrix(fig2, COEF)
        for i_pos, i in enumerate(SENSORS):
            for j_pos, j in enumerate(SENSORS):
                expected = EXPECTED_TRUST[i][j_pos]
                assert matrix.values[i_pos, j_pos] == pytest.approx(
                    expected, abs=expected_tolerance(i, j)
                ), (i, j)

    def test_two_wired_sensors_all_ones(self):
        t = derive_wireless_sets(Topology(("A", "B"), frozenset({("A", "B")})))
        matrix = trust_matrix(t, COEF)
        assert np.all(matrix.values == 1.0)

    def test_kill_zeroes_exactly_one_column(self, fig2):
        baseline = trust_matrix(fig2, COEF)
        killed = trust_matrix(fig2, COEF, {"H"})
        h = SENSORS.index("H")
        assert np.all(killed.values[:, h] == 0.0)
        mask = np.ones(len(SENSORS), dtype=bool)
        mask[h] = False
        assert np.array_equal(killed.values[:, mask], baseline.values[:, mask])

    def test_matches_scalar_evaluation_exactly(self):
        # Each topology runs under the complement rule (closed-form Z) and
        # with the same sets given explicitly (membership scan).
        rng = np.random.default_rng(5)
        for _ in range(20):
            bare = random_topology(rng, int(rng.integers(2, 25)))
            killed = {s for s in bare.sensors if rng.random() < 0.2}
            for t in (bare, derive_wireless_sets(bare)):
                matrix = trust_matrix(t, COEF, killed)
                assert matrix.order == list(t.sensors)
                for a, i in enumerate(matrix.order):
                    for b, j in enumerate(matrix.order):
                        if i == j:
                            assert matrix.values[a, b] == (i not in killed)
                        else:
                            assert matrix.values[a, b] == trust(t, COEF, killed, i, j)

    def test_explicit_sets_match_scalar(self):
        # explicit sets that differ from the complement rule take the
        # membership-scan Z branch
        rng = np.random.default_rng(13)
        t = with_explicit_wireless_sets(random_topology(rng, 30, edge_prob=0.2), rng, 0.5)
        assert any(t.wireless_set(s) != t.sensor_set - t.kljn_set(s) - {s} for s in t.sensors)
        for killed in (frozenset(), frozenset(t.sensors[::5])):
            matrix = trust_matrix(t, COEF, killed)
            for a, i in enumerate(matrix.order):
                for b, j in enumerate(matrix.order):
                    if i != j:
                        assert matrix.values[a, b] == trust(t, COEF, killed, i, j), (i, j)

    def test_retains_only_the_values(self):
        # n = 1000 under the complement rule with 3n wired links: every
        # working array is dropped, so the result holds just the 2-byte code
        # matrix and per-column arrays, not n x n floats
        t = sparse_topology(np.random.default_rng(43), 1000, 3000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            matrix = trust_matrix(t, COEF)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert matrix.codes.itemsize == 2
        assert retained <= matrix.codes.nbytes + 2**20, f"{retained / 2**20:.1f} MB retained"

    def test_peak_stays_near_the_values(self):
        # the code matrix is the only n x n array built; the rest of the
        # working set is well under a MB at this size
        t = sparse_topology(np.random.default_rng(43), 1000, 3000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            matrix = trust_matrix(t, COEF)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < matrix.codes.nbytes + 2**20, f"{peak / 2**20:.1f} MB peak"

    @pytest.mark.parametrize("edge_prob", [0.5, 1.0])
    def test_peak_is_bounded_on_dense_wiring(self, edge_prob):
        # n = 200 with half or all pairs wired: the sum of deg^2, one entry
        # per two-hop path, reaches n^3.  The paths are counted a bounded
        # chunk at a time, and the value ids are built a block at a time, so
        # the peak is the codes, the links both ways in two orders, one chunk
        # of keys and a block's keys and ids: a fixed multiple of n^2 floats
        t = random_topology(np.random.default_rng(44), 200, edge_prob=edge_prob)
        n = len(t.sensors)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in trust_matrix(t, COEF).blocks():
                pass
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 8 * (n * n * 8), f"{peak / (n * n * 8):.1f} x n^2 floats"

    def test_value_accessor(self, fig2):
        matrix = trust_matrix(fig2, COEF)
        assert matrix.order == list(fig2.sensors)
        cell = matrix.values[matrix.order.index("A"), matrix.order.index("C")]
        assert cell == trust(fig2, COEF, frozenset(), "A", "C")


class TestRankPeers:
    def test_example_network_ranking(self, fig2):
        ranking = rank_peers(fig2, COEF, frozenset(), "A")
        assert ranking[0] == ("B", 1.0)
        assert ranking[1] == ("D", 1.0)
        tail = ranking[-3:]
        assert [s for s, _ in tail] == ["H", "I", "J"]
        for _, value in tail:
            assert value == pytest.approx(0.173, abs=1e-3)

    def test_wireless_only_evaluator_prefers_better_connected(self, fig2):
        ranking = dict(rank_peers(fig2, COEF, frozenset(), "H"))
        assert ranking["D"] == pytest.approx(0.381, abs=1e-3)
        assert ranking["C"] == pytest.approx(0.346, abs=1e-3)
        assert ranking["D"] > ranking["C"]

    def test_single_sensor_gives_empty_ranking(self):
        t = Topology(("A",), frozenset())
        assert rank_peers(t, COEF, frozenset(), "A") == []

    def test_unknown_sensor(self, fig2):
        with pytest.raises(UnknownSensorError):
            rank_peers(fig2, COEF, frozenset(), "Q")

    def test_values_equal_matrix_rows(self):
        # with and without kills, and under both Z branches
        rng = np.random.default_rng(17)
        for _ in range(12):
            bare = random_topology(rng, int(rng.integers(2, 30)))
            killed = {s for s in bare.sensors if rng.random() < 0.2}
            for t in (bare, derive_wireless_sets(bare)):
                for kill in (frozenset(), killed):
                    matrix = trust_matrix(t, COEF, kill)
                    for i in t.sensor_set:
                        row = matrix.values[matrix.order.index(i)]
                        ranked = rank_peers(t, COEF, kill, i)
                        assert sorted(j for j, _ in ranked) == sorted(t.sensor_set - {i})
                        for j, value in ranked:
                            assert value == row[matrix.order.index(j)]

    def test_complement_rule_equals_derived_sets(self):
        # The complement-rule view and the same sets made explicit give the
        # same counts, values and rankings, with and without kills.
        rng = np.random.default_rng(29)
        for _ in range(12):
            t = random_topology(rng, int(rng.integers(2, 25)))
            derived = derive_wireless_sets(t)
            killed = {s for s in t.sensor_set if rng.random() < 0.2}
            for kill in (frozenset(), killed):
                for i in t.sensor_set:
                    assert rank_peers(t, COEF, kill, i) == rank_peers(derived, COEF, kill, i)
                    for j in t.sensor_set - {i}:
                        assert counts(t, i, j) == counts(derived, i, j)
                        assert trust(t, COEF, kill, i, j) == trust(derived, COEF, kill, i, j)

    def test_rank_at_twenty_thousand_sensors(self):
        # Under the complement rule a peer's Z is a view length, so ranking
        # costs O(n * deg); scanning the n sensors per peer took ~39 s here.
        rng = np.random.default_rng(41)
        n = 20_000
        sensors = tuple(f"s{k:05d}" for k in range(n))
        picks = rng.integers(0, n, size=(3 * n, 2))
        t = Topology(sensors, frozenset((sensors[a], sensors[b]) for a, b in picks if a != b))
        i = sensors[int(rng.integers(0, n))]
        start = time.perf_counter()
        ranking = rank_peers(t, COEF, frozenset(), i)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"rank at n = {n} took {elapsed:.2f} s"
        assert sorted(j for j, _ in ranking) == sorted(set(sensors) - {i})
        wired = t.kljn_set(i)
        assert {j for j, _ in ranking[: len(wired)]} == wired
        for j, value in ranking[len(wired) :: 997]:
            # the closed form of trust_matrix: Z = n - 2 - deg_j off the wired pairs
            j_k = t.kljn_set(j)
            k = len(wired & j_k)
            expected = (
                geometric_partial_sum(COEF.a, k)
                + geometric_partial_sum(COEF.b, len(j_k) - k)
                + geometric_partial_sum(COEF.c, n - 2 - len(j_k))
            )
            assert value == min(expected, 1.0)

    def test_saturated_peer_ranks_below_wired_peers(self):
        # "a" is not wired to "i" but has K = W = Z = 40, where the sum
        # saturates to exactly 1.0 and ties the wired peers m00..m39.
        mutual = [f"m{k:02d}" for k in range(40)]
        others = [f"w{k:02d}" for k in range(40)]
        isolated = [f"z{k:02d}" for k in range(40)]
        edges = {("a", m) for m in mutual} | {("i", m) for m in mutual}
        edges |= {("a", w) for w in others}
        t = Topology(("i", "a", *mutual, *others, *isolated), frozenset(edges))
        assert counts(t, "i", "a") == (40, 40, 40)
        assert trust(t, COEF, frozenset(), "i", "a") == 1.0
        assert trust_matrix(t, COEF).values[0, 1] == 1.0  # ("i", "a")
        ranking = rank_peers(t, COEF, frozenset(), "i")
        assert ranking[:41] == [(m, 1.0) for m in mutual] + [("a", 1.0)]
        # killed peers, wired or not, stay in id order at 0.0
        ranking = rank_peers(t, COEF, {"m00", "a", "w05"}, "i")
        assert [s for s, v in ranking if v == 0.0] == ["a", "m00", "w05"]
        assert ranking[:39] == [(m, 1.0) for m in mutual[1:]]


class TestMonotonicity:
    def test_more_wireless_peers_increase_trust(self):
        # j and k identical except k has one fewer wireless-only peer
        t = Topology(
            ("i", "j", "k", "x", "y"),
            frozenset(),
            {
                "j": frozenset({"i", "x", "y"}),
                "k": frozenset({"i", "x"}),
                "i": frozenset({"j", "k", "x", "y"}),
                "x": frozenset({"i", "j", "k", "y"}),
                "y": frozenset({"i", "j", "x"}),
            },
        )
        assert trust(t, COEF, frozenset(), "i", "j") > trust(t, COEF, frozenset(), "i", "k")

    def test_more_wired_peers_increase_trust(self):
        t = Topology(
            ("i", "j", "k", "x", "y"),
            frozenset({("j", "x"), ("j", "y"), ("k", "x")}),
            {
                "j": frozenset({"i"}),
                "k": frozenset({"i"}),
                "i": frozenset({"j", "k", "x", "y"}),
                "x": frozenset({"i", "y"}),
                "y": frozenset({"i", "x"}),
            },
        )
        assert trust(t, COEF, frozenset(), "i", "j") > trust(t, COEF, frozenset(), "i", "k")

    def test_mutual_wired_peers_outrank_plain_wired_peers(self):
        # same degree, but j shares its wired peer with the evaluator
        t = Topology(
            ("i", "j", "k", "x", "y"),
            frozenset({("i", "x"), ("j", "x"), ("k", "y")}),
            {
                "j": frozenset({"i"}),
                "k": frozenset({"i"}),
                "i": frozenset({"j", "k", "y"}),
                "x": frozenset({"y"}),
                "y": frozenset({"i", "x"}),
            },
        )
        assert trust(t, COEF, frozenset(), "i", "j") > trust(t, COEF, frozenset(), "i", "k")

    def test_formula_level_monotonicity(self):
        def g(k, w, z):
            return (
                geometric_partial_sum(COEF.a, k)
                + geometric_partial_sum(COEF.b, w)
                + geometric_partial_sum(COEF.c, z)
            )

        rng = np.random.default_rng(17)
        for _ in range(200):
            k, w, z = (int(v) for v in rng.integers(0, 12, size=3))
            assert g(k + 1, w, z) > g(k, w, z)
            assert g(k, w + 1, z) > g(k, w, z)
            assert g(k, w, z + 1) > g(k, w, z)


class TestTierCeilings:
    def test_bottom_tier_never_outweighs_one_mid_term(self):
        for n in range(1, 20):
            assert geometric_partial_sum(COEF.c, n) < COEF.b

    def test_two_lower_tiers_never_outweigh_one_top_term(self):
        for n in range(1, 20):
            total = geometric_partial_sum(COEF.b, n) + geometric_partial_sum(COEF.c, n)
            assert total < COEF.a

    def test_trust_stays_in_range_at_extreme_counts(self, fig2):
        # float saturation must cap, never exceed, the range
        total = (
            geometric_partial_sum(COEF.a, 10**6)
            + geometric_partial_sum(COEF.b, 10**6)
            + geometric_partial_sum(COEF.c, 10**6)
        )
        assert total == pytest.approx(1.0, abs=1e-12)
