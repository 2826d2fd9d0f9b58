"""Exactness of the fast wired-exchange path, the trust-matrix kernel and
the templated writers.

Each fast path is checked against a straightforward reference: a copy of
the plain waveform bit period (both ends quantized and compared, numpy
temporaries everywhere), the dense adjacency-product trust matrix (bit for
bit), the state file layout spelled as a rule over ``json.dumps``,
``json.dumps`` of the whole report document, and SHA-256 digests of CLI
output recorded before the fast paths existed.
"""

import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kextrust
from kextrust import kljn
from kextrust.cli import (
    main,
    matrix_to_csv,
    matrix_to_json,
    report_json_chunks,
)
from kextrust.kljn import (
    CurrentInjectionAttacker,
    KeyExchangeResult,
    KljnSessionConfig,
    LevelClass,
    PeriodTrace,
    ResistorChoice,
    WireSubstitutionAttacker,
    _combine_classes,
    _words_mismatch,
    channel_waveforms,
    classify_level,
    quantize_words,
    run_key_exchange,
    simulate_bit_period,
)
from kextrust.orchestrator import (
    CHANNEL_WIRELESS,
    KillSwitchState,
    NetworkKeyState,
    apply_kill_event,
    establish_network_keys,
    json_block,
    json_chunks,
    state_from_json,
    state_to_json,
    trust_report,
    write_files,
)
from kextrust.topology import Topology, derive_wireless_sets, topology_to_doc
from kextrust.trust import (
    TrustMatrix,
    coefficients_closed_form,
    coefficients_fixed_point,
    trust,
    trust_matrix,
)
from reference_data import (
    joined_chunks,
    matrix_to_csv_reference,
    random_topology,
    report_doc,
    sparse_topology,
    trust_matrix_dense_reference,
    with_explicit_wireless_sets,
)

CFG = KljnSessionConfig()
COEF = coefficients_closed_form()
KINDS = ("none", "wire-substitution", "current-injection")


# --- reference bit period: every step spelled out from the circuit constants,
# nothing shared or reused

_REF_UNIT = 4.0 * 1.380649e-23 * kljn.T_EFF * kljn.BANDWIDTH  # 4*k*T_eff*B, per ohm


def _ref_levels():
    """(voltage, current) mean-square levels, index order (LL, mixed, HH)."""
    rl, rh = kljn.R_LOW, kljn.R_HIGH
    voltage = (_REF_UNIT * rl / 2.0, _REF_UNIT * rl * rh / (rl + rh), _REF_UNIT * rh / 2.0)
    current = (_REF_UNIT / (2.0 * rl), _REF_UNIT / (rl + rh), _REF_UNIT / (2.0 * rh))
    return voltage, current


def _ref_noise(resistance, n, rng):
    return rng.normal(0.0, math.sqrt(_REF_UNIT * resistance), n)


def _ref_channel(r_a, r_b, u_a, u_b):
    denom = r_a + r_b
    return (u_a * r_b + u_b * r_a) / denom, (u_a - u_b) / denom


def _ref_quantize(samples, full_scale, word_bits):
    top = (1 << word_bits) - 1
    scaled = np.rint((samples + full_scale) * (top / (2.0 * full_scale)))
    return np.clip(scaled, 0, top).astype(np.int64)


def _ref_mismatch(a, b):
    return bool(
        np.any(np.abs(a.voltage_words - b.voltage_words) > 0)
        or np.any(np.abs(a.current_words - b.current_words) > 0)
    )


class _RefWireSubstitution(WireSubstitutionAttacker):
    def tamper(self, r_a, r_b, u_a, u_b):
        n = len(u_a)
        r_e1 = kljn.R_HIGH if self._rng.integers(0, 2) else kljn.R_LOW
        r_e2 = kljn.R_HIGH if self._rng.integers(0, 2) else kljn.R_LOW
        u_e1 = _ref_noise(r_e1, n, self._rng)
        u_e2 = _ref_noise(r_e2, n, self._rng)
        alice_u, alice_i = _ref_channel(r_a, r_e1, u_a, u_e1)
        bob_u, bob_i = _ref_channel(r_e2, r_b, u_e2, u_b)
        return alice_u, alice_i, bob_u, bob_i


class _RefCurrentInjection(CurrentInjectionAttacker):
    def tamper(self, r_a, r_b, u_a, u_b):
        u_ch, i_ch = _ref_channel(r_a, r_b, u_a, u_b)
        injected = self._rng.normal(0.0, self.scale * math.sqrt(_ref_levels()[1][1]), len(u_a))
        return u_ch, i_ch + injected / 2.0, u_ch, i_ch - injected / 2.0


def _ref_period(cfg, alice_rng, bob_rng, attacker=None, period_index=0):
    alice_choice = ResistorChoice.HIGH if alice_rng.integers(0, 2) else ResistorChoice.LOW
    bob_choice = ResistorChoice.HIGH if bob_rng.integers(0, 2) else ResistorChoice.LOW
    r_a = kljn.R_HIGH if alice_choice is ResistorChoice.HIGH else kljn.R_LOW
    r_b = kljn.R_HIGH if bob_choice is ResistorChoice.HIGH else kljn.R_LOW
    u_a = _ref_noise(r_a, kljn.SAMPLES_PER_PERIOD, alice_rng)
    u_b = _ref_noise(r_b, kljn.SAMPLES_PER_PERIOD, bob_rng)
    if attacker is not None and attacker.active(period_index):
        alice_u, alice_i, bob_u, bob_i = attacker.tamper(r_a, r_b, u_a, u_b)
    else:
        u_ch, i_ch = _ref_channel(r_a, r_b, u_a, u_b)
        alice_u = bob_u = u_ch
        alice_i = bob_i = i_ch
    ms_voltage = float(np.mean(alice_u * alice_u))
    ms_current = float(np.mean(alice_i * alice_i))
    voltage_levels, current_levels = _ref_levels()
    level_class = _combine_classes(
        classify_level(ms_voltage, voltage_levels, cfg.level_tolerance),
        classify_level(ms_current, current_levels, cfg.level_tolerance),
    )
    v_scale = 6.0 * math.sqrt(voltage_levels[2])
    i_scale = 6.0 * math.sqrt(current_levels[0])
    word_bits = kljn.DATA_WORD_BITS
    alice_trace = PeriodTrace(
        _ref_quantize(alice_u, v_scale, word_bits), _ref_quantize(alice_i, i_scale, word_bits))
    bob_trace = PeriodTrace(
        _ref_quantize(bob_u, v_scale, word_bits), _ref_quantize(bob_i, i_scale, word_bits))
    attack_flag = _ref_mismatch(alice_trace, bob_trace)
    bit = None
    if level_class is LevelClass.INTERMEDIATE and not attack_flag:
        bit = 1 if alice_choice is ResistorChoice.HIGH else 0
    return (alice_choice, bob_choice, ms_voltage, ms_current, level_class, bit, attack_flag,
            alice_trace, bob_trace)


def _ref_session(cfg, target_bits, attacker=None):
    alice_seq, bob_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    alice_rng, bob_rng = np.random.default_rng(alice_seq), np.random.default_rng(bob_seq)
    bits, histogram = [], {cls.value: 0 for cls in LevelClass}
    discards = undecided = periods = 0
    for period in range(64 * target_bits):
        _, _, _, _, level_class, bit, attack_flag, _, _ = _ref_period(
            cfg, alice_rng, bob_rng, attacker, period)
        periods += 1
        histogram[level_class.value] += 1
        if attack_flag:
            return KeyExchangeResult("", periods, discards, undecided, True, histogram)
        if level_class is LevelClass.INTERMEDIATE:
            bits.append(str(bit))
            if len(bits) == target_bits:
                break
        elif level_class is LevelClass.UNDECIDED:
            undecided += 1
        else:
            discards += 1
    return KeyExchangeResult("".join(bits), periods, discards, undecided, False, histogram)


def _attackers(kind, seed):
    """(fast-path attacker, reference attacker) with identical RNG streams."""
    if kind == "wire-substitution":
        return (WireSubstitutionAttacker(start_period=25, seed=seed),
                _RefWireSubstitution(start_period=25, seed=seed))
    if kind == "current-injection":
        return (CurrentInjectionAttacker(start_period=25, seed=seed),
                _RefCurrentInjection(start_period=25, seed=seed))
    return None, None


def _same_trace(a, b):
    return (a.voltage_words.dtype == b.voltage_words.dtype
            and np.array_equal(a.voltage_words, b.voltage_words)
            and np.array_equal(a.current_words, b.current_words))


class TestBitPeriodExactness:
    @pytest.mark.parametrize("kind", KINDS)
    def test_periods_equal_reference(self, kind):
        # 48 seeds x 50 periods in total; attacked runs turn active at period 25
        first = 16 * KINDS.index(kind)
        for seed in range(first, first + 16):
            fast_rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]
            ref_rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]
            fast_attacker, ref_attacker = _attackers(kind, seed + 1000)
            for period in range(50):
                got = simulate_bit_period(CFG, *fast_rngs, fast_attacker, period_index=period)
                (alice, bob, ms_v, ms_i, level_class, bit, attack_flag,
                 ref_alice, ref_bob) = _ref_period(CFG, *ref_rngs, ref_attacker, period)
                assert (got.alice_choice, got.bob_choice) == (alice, bob)
                assert got.ms_voltage == ms_v and got.ms_current == ms_i
                assert got.level_class is level_class
                assert got.bit == bit and got.attack_flag == attack_flag
                assert _same_trace(got.alice_trace, ref_alice)
                assert _same_trace(got.bob_trace, ref_bob)

    def test_untampered_period_publishes_one_shared_trace(self):
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(5).spawn(2)]
        outcome = simulate_bit_period(CFG, *rngs)
        assert outcome.bob_trace is outcome.alice_trace
        assert not outcome.attack_flag

    def test_channel_waveforms_equal_reference(self):
        rng = np.random.default_rng(11)
        for r_a, r_b in ((kljn.R_LOW, kljn.R_HIGH), (kljn.R_HIGH, kljn.R_HIGH), (3.5, 7.25)):
            u_a, u_b = rng.normal(0.0, 1e3, 2000), rng.normal(0.0, 2e3, 2000)
            want_u, want_i = _ref_channel(r_a, r_b, u_a, u_b)
            got_u, got_i = channel_waveforms(r_a, r_b, u_a.copy(), u_b.copy())
            assert np.array_equal(got_u, want_u) and np.array_equal(got_i, want_i)

    def test_quantize_words_equal_reference_and_keep_input(self):
        rng = np.random.default_rng(12)
        samples = rng.normal(0.0, 2.0, 5000)
        before = samples.copy()
        for full_scale, bits in ((1.0, 8), (6.0, 16), (12.5, 48)):
            got = quantize_words(samples, full_scale, bits)
            assert got.dtype == np.int64
            assert np.array_equal(got, _ref_quantize(samples, full_scale, bits))
        assert np.array_equal(samples, before)


class TestSessionExactness:
    @pytest.mark.parametrize("kind", KINDS)
    def test_sessions_equal_reference(self, kind):
        for seed in range(10):
            cfg = KljnSessionConfig(seed=seed)
            fast_attacker, ref_attacker = _attackers(kind, seed)
            assert run_key_exchange(cfg, 64, fast_attacker) == _ref_session(cfg, 64, ref_attacker)


class TestWordsMismatch:
    def _tampered_traces(self):
        for kind in ("wire-substitution", "current-injection"):
            attacker, _ = _attackers(kind, 3)
            attacker.start_period = 0
            rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(4).spawn(2)]
            for period in range(10):
                outcome = simulate_bit_period(CFG, *rngs, attacker, period_index=period)
                yield outcome.alice_trace, outcome.bob_trace

    def test_zero_tolerance_agrees_with_absolute_difference(self):
        rng = np.random.default_rng(13)
        cases = list(self._tampered_traces())
        words = rng.integers(0, 1 << 16, 2000)
        for delta in (1, -1, 1 << 15):
            for index in (0, 999, 1999):
                shifted = words.copy()
                shifted[index] += delta
                cases.append((PeriodTrace(words, words), PeriodTrace(shifted, words)))
                cases.append((PeriodTrace(words, words), PeriodTrace(words, shifted)))
        cases.append((PeriodTrace(words, words), PeriodTrace(words.copy(), words.copy())))
        for a, b in cases:
            assert _words_mismatch(a, b) == _ref_mismatch(a, b)
        assert any(_ref_mismatch(a, b) for a, b in cases)
        assert not all(_ref_mismatch(a, b) for a, b in cases)

    def test_period_traces_share_shape(self):
        # both parties publish one word per sample, tampered or not, so the
        # comparison never meets traces of different lengths
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(5).spawn(2)]
        pairs = list(self._tampered_traces())
        pairs += [(o.alice_trace, o.bob_trace)
                  for o in (simulate_bit_period(CFG, *rngs) for _ in range(5))]
        for a, b in pairs:
            assert a.voltage_words.shape == b.voltage_words.shape == b.current_words.shape
            assert a.current_words.shape == a.voltage_words.shape


# --- state writer


# The version 4 layout, spelled as a rule: these containers (by key path,
# "*" for any list entry) have one entry per line, everything else is
# written as json.dumps writes it without indent.
_EXPANDED = {(), ("topology",), ("topology", "kljn_edges"), ("topology", "wireless_sets"),
             ("kljn_keys",), ("kill_events",)}


def _ref_layout(value, path=(), pad=""):
    if path not in _EXPANDED or not value:
        return json.dumps(value)
    if isinstance(value, dict):
        entries = [f"{json.dumps(k)}: {_ref_layout(v, path + (k,), pad + '  ')}"
                   for k, v in value.items()]
        opening, closing = "{}"
    else:
        entries = [_ref_layout(v, path + ("*",), pad + "  ") for v in value]
        opening, closing = "[]"
    body = ",\n".join(pad + "  " + entry for entry in entries)
    return f"{opening}\n{body}\n{pad}{closing}"


def _ref_state_json(state):
    """The version 4 document of ``state``, read off its records view: the
    wired records' key ids, and the kill events."""
    def event(e):
        return {"sensor": e.sensor, "action": e.action, "note": e.note}

    doc = {
        "version": 4,
        "topology": topology_to_doc(state.topology),
        "master_seed": state.master_seed,
        "kljn_keys": [r.key_id for r in state.records_sorted() if r.channel == "kljn"],
        "kill_events": [event(e) for e in state.kill.event_log],
    }
    return _ref_layout(doc) + "\n"


ODD_IDS = ('q"1', "back\\slash", "é", "\u2603snow", "tab\there", "plain")


class TestListWriter:
    @pytest.mark.parametrize("size", [0, 1, 2, 63, 64, 65, 128, 129, 1000])
    @pytest.mark.parametrize("pad", ["", "    "])
    def test_lists_and_objects_equal_json_dumps(self, size, pad):
        # a block opened at indent pad is json.dumps(indent=2) of the value
        # with pad after every line break
        values = [i if i % 2 else f"s{i}" for i in range(size)]
        want = json.dumps(values, indent=2).replace("\n", "\n" + pad)
        items = [json.dumps(v) for v in values]
        assert json_block(items, pad) == want
        assert json_block(iter(items), pad) == want
        assert "".join(json_chunks(items, pad)) == want
        obj = {f"k{i}": v for i, v in enumerate(values)}
        want = json.dumps(obj, indent=2).replace("\n", "\n" + pad)
        assert json_block((f"{json.dumps(k)}: {json.dumps(v)}" for k, v in obj.items()),
                          pad, "{}") == want


class TestStateWriter:
    def test_fig2_before_and_after_kill(self, fig2):
        state = establish_network_keys(fig2, master_seed=42, target_bits=16)
        assert state_to_json(state) == _ref_state_json(state)
        apply_kill_event(state, "H", note='field "alert" \\ \u00e9\u2603')
        apply_kill_event(state, "A")
        assert state_to_json(state) == _ref_state_json(state)

    def test_escaped_ids_and_notes(self):
        t = Topology(ODD_IDS, frozenset({(ODD_IDS[0], ODD_IDS[2]), (ODD_IDS[1], ODD_IDS[3])}))
        state = establish_network_keys(t, master_seed=9, target_bits=8)
        apply_kill_event(state, ODD_IDS[3], note='say "\u00e9" \\n\n\u2603')
        text = state_to_json(state)
        assert text == _ref_state_json(state)
        assert state_to_json(state_from_json(text)) == text

    def test_wireless_tokens_match_json_material(self):
        t = Topology(ODD_IDS, frozenset())
        state = establish_network_keys(t, master_seed=123, target_bits=8)
        for (a, b), record in state.records.items():
            material = json.dumps([123, a, b, CHANNEL_WIRELESS]).encode()
            assert record.key_id == hashlib.sha256(material).hexdigest()[:16]

    def test_cli_never_builds_the_records_mapping(self, capsys, tmp_path, monkeypatch):
        # establish, kill and report take the records one at a time from
        # records_sorted, never from the records snapshot
        monkeypatch.setattr(NetworkKeyState, "records",
                            property(lambda state: pytest.fail("records")))
        state = str(tmp_path / "state.json")
        assert main(["establish", "fig2", "--seed", "42", "--bits", "8", "--out", state]) == 0
        assert main(["kill", state, "H"]) == 0
        assert main(["report", state, "--csv", str(tmp_path / "m.csv")]) == 0
        assert len(json.loads(capsys.readouterr().out)["records"]) == 45

    @pytest.mark.parametrize("sensors", [("A",), ()])
    def test_empty_records(self, sensors):
        state = establish_network_keys(Topology(sensors, frozenset()), master_seed=1)
        assert state.records == {}
        assert state_to_json(state) == _ref_state_json(state)
        if sensors:
            apply_kill_event(state, "A", note="lone")
            assert state_to_json(state) == _ref_state_json(state)


def _assert_report_equals_json_dumps(state, coef=COEF):
    data = joined_chunks(report_json_chunks(state, coef, *trust_report(state, coef)))
    assert data == (json.dumps(report_doc(state, coef), indent=2) + "\n").encode()


def _explicit_sets_topology(seed, n, edge_prob=0.04):
    """A random network whose wireless sets are given explicitly and cover
    about a third of the non-wired pairs."""
    rng = np.random.default_rng(seed)
    return with_explicit_wireless_sets(random_topology(rng, n, edge_prob), rng, 0.3)


class TestReportWriter:
    @pytest.mark.parametrize(
        "sensors,edges",
        [((), ()), (("A",), ()), (("A", "B"), ()), (("A", "B\u00e9"), (("A", "B\u00e9"),))],
    )
    def test_small_topologies(self, sensors, edges):
        state = establish_network_keys(Topology(sensors, frozenset(edges)), master_seed=5,
                                       target_bits=8)
        _assert_report_equals_json_dumps(state)
        if sensors:
            apply_kill_event(state, sensors[-1], note="last")
            _assert_report_equals_json_dumps(state)

    def test_fig2_before_and_after_kill(self, fig2):
        state = establish_network_keys(fig2, master_seed=42, target_bits=16)
        _assert_report_equals_json_dumps(state)
        apply_kill_event(state, "H", note='q"uote \\ back\ttab \u00e9\u2603')
        _assert_report_equals_json_dumps(state)
        _assert_report_equals_json_dumps(state, coefficients_fixed_point(1e-6))

    def test_escaped_ids(self):
        t = Topology(ODD_IDS, frozenset({(ODD_IDS[0], ODD_IDS[2]), (ODD_IDS[1], ODD_IDS[3])}))
        state = establish_network_keys(t, master_seed=9, target_bits=8)
        apply_kill_event(state, ODD_IDS[3], note='say "\u00e9" \\n\n\u2603')
        _assert_report_equals_json_dumps(state)

    def test_generated_explicit_sets_two_kills(self):
        t = _explicit_sets_topology(60, 60)
        state = establish_network_keys(t, master_seed=61, target_bits=8)
        for sensor in (t.sensors[7], t.sensors[42]):
            apply_kill_event(state, sensor, note=f"alarm {sensor}")
            _assert_report_equals_json_dumps(state)


    def test_report_is_streamed(self, tmp_path):
        # the report of 200 sensors is 7 MB; written whole it peaked near 30 MB
        t = _explicit_sets_topology(200, 200, edge_prob=0.002)
        state = establish_network_keys(t, master_seed=201, target_bits=8)
        for sensor in (t.sensors[7], t.sensors[42]):
            apply_kill_event(state, sensor)
        write_files([(tmp_path / "state.json", (state_to_json(state),))])
        tracemalloc.start()
        try:
            assert main(["report", str(tmp_path / "state.json"),
                         "--out", str(tmp_path / "report.json")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


# --- the base-plus-exceptions trust matrix against the dense kernel


def _untidy_wireless_sets(t, rng):
    """``t`` with explicit sets that ``validate`` would flag: ids of no
    sensor (as peers and as an owner), owners listing themselves, wired
    peers listed as wireless, and sensors with no set at all."""
    sets = {"ghost": {"phantom", *t.sensors[:2]}}
    for k, s in enumerate(t.sensors):
        if k % 5 == 4:
            continue
        peers = {p for p in t.sensors if rng.random() < 0.4} | {f"phantom{k % 3}"}
        if k % 3 == 0:
            peers.add(s)
        elif k % 3 == 1:
            peers |= t.kljn_set(s)
        sets[s] = peers
    return Topology(t.sensors, t.kljn_edges, sets)


def _exception_cells(t):
    """The cells that ``trust_matrix`` keeps as exceptions, but for those
    of killed columns: each sensor's wired, two-hop and diagonal cells, and
    the members of the explicit wireless sets, as a set of i * n + j."""
    n = len(t.sensors)
    start, peers = t.index.peer_start.tolist(), t.index.peer_positions.tolist()
    cells = set()
    for i in range(n):
        near = {i, *peers[start[i]:start[i + 1]]}
        for m in peers[start[i]:start[i + 1]]:
            near.update(peers[start[m]:start[m + 1]])
        cells.update(i * n + j for j in near)
    if t.wireless_sets is not None:
        idx = t.index.positions
        cells.update(idx[p] * n + j for j, s in enumerate(t.sensors)
                     for p in t.wireless_set(s) if p in idx)
    return cells


def _assert_parts(matrix, values, t, killed):
    """The parts of ``matrix``, the trust matrix of ``t`` with the sensors
    ``killed`` and the dense ``values``: ``table`` is their sorted distinct
    values, with 0.0 and 1.0; the exceptions are exactly the cells of
    :func:`_exception_cells` outside the killed columns, each row's in
    ascending column order; a killed column has base 0; and every array is
    read-only, in the smallest unsigned dtype that holds its entries."""
    n, table = len(matrix.order), matrix.table
    assert table[0] == 0.0 and table[-1] == 1.0 and np.all(table[1:] > table[:-1])
    at = np.searchsorted(table, values.ravel())
    assert np.array_equal(table[at], values.ravel())
    assert np.all(np.bincount(at, minlength=len(table))[1:-1] > 0)
    start = matrix.row_start.astype(np.intp)
    assert len(start) == n + 1 and start[0] == 0 and start[-1] == len(matrix.cols)
    assert len(matrix.ids) == len(matrix.cols) and np.all(np.diff(start) >= 0)
    cells = np.repeat(np.arange(n) * n, np.diff(start)) + matrix.cols
    assert np.all(np.diff(cells) > 0)
    dead = [matrix.order.index(s) for s in killed if s in matrix.order]
    want = {c for c in _exception_cells(t) if c % n not in dead} if n else set()
    assert set(cells.tolist()) == want
    assert np.all(matrix.base[dead] == 0)
    for array, top in ((matrix.base, len(table) - 1), (matrix.ids, len(table) - 1),
                       (matrix.cols, n - 1), (matrix.row_start, len(matrix.cols))):
        assert array.dtype == np.min_scalar_type(max(top, 0)) and not array.flags.writeable


def _assert_matrix_equals_dense(t, coef=COEF, kills=None):
    """``values`` of ``trust_matrix``, its column bases patched with its
    exceptions, is the dense reference bit for bit, and its parts are as
    :func:`_assert_parts` says.  Returns the last matrix built."""
    if kills is None:
        kills = (frozenset(), frozenset(t.sensors[::3]), frozenset(t.sensors))
    for killed in kills:
        got = trust_matrix(t, coef, killed)
        want = trust_matrix_dense_reference(t, coef, killed)
        n = len(want.order)
        values = got.values
        assert got.order == want.order and values.shape == (n, n)
        assert np.array_equal(values.view(np.uint64), want.values.view(np.uint64)), killed
        _assert_parts(got, values, t, killed)
    return got


def _block_edges(t):
    """The sensors at positions 0, 63, 64, 127, 128 and n - 1 of ``t``: the
    first and last rows and columns of the 64-row blocks."""
    n = len(t.sensors)
    return [t.sensors[k] for k in sorted({0, 63, 64, 127, 128, n - 1}) if 0 <= k < n]


def _branch_networks():
    """Networks for the two ways of finding a block's exceptions: the
    complement rule at n = 200 and n = 1000 with 3n links, tidy and untidy
    explicit sets, and half and all pairs wired, where the candidates
    outnumber the cells."""
    rng = np.random.default_rng(70)
    sparse = sparse_topology(rng, 200, 600)
    yield "complement", sparse
    yield "complement n1000", sparse_topology(rng, 1000, 3000)
    yield "tidy", with_explicit_wireless_sets(sparse, rng, 0.3)
    yield "untidy", _untidy_wireless_sets(random_topology(rng, 130, edge_prob=0.1), rng)
    for edge_prob in (0.5, 1.0):
        dense = random_topology(rng, 130, edge_prob=edge_prob)
        yield f"dense {edge_prob}", dense
        yield f"dense {edge_prob} untidy", _untidy_wireless_sets(dense, rng)


BRANCH_NETWORKS = dict(_branch_networks())


class TestTrustMatrixKernel:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_topologies(self, seed):
        # complement rule, derived sets, tidy explicit sets and untidy ones
        rng = np.random.default_rng(seed)
        for _ in range(5):
            bare = random_topology(rng, int(rng.integers(3, 30)))
            for t in (bare, derive_wireless_sets(bare),
                      with_explicit_wireless_sets(bare, rng, float(rng.random())),
                      _untidy_wireless_sets(bare, rng)):
                _assert_matrix_equals_dense(t)

    @pytest.mark.parametrize("sensors, edges", [
        ((), ()), (("A",), ()), (("A", "B"), ()), (("A", "B"), (("A", "B"),))])
    def test_tiny_networks(self, sensors, edges):
        t = Topology(sensors, frozenset(edges))
        for u in (t, derive_wireless_sets(t), _untidy_wireless_sets(t, np.random.default_rng(3))):
            _assert_matrix_equals_dense(u)

    @pytest.mark.parametrize("complete", [False, True])
    def test_edgeless_and_complete(self, complete):
        sensors = tuple(f"s{k:02d}" for k in range(12))
        edges = frozenset((a, b) for a in sensors for b in sensors if a < b) if complete else frozenset()
        t = Topology(sensors, edges)
        for u in (t, derive_wireless_sets(t), _untidy_wireless_sets(t, np.random.default_rng(7))):
            _assert_matrix_equals_dense(u)

    @pytest.mark.parametrize("edge_prob", [0.5, 1.0])
    def test_densely_wired_networks(self, edge_prob):
        # each degree's middle sensors are paired a few at a time, or one
        # at a time when every pair is wired
        t = random_topology(np.random.default_rng(31), 80, edge_prob=edge_prob)
        _assert_matrix_equals_dense(t)
        _assert_matrix_equals_dense(_untidy_wireless_sets(t, np.random.default_rng(32)))

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 129])
    @pytest.mark.parametrize("edge_prob", [0.1, 0.5, 1.0])
    def test_row_block_boundaries(self, n, edge_prob):
        # no block, one short block, one full block, a full block and a row,
        # two full blocks and a row; under the complement rule, with tidy
        # explicit sets and with untidy ones
        rng = np.random.default_rng(n)
        t = random_topology(rng, n, edge_prob=edge_prob)
        for u in (t, with_explicit_wireless_sets(t, rng, 0.4), _untidy_wireless_sets(t, rng)):
            _assert_matrix_equals_dense(u)

    @pytest.mark.parametrize("n", [127, 128, 129, 130])
    @pytest.mark.parametrize("derived", [False, True])
    def test_largest_codes_at_the_byte_boundary(self, n, derived):
        # every pair wired but (s000, s001): the wired and diagonal cells are
        # marked 2 deg_j + 2, at most 254 at n = 127 and 256 at n = 128, and
        # the one non-wired pair's code 2(n - 2) + 1 is 255 at n = 129 and 257
        # at n = 130; the codes are counted in a dtype that holds them, and
        # the cell is the scalar trust bit for bit
        sensors = tuple(f"s{k:03d}" for k in range(n))
        edges = frozenset((a, b) for a in sensors for b in sensors if a < b) - {("s000", "s001")}
        t = Topology(sensors, edges)
        if derived:
            t = derive_wireless_sets(t)
        matrix = _assert_matrix_equals_dense(t, kills=(frozenset(),))
        cell, want = matrix.values[0, 1], np.float64(trust(t, COEF, frozenset(), "s000", "s001"))
        assert cell.view(np.uint64) == want.view(np.uint64) and 0.0 < cell < 1.0

    def test_largest_code_is_on_the_diagonal(self):
        # every pair wired and an owner in its own set: 2 deg_i + 1 = 2n - 1
        sensors = ("a", "b", "c", "d", "e")
        edges = frozenset((x, y) for x in sensors for y in sensors if x < y)
        _assert_matrix_equals_dense(Topology(sensors, edges, {"a": {"a"}}))

    @pytest.mark.parametrize("n", [129, 200])
    def test_kills_at_the_block_edges(self, n):
        # the first and last rows and columns of the blocks killed one at a
        # time and all together, under the complement rule and with explicit
        # sets, tidy and untidy (owners listing themselves among them)
        rng = np.random.default_rng(60 + n)
        t = random_topology(rng, n, edge_prob=0.05)
        edges = _block_edges(t)
        kills = [frozenset({s}) for s in edges] + [frozenset(edges)]
        for u in (t, with_explicit_wireless_sets(t, rng, 0.4), _untidy_wireless_sets(t, rng)):
            _assert_matrix_equals_dense(u, kills=kills)

    @pytest.mark.parametrize("n", [1000, 2000, 4000])
    def test_complement_networks_up_to_n_4000(self, n):
        # 3n wired links, the benchmark's density, with the block edges killed
        t = sparse_topology(np.random.default_rng(n), n, 3 * n)
        _assert_matrix_equals_dense(t, kills=(frozenset(_block_edges(t)),))

    def test_saturation_network(self):
        # (i, a) has K = W = Z = 40; under the fixed-point coefficients of
        # tol 1e-4 its sum is above 1.0, so the cap must hold, and the cell
        # takes the id and the CSV label of a wired cell
        t = _saturation_topology()
        loose = coefficients_fixed_point(1e-4)
        for coef in (COEF, loose):
            _assert_matrix_equals_dense(t, coef)
        matrix = trust_matrix(t, loose)
        i, a, m = (matrix.order.index(s) for s in ("i", "a", "m00"))
        start = matrix.row_start[i]
        row = dict(zip(matrix.cols[start:matrix.row_start[i + 1]].tolist(),
                       matrix.ids[start:matrix.row_start[i + 1]].tolist()))
        assert row[a] == row[m] == len(matrix.table) - 1 and matrix.table[-1] == 1.0
        for full_precision in (False, True):
            text = b"".join(matrix_to_csv(matrix, full_precision)).decode()
            cells = list(csv.reader(io.StringIO(text, newline="")))[1 + i][1:]
            assert cells[a] == cells[m] == ("1.0" if full_precision else "1.000")

    @pytest.mark.parametrize("name", sorted(BRANCH_NETWORKS))
    def test_candidates_and_scan_agree(self, name, monkeypatch):
        # each block's exceptions read at its candidate cells only, and by a
        # scan of all its cells, give the same arrays, bit for bit, with no
        # kill, with the block edges killed and with every sensor killed
        t = BRANCH_NETWORKS[name]
        kernel = sys.modules[trust_matrix.__module__]
        for killed in (frozenset(), frozenset(_block_edges(t)), frozenset(t.sensors)):
            built = []
            for per_cell in (math.inf, 0):  # every block by candidates, then by scan
                monkeypatch.setattr(kernel, "_CANDIDATES_PER_CELL", per_cell)
                built.append(trust_matrix(t, COEF, killed))
            candidates, scan = built
            assert candidates.order == scan.order
            assert np.array_equal(candidates.table.view(np.uint64), scan.table.view(np.uint64))
            for part in ("base", "row_start", "cols", "ids"):
                got, want = getattr(candidates, part), getattr(scan, part)
                assert got.dtype == want.dtype and np.array_equal(got, want), (part, killed)
        monkeypatch.undo()
        _assert_matrix_equals_dense(t, kills=(frozenset(), frozenset(_block_edges(t))))

    def test_benchmark_sized_networks(self):
        rng = np.random.default_rng(23)
        complement = sparse_topology(rng, 1000, 3000)
        _assert_matrix_equals_dense(complement, kills=(frozenset(), frozenset(complement.sensors[::7])))
        explicit = with_explicit_wireless_sets(sparse_topology(rng, 200, 40), rng, 0.3)
        _assert_matrix_equals_dense(explicit)


def _saturation_topology():
    """(i, a) with K = W = Z = 40: its sum under the fixed-point
    coefficients of tol 1e-4 is above 1.0, so the cap holds it at 1.0."""
    mutual = [f"m{k:02d}" for k in range(40)]
    others = [f"w{k:02d}" for k in range(40)]
    isolated = [f"z{k:02d}" for k in range(40)]
    edges = {("a", m) for m in mutual} | {("i", m) for m in mutual}
    edges |= {("a", w) for w in others}
    return Topology(("i", "a", *mutual, *others, *isolated), frozenset(edges))


def _kernel_grid():
    """The topologies of the kernel grid: n in {0, 1, 63, 64, 65, 129} under
    the complement rule and with tidy and untidy explicit sets, and the
    saturation network."""
    for n in (0, 1, 63, 64, 65, 129):
        rng = np.random.default_rng(100 + n)
        t = random_topology(rng, n, edge_prob=0.1)
        yield f"n{n} complement", t
        yield f"n{n} tidy", with_explicit_wireless_sets(t, rng, 0.4)
        yield f"n{n} untidy", _untidy_wireless_sets(t, rng)
    yield "saturation", _saturation_topology()


KERNEL_GRID = dict(_kernel_grid())


class TestValueTable:
    @pytest.mark.parametrize("name", list(KERNEL_GRID))
    @pytest.mark.parametrize("coef", [COEF, coefficients_fixed_point(1e-4)],
                             ids=["closed_form", "fixed_point"])
    @pytest.mark.parametrize("kill_every", [0, 3, 1], ids=["no_kills", "every_third", "all"])
    def test_table_holds_every_value_once(self, name, coef, kill_every):
        t = KERNEL_GRID[name]
        kill = KillSwitchState()
        for sensor in t.sensors[::kill_every] if kill_every else ():
            kill.kill(sensor)
        keys = ["k"] * len(t.index.links)  # one key id per wired link, as a state file holds
        matrix, rankings = trust_report(NetworkKeyState(t, keys, kill, 0), coef)
        table = matrix.table
        assert table.dtype == np.float64
        assert np.all(table[1:] > table[:-1])  # sorted and distinct
        assert np.all(np.isfinite(table)) and np.all((table >= 0.0) & (table <= 1.0))
        assert not np.any(np.signbit(table))  # no -0.0
        assert table[0] == 0.0 and table[-1] == 1.0
        # the report labels its rankings through the table
        assert {v for ranking in rankings.values() for _, v in ranking} <= set(table.tolist())

    def test_table_holds_only_the_values_that_occur(self):
        # n = 300 with half the pairs wired and one kill: every non-wired
        # cell saturates, so the matrix holds only 0.0 and 1.0, and so does
        # the table, though its column groups could hold 60 values; the
        # --full-precision CSV is the csv.writer text of the values
        t = random_topology(np.random.default_rng(46), 300, edge_prob=0.5)
        matrix = trust_matrix(t, COEF, frozenset({t.sensors[100]}))
        values = matrix.values
        assert matrix.table.tolist() == sorted({0.0, 1.0, *values.ravel().tolist()}) == [0.0, 1.0]
        assert b"".join(matrix_to_csv(matrix, True)) == matrix_to_csv_reference(
            matrix.order, values, True).encode()

    def test_bit_order_is_value_order(self):
        # every value is >= 0 and never -0.0, so sorting the table by bit
        # pattern keeps its order
        t = sparse_topology(np.random.default_rng(23), 1000, 3000)
        table = trust_matrix(t, COEF, frozenset(t.sensors[::7])).table
        assert np.array_equal(np.sort(table.view(np.uint64)), table.view(np.uint64))


# --- table-driven matrix writers against csv.writer and json.dumps

# ids csv must quote (comma, quote, newline, carriage return), a plain one
# and a non-ASCII one
CSV_IDS = ("a,b", 'q"t', "new\nline", "cr\rid", "plain", "\u00e9")
# and one holding NUL, which the writers' padding must not be taken for
NUL_IDS = ("nul\x00id", *CSV_IDS)


def _writer_topology(n, seed, explicit=False):
    """A network of ``n`` sensors, the ``CSV_IDS`` first, with about a tenth
    of the pairs wired, under the complement rule or with explicit sets."""
    rng = np.random.default_rng(seed)
    ids = (*CSV_IDS, *(f"s{k:03d}" for k in range(n)))[:n]
    edges = frozenset((ids[a], ids[b]) for a in range(n) for b in range(a + 1, n)
                      if rng.random() < 0.1)
    t = Topology(ids, edges)
    return with_explicit_wireless_sets(t, rng, 0.4) if explicit else t


def _lines(text):
    return text.splitlines(keepends=True)


def _assert_writers_equal_oracles(matrix):
    """Both CSV formats against csv.writer, and the JSON against json.dumps,
    of the dense ``values`` of the trust matrix ``matrix``; compared as lists
    of lines: a failing diff of the whole texts is slow.  Every chunk is
    taken before any is joined, so no chunk may share memory that a later
    one reuses."""
    order, values = matrix.order, matrix.values
    # csv.writer before Python 3.11 cannot write a NUL, which needs no
    # quoting: the oracle is given \x01 in its place
    safe = [s.replace("\0", "\1") for s in order]
    for full_precision in (False, True):
        text = b"".join(list(matrix_to_csv(matrix, full_precision)))
        want = matrix_to_csv_reference(safe, values, full_precision).replace("\1", "\0")
        assert _lines(text) == _lines(want.encode())
    doc = {"order": order, "values": values.tolist()}
    assert _lines(b"".join(list(matrix_to_json(matrix)))) == _lines(
        (json.dumps(doc, indent=2) + "\n").encode())


@pytest.fixture(scope="module")
def complement_1000():
    """The trust matrix of an n = 1000 complement-rule network, every
    seventh sensor killed."""
    t = sparse_topology(np.random.default_rng(23), 1000, 3000)
    return trust_matrix(t, COEF, frozenset(t.sensors[::7]))


class TestMatrixWriters:
    @pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 129])
    @pytest.mark.parametrize("explicit", [False, True])
    def test_equal_csv_writer_and_json_dumps(self, n, explicit):
        t = _writer_topology(n, seed=n, explicit=explicit)
        for killed in (frozenset(), frozenset(t.sensors[::5]), frozenset(t.sensors)):
            _assert_writers_equal_oracles(trust_matrix(t, COEF, killed))

    def test_saturated_cells(self):
        # non-wired cells of exactly 1.0 share the wired cells' label
        matrix = trust_matrix(_saturation_topology(), coefficients_fixed_point(1e-4))
        _assert_writers_equal_oracles(matrix)

    def test_complement_matrix_at_n_1000(self, complement_1000):
        _assert_writers_equal_oracles(complement_1000)
        # the oracles' input, the dense reference matrix, is the written one
        t = sparse_topology(np.random.default_rng(23), 1000, 3000)
        dense = trust_matrix_dense_reference(t, COEF, frozenset(t.sensors[::7]))
        assert dense.order == complement_1000.order
        assert np.array_equal(dense.values.view(np.uint64), complement_1000.values.view(np.uint64))

    @pytest.mark.parametrize("full_precision", [False, True])
    def test_csv_temporaries_stay_per_block(self, complement_1000, full_precision):
        # the chunks are drained and each dropped as a file would take them:
        # the text (6 MB, 17 MB with repr labels) is never held whole.  A
        # block of 64 rows needs its framed buffer (0.4 MB, ~1.3 MB with repr
        # labels), the places and entries of its exceptions and, with repr
        # labels, its stripped copy (~1.1 MB)
        tracemalloc.start()
        try:
            written = 0
            for chunk in matrix_to_csv(complement_1000, full_precision):
                written += len(chunk)
                del chunk
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert written > (15e6 if full_precision else 6e6)
        assert peak < (4e6 if full_precision else 1e6), f"{peak / 1e6:.2f} MB"

    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    @pytest.mark.parametrize("odd", [False, True], ids=["plain", "odd"])
    def test_blocks_stay_whole_at_the_block_edges(self, n, odd):
        # plain ids of one width leave the 3-decimal CSV blocks unpadded; ids
        # holding NUL, quotes and non-ASCII characters differ in width, so
        # every block is stripped of its padding, and the strip must keep
        # every byte of the ids
        rng = np.random.default_rng(n)
        ids = (*(NUL_IDS if odd else ()), *(f"s{k:03d}" for k in range(n)))[:n]
        t = Topology(ids, frozenset((ids[a], ids[b]) for a in range(n) for b in range(a + 1, n)
                                    if rng.random() < 0.1))
        for killed in (frozenset(), frozenset(ids[::5])):
            _assert_writers_equal_oracles(trust_matrix(t, COEF, killed))

    def test_quoted_ids_round_trip(self):
        matrix = trust_matrix(_writer_topology(len(CSV_IDS), seed=3, explicit=True), COEF)
        text = b"".join(matrix_to_csv(matrix, True)).decode()
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert rows[0] == ["sensor", *matrix.order]
        assert [row[0] for row in rows[1:]] == matrix.order
        assert [[float(cell) for cell in row[1:]] for row in rows[1:]] == matrix.values.tolist()

    def test_writers_leave_numpy_ma_unimported(self, tmp_path):
        # np.unique imports numpy.ma (about 1 MB) when it is asked for
        # neither indices nor counts; the value table asks for the inverse,
        # so every command that writes a matrix leaves numpy.ma unimported
        topology = tmp_path / "t.json"
        topology.write_text(json.dumps(topology_to_doc(_writer_topology(70, seed=4))),
                            encoding="utf-8")
        assert main(["establish", str(topology), "--bits", "8", "--out",
                     str(tmp_path / "state.json")]) == 0
        script = (
            "import sys\n"
            "from kextrust.cli import main\n"
            f"d = {str(tmp_path)!r}\n"
            "for argv in ([d + '/t.json', '--out', d + '/m.csv'],\n"
            "             [d + '/t.json', '--format', 'json', '--out', d + '/m.json']):\n"
            "    assert main(['trust-matrix', *argv]) == 0\n"
            "assert main(['report', d + '/state.json', '--csv', d + '/r.csv',\n"
            "             '--out', d + '/r.json']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(kextrust.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
        assert (tmp_path / "m.json").stat().st_size and (tmp_path / "r.csv").stat().st_size

    def test_rank_quotes_ids(self, capsys, tmp_path):
        # every id around a hub wired to all
        peers = list(CSV_IDS)
        doc = {"sensors": ["hub", *peers], "kljn_edges": [["hub", p] for p in peers]}
        topology = tmp_path / "t.json"
        topology.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["rank", str(topology), "hub"]) == 0
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert rows == [[peer, "1.000"] for peer in sorted(peers)]


# --- CLI output pinned to digests recorded with the plain waveform path
# (numpy's PCG64 normal stream is stable across releases)

PINNED_SESSIONS = {
    ("3", "none"): "07f74806e451b46cdb57cee9700a9944c5435b33f46e9e6cb2c8344934c6d9a7",
    ("3", "wire-substitution"): "55fc0a75922c543373848f68a3f00cf92010f10c6977eb3237ebcec61e745229",
    ("3", "current-injection"): "5dc1ace96d83064ab852fbb63e294ec7ba49e921d29017751c27a48174318356",
    ("77", "none"): "6c4d586b3deb66dd366bbf3916f28f4428e0d7193d282a56c1646eedb42ec104",
    ("77", "wire-substitution"): "9d619f990abe8c25fd1e3ac65bcd56957995ddb79bb58761897a2f22d57b38b9",
    ("77", "current-injection"): "655bdfd3576a19d0d24fff3c8b06cc0156df67172e1182ff3b6c4ad23e939151",
    ("2024", "none"): "f23bf5df00fe4f9a6fbfd6c5749893d7304ff7e19e3d9297384d4c64f22088fc",
    ("2024", "wire-substitution"): "74e6a5566c7188e9f90e56eff268c929e124b92409b8037b538b396d512ecfba",
    ("2024", "current-injection"): "2161158521b8bb9d9d68cf0279e5bde162e7d0ae64d9833d91ac22bbf7a4906e",
}
PINNED_ESTABLISH_FIG2_SEED_42 = "43eab534eb15b1ac461f0036dc81438e5dbe514822cf11c88e8a8a3256236453"
# report --out/--csv after establish fig2 --seed 42 and kill H, recorded
# with the json.dumps report writer
PINNED_REPORT_FIG2_KILL_H = {
    "report.json": "6d50938d1aaa94c33f6a22e5b86a849b2a927ffa0f2493563610f850fc4d5279",
    "report.csv": "1763ee60018fde7e97a6ce7ed3535b0b60f48d80865f52eab6ffcaf4582d1466",
    "full.csv": "ba4fa585dc36d90adee3717e8e9bd09222e52f2c270a55791e4fa9a3b30c6386",
}
# report --out/--csv after establish fig2 --seed 42, kill H and kill A --note
# "second alarm", recorded from a version 3 state file, whose clock and
# timestamps were stored
PINNED_REPORT_FIG2_TWO_KILLS = {
    "report.json": "e2b5a05c5da5884be915bbc7f88a43306d96bb5c2ced5817f95c65cfbc89f610",
    "report.csv": "3680d874a65aede0d29106479fe8f1b21b5f784d57dc2370ae7e3c583ce90b49",
}


def _cli_digest(capsys, *argv):
    code = main(list(argv))
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


class TestPinnedOutput:
    @pytest.mark.parametrize("seed,attacker", sorted(PINNED_SESSIONS))
    def test_simulate_kljn_emit_key(self, capsys, seed, attacker):
        code, digest = _cli_digest(capsys, "simulate-kljn", "--seed", seed, "--emit-key",
                                   "--attacker", attacker, "--attack-start", "30")
        assert code == (0 if attacker == "none" else 1)
        assert digest == PINNED_SESSIONS[(seed, attacker)]

    def test_establish_fig2(self, capsys):
        assert _cli_digest(capsys, "establish", "fig2", "--seed", "42") == (
            0, PINNED_ESTABLISH_FIG2_SEED_42)

    def test_report_fig2_after_kill(self, capsys, tmp_path):
        state = str(tmp_path / "state.json")
        assert main(["establish", "fig2", "--seed", "42", "--out", state]) == 0
        assert main(["kill", state, "H"]) == 0
        doc = json.loads(Path(state).read_text(encoding="utf-8"))
        assert (doc["version"], doc["master_seed"], len(doc["kljn_keys"])) == (4, 42, 6)
        assert main(["report", state, "--out", str(tmp_path / "report.json"),
                     "--csv", str(tmp_path / "report.csv")]) == 0
        assert main(["report", state, "--full-precision",
                     "--csv", str(tmp_path / "full.csv")]) == 0
        assert capsys.readouterr().out == (tmp_path / "report.json").read_text(encoding="utf-8")
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in PINNED_REPORT_FIG2_KILL_H}
        assert digests == PINNED_REPORT_FIG2_KILL_H

    def test_report_fig2_after_two_kills(self, tmp_path):
        # the derived stamps 46 and 47 are those the version 3 file stored
        state = str(tmp_path / "state.json")
        assert main(["establish", "fig2", "--seed", "42", "--out", state]) == 0
        assert main(["kill", state, "H"]) == 0
        assert main(["kill", state, "A", "--note", "second alarm"]) == 0
        assert main(["report", state, "--out", str(tmp_path / "report.json"),
                     "--csv", str(tmp_path / "report.csv")]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in PINNED_REPORT_FIG2_TWO_KILLS}
        assert digests == PINNED_REPORT_FIG2_TWO_KILLS


# --- matrix, rank and report files pinned to digests recorded with the
# str writers (one str per row, files written in text mode)

# the first ids need quoting in CSV or are not ASCII
DIGEST_IDS = ("a,b", 'q"t', "été")


def _digest_doc(n, links, seed, reach=None):
    """A topology document of ``n`` sensors and ``links`` drawn wired links
    (self-loops dropped, repeats kept), with explicit wireless sets covering
    about ``reach`` of the other pairs if ``reach`` is given.  Only
    ``random.Random.random`` draws, whose stream Python keeps across versions."""
    r = random.Random(seed)
    ids = [*DIGEST_IDS, *(f"s{k:04d}" for k in range(n - len(DIGEST_IDS)))]
    picks = ((int(r.random() * n), int(r.random() * n)) for _ in range(links))
    edges = [[ids[a], ids[b]] for a, b in picks if a != b]
    doc = {"sensors": ids, "kljn_edges": edges}
    if reach is not None:
        wired = {frozenset(e) for e in edges}
        sets = {s: [] for s in ids}
        for x, a in enumerate(ids):
            for b in ids[x + 1:]:
                if frozenset((a, b)) not in wired and r.random() < reach:
                    sets[a].append(b)
                    sets[b].append(a)
        doc["wireless_sets"] = sets
    return doc


DIGEST_KILL = ",".join(['"a,b"', *(f"s{k:04d}" for k in range(0, 997, 7))])
# output file -> the command writing it; "{c1000}", "{fig2}" and "{s300}"
# name the n = 1000 complement topology, the fig2 state and the n = 300 state
DIGEST_COMMANDS = {
    "m.csv": ("trust-matrix", "{c1000}"),
    "m_kill.csv": ("trust-matrix", "{c1000}", "--kill", DIGEST_KILL),
    "m_full.csv": ("trust-matrix", "{c1000}", "--full-precision"),
    "m_full_kill.csv": ("trust-matrix", "{c1000}", "--full-precision", "--kill", DIGEST_KILL),
    "m.json": ("trust-matrix", "{c1000}", "--format", "json"),
    "m_kill.json": ("trust-matrix", "{c1000}", "--format", "json", "--kill", DIGEST_KILL),
    "rank.csv": ("rank", "{c1000}", "s0000"),
    "rank_kill.csv": ("rank", "{c1000}", "s0000", "--kill", DIGEST_KILL),
    "fig2.json": ("report", "{fig2}", "--csv", "{dir}/fig2.csv"),
    "s300.json": ("report", "{s300}", "--csv", "{dir}/s300.csv"),
    "s300_full.json": ("report", "{s300}", "--full-precision", "--csv", "{dir}/s300_full.csv"),
}
PINNED_DIGESTS = {
    "fig2.csv": "6c11010e854b8e38aa778eabab1770e80070bc7d97dc3652025dc57a08c40cd2",
    "fig2.json": "5a5f78c881170c30e18163593f0c7ce0cab82888d75a31394b2911acefa8eb29",
    "m.csv": "71123462b7557a04932bdb01e6dd296da28fbb90f13168cc0f76907f6670491a",
    "m.json": "c663a99cf6a66291d6aa002e2b45229527db0d7c22995335b3e4cfc8c35c5d6a",
    "m_full.csv": "dce5f5f45e362eae014f8f7bfeb9e3f468e6b9965a5137417cbf6301409b1599",
    "m_full_kill.csv": "cf1391a50911fc0487d1ad6b44bc57f38c004d9e454a0c6065a293566d2bbfed",
    "m_kill.csv": "8d32aa1e154a2e9f6f5185215ab4e187784b2c97646cc8ab69fabb5e4182d2a6",
    "m_kill.json": "9c30efc2e5783945f998f023e1644835332f104eaf7656ce914a402af6e56794",
    "rank.csv": "1f74764b2a7faa55bfe6a693175fbf3744bf652af42a3dc5b45abcaa51a23f84",
    "rank_kill.csv": "fd8cce810d0a938db5d62af8f579453de21b5b49aaebd6fad3e3b49f99e6ad63",
    "s300.csv": "ebd242af22f2f6bc2e33d79ab8320270e776f1a8401e08ada5ed9fe87b3a6ac1",
    "s300.json": "dc43cc43af70a4d223334db19a96f4209439744d73ea2a8612d1b0bfc192d4bf",
    "s300_full.csv": "125ac46dbe1ffd50bf40c6256dc32b4348d956de0b90b6f16f3355f97d94093d",
    "s300_full.json": "dc43cc43af70a4d223334db19a96f4209439744d73ea2a8612d1b0bfc192d4bf",
}


# The c1000 trust-matrix digests from when the rows kept the document's
# listing order, which puts "été" third; the rows are now in sorted order,
# "été" last.  Re-ordered into the listing order, today's files hash to these.
LISTING_ORDER_DIGESTS = {
    "m.csv": "82480876439a642b42c556b7936bdd2decbf9a4e030d5b48c8d494ca310c92fb",
    "m.json": "a323778b0f79006d8d959618ae480b3ea647056b5401fcd1c6578c5c102ef256",
    "m_full.csv": "202131c670b7dd8bc2d61725e70de089af27214a444ce8f17c18211df047769e",
    "m_full_kill.csv": "fa6b08c2b6c7e16c84e8e597a91b1537808fbacff38c2cd1b247e2f1181b77b8",
    "m_kill.csv": "dc2652132ffa5181537118a6c911210e576b6ea74b2e13e89fe36193704ba62b",
    "m_kill.json": "be0460568297588141abf749a988ff9b6d8101df5a14b273188e2fcaeb88ddba",
}


def write_digest_inputs(base: Path) -> dict:
    """The inputs of ``DIGEST_COMMANDS``, written into ``base``: an n = 1000
    complement-rule topology with 3000 drawn links; fig2 established with
    seed 42; an n = 300 topology with 60 drawn links and explicit wireless
    sets covering 30% of the other pairs, established with 16-bit keys and
    one sensor killed."""
    (base / "c1000.json").write_text(json.dumps(_digest_doc(1000, 3000, seed=41)),
                                     encoding="utf-8")
    (base / "t300.json").write_text(json.dumps(_digest_doc(300, 60, seed=43, reach=0.3)),
                                    encoding="utf-8")
    steps = (("establish", "fig2", "--seed", "42", "--out", f"{base}/fig2_state.json"),
             ("establish", f"{base}/t300.json", "--seed", "5", "--bits", "16",
              "--out", f"{base}/s300_state.json"),
             ("kill", f"{base}/s300_state.json", "s0100"))
    for argv in steps:
        assert main(list(argv)) == 0
    return {"c1000": base / "c1000.json", "fig2": base / "fig2_state.json",
            "s300": base / "s300_state.json"}


@pytest.fixture(scope="module")
def digest_inputs(tmp_path_factory):
    return write_digest_inputs(tmp_path_factory.mktemp("digests"))


class TestPinnedMatrixOutput:
    @pytest.mark.parametrize("name", sorted(DIGEST_COMMANDS))
    def test_out_file_bytes(self, capsys, tmp_path, digest_inputs, name, monkeypatch):
        # the commands write the matrix from its row blocks, never from the
        # dense values
        monkeypatch.setattr(TrustMatrix, "values", property(lambda matrix: pytest.fail("values")))
        argv = [a.format(dir=tmp_path, **digest_inputs) for a in DIGEST_COMMANDS[name]]
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
        written = sorted(p.name for p in tmp_path.iterdir())
        digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in written}
        assert digests == {f: PINNED_DIGESTS[f] for f in written}
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("name", sorted(LISTING_ORDER_DIGESTS))
    def test_listing_order_gives_the_old_bytes(self, tmp_path, digest_inputs, name):
        # the sorted rows and columns, put back in the order the document
        # lists its sensors, are the file pinned before the sort, byte for byte
        argv = [a.format(dir=tmp_path, **digest_inputs) for a in DIGEST_COMMANDS[name]]
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        listed = json.loads(digest_inputs["c1000"].read_text(encoding="utf-8"))["sensors"]
        assert listed != sorted(listed)
        position = {s: k for k, s in enumerate(sorted(listed))}
        at = [position[s] for s in listed]
        if name.endswith(".json"):
            doc = json.loads(out.read_text(encoding="utf-8"))
            assert doc["order"] == sorted(listed)
            values = [[doc["values"][p][q] for q in at] for p in at]
            text = json.dumps({"order": listed, "values": values}, indent=2) + "\n"
        else:
            with open(out, newline="", encoding="utf-8") as f:
                (corner, *order), *rows = csv.reader(f)
            assert order == sorted(listed) and [r[0] for r in rows] == order
            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow([corner, *listed])
            writer.writerows([listed[x], *(rows[p][1 + q] for q in at)] for x, p in enumerate(at))
            text = buffer.getvalue()
        assert hashlib.sha256(text.encode()).hexdigest() == LISTING_ORDER_DIGESTS[name]


    def test_trust_matrix_never_holds_the_text_whole(self, tmp_path, digest_inputs):
        # n = 1000: the column bases and exceptions and one block's codes,
        # cells and text, where a dense float matrix would take 8 MB more and
        # the CSV text whole 6 MB more
        out = tmp_path / "m.csv"
        assert main(["trust-matrix", str(digest_inputs["c1000"]), "--out", str(out)]) == 0
        tracemalloc.start()
        try:
            assert main(["trust-matrix", str(digest_inputs["c1000"]), "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.stat().st_size > 6e6
        assert peak < 1000 * 1000 * 2 + 3e6, f"{peak / 2**20:.1f} MB"
