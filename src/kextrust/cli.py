"""Operator command line: validation, trust reports, and exchange simulation.

Batch-only; all randomized subcommands take --seed and produce
byte-identical output for identical inputs.  Exit codes: 0 success,
1 domain error (invalid topology, unknown sensor, failed session),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

import numpy as np

from .kljn import (
    BudgetExhaustedError,
    CurrentInjectionAttacker,
    KljnSessionConfig,
    WireSubstitutionAttacker,
    auth_bit_cost,
    run_key_exchange,
)
from .orchestrator import (
    NetworkKeyState,
    STATUS_FAILED,
    apply_kill_event,
    establish_network_keys,
    json_block,
    load_state,
    records_to_json,
    state_to_json,
    trust_report,
    write_files,
)
from .topology import (
    SensorId,
    Topology,
    bundled_topology_path,
    parse_topology,
    validate,
)
from .trust import (
    coefficients_closed_form,
    coefficients_fixed_point,
    rank_peers,
    trust,
    trust_matrix,
)


class DomainError(ValueError):
    """User-facing failure that should exit 1 with a diagnostic."""


def _read_topology_text(arg: str) -> str:
    path = Path(arg)
    if path.exists():
        return path.read_text(encoding="utf-8")
    if arg in ("fig2", "fig2.json"):
        return bundled_topology_path("fig2").read_text(encoding="utf-8")
    raise DomainError(f"topology file not found: {arg}")


def _check_topology(t: Topology) -> Topology:
    report = validate(t)
    if report.errors:
        details = "; ".join(issue.message for issue in report.errors)
        raise DomainError(f"invalid topology: {details}")
    return t


def _load_checked_topology(arg: str) -> Topology:
    return _check_topology(parse_topology(_read_topology_text(arg)))


def _load_checked_state(path: str) -> NetworkKeyState:
    state = load_state(path)
    _check_topology(state.topology)
    return state


def _killed(kill_list: str | None, t: Topology) -> frozenset[SensorId]:
    """The sensors named by ``--kill``, comma-separated with blanks skipped;
    the first name, in the order given, that is not a sensor is an error."""
    names = [s for s in map(str.strip, (kill_list or "").split(",")) if s]
    unknown = next((s for s in names if not t.has_sensor(s)), None)
    if unknown is not None:
        raise DomainError(f"--kill names unknown sensor {unknown!r}")
    return frozenset(names)


def _emit(text: str, out: str | None, *files: tuple[str, str]) -> None:
    """Write ``text`` to the file ``out``, or to stdout if ``out`` is not
    given, and each further ``(path, text)`` to its file.

    Every file goes through :func:`~kextrust.orchestrator.write_files` before
    stdout sees anything, so a failed write leaves no output behind.
    """
    write_files([(out, text), *files] if out else files)
    if not out:
        sys.stdout.write(text)


_BLOCK_ROWS = 64  # rows labelled per pass; bounds the temporaries to ~64 * n cells


class _CellLabeller:
    """Cell text of float matrices, from a table of the distinct values.

    A trust matrix holds few distinct values.  Cells are looked up by their
    ``uint64`` bit pattern (so ``-0.0`` keeps its own label) with
    ``np.searchsorted`` in a sorted table of the patterns seen so far; a
    pattern is formatted by ``fmt`` once, when it is first seen.  The
    default ``fmt`` is the JSON text of a float: ``repr`` when finite.
    (``np.unique`` would import ``numpy.ma``, about 1 MB, on first use.)
    """

    def __init__(self, fmt=json.dumps):
        self._fmt = fmt
        self._keys = np.empty(0, dtype=np.uint64)  # sorted, distinct
        self._table = np.empty(0, dtype=object)  # label of each key

    def rows(self, values):
        """Each row of the matrix ``values`` (a 2-D array or a list of float
        lists) as a list of cell labels."""
        for start in range(0, len(values), _BLOCK_ROWS):
            yield from self.labels(values[start:start + _BLOCK_ROWS])

    def labels(self, values) -> list:
        """The labels of the floats ``values`` (an array or nested lists),
        as nested lists of the same shape."""
        bits = np.asarray(values, dtype=np.float64).view(np.uint64)
        pos = np.searchsorted(self._keys, bits)
        if bits.size and (pos.max() == len(self._keys) or (self._keys[pos] != bits).any()):
            self._learn(bits)
            pos = np.searchsorted(self._keys, bits)
        return self._table[pos].tolist()

    def _learn(self, bits: np.ndarray) -> None:
        """Add the patterns of the non-empty ``bits`` to the table."""
        keys = np.sort(np.concatenate((self._keys, bits.ravel())))
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        known = dict(zip(self._keys.tolist(), self._table.tolist()))
        self._table = np.array(
            [known[k] if k in known else self._fmt(v)
             for k, v in zip(keys.tolist(), keys.view(np.float64).tolist())],
            dtype=object,
        )
        self._keys = keys


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: in double quotes, with each ``"`` doubled,
    if it holds a ``,``, ``"``, ``\\r`` or ``\\n``, so that ``csv.reader``
    reads it back whole; as it is otherwise."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def matrix_to_csv(order, values, full_precision: bool = False) -> str:
    """Trust matrix as CSV, rows = evaluator, columns = evaluated peer.

    Sensor ids are written with :func:`_csv_field`, and every cell as
    ``repr(value)`` (``full_precision``) or ``f"{value:.3f}"``; lines end
    in ``"\\n"``.
    """
    labeller = _CellLabeller(repr if full_precision else "{:.3f}".format)
    lines = [",".join(["sensor", *map(_csv_field, order)]) + "\n"]
    lines.extend(f"{_csv_field(row_id)},{','.join(cells)}\n"
                 for row_id, cells in zip(order, labeller.rows(values)))
    return "".join(lines)


def _float_rows_json(values, pad: str, labeller: _CellLabeller) -> str:
    """The trust matrix ``values`` as a JSON list of float lists at indent ``pad``."""
    inner = pad + "  "
    return json_block((json_block(row, inner) for row in labeller.rows(values)), pad)


def matrix_to_json(order, values) -> str:
    """``json.dumps({"order": order, "values": values}, indent=2) + "\n"``
    for a float matrix ``values``."""
    order_json = json_block(map(_json_str, order), "  ")
    values_json = _float_rows_json(values, "  ", _CellLabeller())
    return f'{{\n  "order": {order_json},\n  "values": {values_json}\n}}\n'


def report_to_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2) + "\n"``, byte for byte, for a
    :func:`~kextrust.orchestrator.trust_report` document.

    The head (``sensors``, ``coefficients``, ``killed``) and the
    ``kill_log`` go through ``json.dumps``.  The matrix, the rankings and
    the records are written from templates: the floats of the matrix and of
    the rankings share one :class:`_CellLabeller`, records use the state
    file's record template, and strings go through
    ``encode_basestring_ascii``, the escaping ``json.dumps`` applies.
    """
    labeller = _CellLabeller()
    head = json.dumps({key: doc[key] for key in ("sensors", "coefficients", "killed")}, indent=2)
    tail = json.dumps({"kill_log": doc["kill_log"]}, indent=2)
    order_json = json_block(map(_json_str, doc["matrix"]["order"]), "    ")
    values_json = _float_rows_json(doc["matrix"]["values"], "    ", labeller)
    rankings = ",\n".join(
        f"    {_json_str(sensor)}: "
        + json_block(
            (f"[\n        {_json_str(peer)},\n        {label}\n      ]"
             for (peer, _), label in zip(ranking, labeller.labels([v for _, v in ranking]))),
            "    ",
        )
        for sensor, ranking in doc["rankings"].items()
    )
    rankings = f"{{\n{rankings}\n  }}" if rankings else "{}"
    records = records_to_json(map(dict.values, doc["records"]))
    # head without its closing "\n}", tail without its opening "{\n"
    return (
        f'{head[:-2]},\n  "matrix": {{\n    "order": {order_json},\n'
        f'    "values": {values_json}\n  }},\n  "rankings": {rankings},\n'
        f'  "records": {records},\n{tail[2:]}\n'
    )


def _cmd_validate(args) -> int:
    t = parse_topology(_read_topology_text(args.topology))
    report = validate(t)
    for issue in report.errors:
        print(f"error [{issue.code}]: {issue.message}")
    for issue in report.warnings:
        print(f"warning [{issue.code}]: {issue.message}")
    if report.ok:
        print(f"ok: {len(t.sensors)} sensors, {len(t.kljn_edges)} KLJN edges")
        return 0
    return 1


def _cmd_trust(args) -> int:
    t = _load_checked_topology(args.topology)
    value = trust(t, coefficients_closed_form(), _killed(args.kill, t), args.evaluator, args.peer)
    print(repr(value) if args.full_precision else f"{value:.3f}")
    return 0


def _cmd_trust_matrix(args) -> int:
    t = _load_checked_topology(args.topology)
    matrix = trust_matrix(t, coefficients_closed_form(), _killed(args.kill, t))
    if args.format == "json":
        _emit(matrix_to_json(matrix.order, matrix.values), args.out)
    else:
        _emit(matrix_to_csv(matrix.order, matrix.values, args.full_precision), args.out)
    return 0


def _cmd_rank(args) -> int:
    t = _load_checked_topology(args.topology)
    ranking = rank_peers(t, coefficients_closed_form(), _killed(args.kill, t), args.evaluator)
    lines = [f"{_csv_field(sensor)},{value:.3f}" for sensor, value in ranking]
    _emit("\n".join(lines) + ("\n" if lines else ""), args.out)
    return 0


def _cmd_coefficients(args) -> int:
    closed = coefficients_closed_form()
    doc = {
        "a": closed.a,
        "b": closed.b,
        "c": closed.c,
        "residuals": dict(zip(("a", "b", "c"), closed.residuals())),
    }
    if args.check is not None:
        numeric = coefficients_fixed_point(args.check)
        deviations = {
            "a": abs(closed.a - numeric.a),
            "b": abs(closed.b - numeric.b),
            "c": abs(closed.c - numeric.c),
        }
        doc["fixed_point"] = {"a": numeric.a, "b": numeric.b, "c": numeric.c}
        doc["deviations"] = deviations
        if max(deviations.values()) >= args.check:
            print(json.dumps(doc, indent=2))
            print(f"error: fixed-point solution deviates beyond {args.check}", file=sys.stderr)
            return 1
    if args.format == "json":
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = [f"a = {closed.a!r}", f"b = {closed.b!r}", f"c = {closed.c!r}"]
        for name, residual in doc["residuals"].items():
            lines.append(f"residual_{name} = {residual:.3e}")
        if args.check is not None:
            for name, dev in doc["deviations"].items():
                lines.append(f"fixed_point_deviation_{name} = {dev:.3e}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _build_attacker(name: str, start: int, seed: int):
    if name == "none":
        return None
    if name == "wire-substitution":
        return WireSubstitutionAttacker(start_period=start, seed=seed)
    if name == "current-injection":
        return CurrentInjectionAttacker(start_period=start, seed=seed)
    raise DomainError(f"unknown attacker model {name!r}")


def _cmd_simulate_kljn(args) -> int:
    cfg = KljnSessionConfig(seed=args.seed)
    if args.tol is not None:
        cfg = replace(cfg, level_tolerance=args.tol)
    attacker = _build_attacker(args.attacker, args.attack_start, args.seed)

    exhausted = False
    try:
        result = run_key_exchange(cfg, args.bits, attacker=attacker)
    except BudgetExhaustedError as exc:
        result = exc.partial
        exhausted = True

    doc = {
        "config": {
            "r_low": cfg.r_low,
            "r_high": cfg.r_high,
            "t_eff": cfg.t_eff,
            "bandwidth": cfg.bandwidth,
            "samples_per_period": cfg.samples_per_period,
            "level_tolerance": cfg.level_tolerance,
            "data_word_bits": cfg.data_word_bits,
            "seed": cfg.seed,
        },
        "target_bits": args.bits,
        "attacker": args.attacker,
        "key_length": len(result.key_bits),
        "periods_used": result.periods_used,
        "discard_count": result.discard_count,
        "undecided_count": result.undecided_count,
        "attack_detected": result.attack_detected,
        "budget_exhausted": exhausted,
        "level_statistics": result.level_statistics,
        "auth_bits_per_word": auth_bit_cost(cfg.data_word_bits),
    }
    if args.emit_key:
        doc["key_hex"] = result.key_hex
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 1 if (exhausted or result.attack_detected) else 0


def _cmd_establish(args) -> int:
    t = _load_checked_topology(args.topology)
    cfg = KljnSessionConfig(seed=args.seed)
    state = establish_network_keys(t, cfg, master_seed=args.seed, target_bits=args.bits)
    _emit(state_to_json(state), args.out)
    failed = sum(1 for r in state.stored.values() if r.status == STATUS_FAILED)
    if failed:
        print(f"warning: {failed} record(s) failed", file=sys.stderr)
    return 0


def _cmd_kill(args) -> int:
    state = _load_checked_state(args.state)
    apply_kill_event(state, args.sensor, note=args.note)
    _emit(state_to_json(state), args.out or args.state)
    return 0


def _cmd_report(args) -> int:
    state = _load_checked_state(args.state)
    doc = trust_report(state, coefficients_closed_form())
    files = []
    if args.csv:
        matrix = doc["matrix"]
        files.append((args.csv, matrix_to_csv(matrix["order"], matrix["values"],
                                              args.full_precision)))
    _emit(report_to_json(doc), args.out, *files)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kextrust",
        description="Key-exchange trust evaluation and wired exchange simulation",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check a topology document")
    p.add_argument("topology")
    p.set_defaults(handler=_cmd_validate)

    p = subs.add_parser("trust", help="trust of one sensor in another")
    p.add_argument("topology")
    p.add_argument("evaluator")
    p.add_argument("peer")
    p.add_argument("--kill", default=None, help="comma-separated compromised sensors")
    p.add_argument("--full-precision", action="store_true")
    p.set_defaults(handler=_cmd_trust)

    p = subs.add_parser("trust-matrix", help="all-pairs trust values")
    p.add_argument("topology")
    p.add_argument("--kill", default=None, help="comma-separated compromised sensors")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--full-precision", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_trust_matrix)

    p = subs.add_parser("rank", help="peers of a sensor by descending trust")
    p.add_argument("topology")
    p.add_argument("evaluator")
    p.add_argument("--kill", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_rank)

    p = subs.add_parser("coefficients", help="tier coefficients and residuals")
    p.add_argument("--check", type=float, default=None, metavar="TOL",
                   help="cross-check against the fixed-point solver at TOL")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_coefficients)

    p = subs.add_parser("simulate-kljn", help="run one wired key-exchange session")
    p.add_argument("--bits", type=int, default=128, help="target key length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None, help="level classification tolerance")
    p.add_argument("--attacker", choices=["none", "wire-substitution", "current-injection"],
                   default="none")
    p.add_argument("--attack-start", type=int, default=0, metavar="PERIOD")
    p.add_argument("--emit-key", action="store_true",
                   help="include the key as hex in the report")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_simulate_kljn)

    p = subs.add_parser("establish", help="establish keys for every sensor pair")
    p.add_argument("topology")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--bits", type=int, default=128, help="key length per wired session")
    p.add_argument("--out", default=None, help="state file (stdout if omitted)")
    p.set_defaults(handler=_cmd_establish)

    p = subs.add_parser("kill", help="mark a sensor compromised in a state file")
    p.add_argument("state")
    p.add_argument("sensor")
    p.add_argument("--note", default="")
    p.add_argument("--out", default=None, help="write here instead of in place")
    p.set_defaults(handler=_cmd_kill)

    p = subs.add_parser("report", help="trust report for an established state")
    p.add_argument("state")
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None, help="also write the matrix as CSV here")
    p.add_argument("--full-precision", action="store_true")
    p.set_defaults(handler=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
