"""Operator command line: validation, trust reports, and exchange simulation.

Batch-only; all randomized subcommands take --seed and produce
byte-identical output for identical inputs.  Exit codes: 0 success,
1 domain error (invalid topology, unknown sensor, failed session),
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

import numpy as np

from .kljn import (
    BANDWIDTH,
    DATA_WORD_BITS,
    R_HIGH,
    R_LOW,
    SAMPLES_PER_PERIOD,
    T_EFF,
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
    json_chunks,
    load_state,
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


# one --kill field: an id in double quotes, unquoted text up to a comma, or
# (the last group) a quote that is not closed right before a comma or the end
_KILL_FIELD = re.compile(r'\s*"((?:[^"]|"")*)"\s*(?:,|\Z)|(?!\s*")([^,]*)(?:,|\Z)|(.+)', re.S)


def _killed(kill_list: str | None, t: Topology) -> frozenset[SensorId]:
    """The sensors named by ``--kill``, in comma-separated fields.

    A field in double quotes is one id taken verbatim, with ``""`` for
    ``"``, as :func:`_csv_field` writes ids; any other field is stripped.
    Empty ids are skipped.  The first other id, in the order given, that is
    not a sensor is an error, and so is a malformed quoted field.
    """
    names = []
    for quoted, plain, malformed in _KILL_FIELD.findall(kill_list or ""):
        if malformed:
            raise DomainError(f"--kill has a malformed quoted id: {malformed!r}")
        names.append(quoted.replace('""', '"') or plain.strip())
    unknown = next((s for s in names if s and not t.has_sensor(s)), None)
    if unknown is not None:
        raise DomainError(f"--kill names unknown sensor {unknown!r}")
    return frozenset(filter(None, names))


def _emit(chunks, out: str | None, *files, source: str | None = None) -> None:
    """Write the ``chunks`` (``str``, written as UTF-8, or ``bytes``) to the
    file ``out``, or to stdout if ``out`` is not given, and each further
    ``(path, chunks)`` to its file.

    An output path that names the existing file ``source``, the command's
    input, is refused before anything is written.  Every file goes through
    :func:`~kextrust.orchestrator.write_files` before stdout sees anything,
    so a failed write leaves no output behind.  On stdout the chunks go to
    its binary buffer, after a flush of its text layer, so that stdout gets
    the bytes a file would; a stdout without a buffer (``io.StringIO``) gets
    the ``bytes`` chunks decoded.
    """
    if source is not None and os.path.exists(source):
        for path in (out, *(path for path, _ in files)):
            if path and os.path.realpath(path) == os.path.realpath(source):
                raise DomainError(f"output path {path!r} names the input file {source!r}")
    write_files([(out, chunks), *files] if out else files)
    if out:
        return
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.writelines(c.decode() if isinstance(c, bytes) else c for c in chunks)
    else:
        sys.stdout.flush()
        buffer.writelines(c.encode() if isinstance(c, str) else c for c in chunks)


# the most cells of a trust matrix that trust-matrix and report build, n =
# 16384 sensors.  It bounds the code matrix (2 bytes a cell: 512 MiB) and the
# text of trust-matrix and report --csv, built whole before it is written
# (about 6 bytes a cell in CSV: 1.5 GiB; up to 30 in JSON or --full-precision)
MATRIX_CELL_BUDGET = 1 << 28


def _check_matrix_size(t: Topology) -> Topology:
    """``t``, if its dense trust matrix fits ``MATRIX_CELL_BUDGET``."""
    n = len(t.sensors)
    if n * n > MATRIX_CELL_BUDGET:
        raise DomainError(
            f"{n} sensors need a {n} x {n} trust matrix, over the budget of "
            f"{MATRIX_CELL_BUDGET} cells (at most {math.isqrt(MATRIX_CELL_BUDGET)} sensors)")
    return t


def _id_rows(matrix, labels, sep: str, heads, tail: bytes):
    """Each row block of the :class:`~kextrust.trust.TrustMatrix` ``matrix``
    as one ``bytes``: per row, the next of the ``bytes`` ``heads``, the
    labels of the row's value ids joined by ``sep``, then ``tail``.
    ``labels`` are the ASCII labels of ``matrix.table``, in its order.

    Each id's ``sep + label`` is an entry of a fixed-width array, padded with
    NULs, gathered by id into a buffer that every later block of the same
    shape reuses (fresh memory for each block cost more in page faults than
    the copies).  Where the labels differ in width, the NULs are stripped
    once per block and each row ends after the widths of its entries.
    """
    encoded = [(sep + label).encode() for label in labels]
    entries = np.array(encoded, dtype=bytes)
    # the smallest dtype, so that a block's cell widths are a small temporary
    widths = np.array([len(e) for e in encoded], dtype=np.min_scalar_type(entries.itemsize))
    padded = bool((widths < entries.itemsize).any())
    heads, buffer, cells = iter(heads), None, None
    for ids in matrix.blocks():
        if cells is None or cells.shape != ids.shape:
            buffer = bytearray(ids.size * entries.itemsize)
            cells = np.frombuffer(buffer, dtype=entries.dtype).reshape(ids.shape)
        np.take(entries, ids, out=cells, mode="clip")  # every id is in range
        if padded:
            ends = np.cumsum(widths[ids].sum(axis=1))
        else:
            ends = np.arange(1, len(ids) + 1) * (ids.shape[1] * entries.itemsize)
        # the stripped text lives only through the call, so that no block's
        # text is alive while the next one is stripped
        yield _cut_rows(buffer.translate(None, b"\0") if padded else buffer, ends.tolist(),
                        len(sep), heads, tail)


def _cut_rows(text, ends, skip: int, heads, tail: bytes) -> bytes:
    """The rows of ``text`` that end at ``ends``, each starting ``skip``
    bytes (a separator) after the end of the one before, or after the
    start: each framed by the next of ``heads`` and by ``tail``, and all
    joined.  The rows are ``memoryview`` slices of ``text``, copied once,
    by the join."""
    text, parts, begin = memoryview(text), [], skip
    for end in ends:
        parts += (next(heads), text[begin:end], tail)
        begin = end + skip
    return b"".join(parts)


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: in double quotes, with each ``"`` doubled,
    if it holds a ``,``, ``"``, ``\\r`` or ``\\n``, so that ``csv.reader``
    reads it back whole; as it is otherwise."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def matrix_to_csv(matrix, full_precision: bool = False) -> list[bytes]:
    """The :class:`~kextrust.trust.TrustMatrix` ``matrix`` as CSV text in
    UTF-8, rows = evaluator, columns = evaluated peer: a list of ``bytes``
    chunks, the header and then one per row block, all built by the time it
    returns.

    Sensor ids are written with :func:`_csv_field`, and every cell as
    ``repr(value)`` (``full_precision``) or ``f"{value:.3f}"``, each entry of
    ``matrix.table`` formatted once; lines end in ``"\\n"``.
    """
    label = repr if full_precision else "{:.3f}".format
    fields = list(map(_csv_field, matrix.order))
    header = ",".join(["sensor", *fields]) + "\n"
    heads = (f"{field},".encode() for field in fields)
    labels = map(label, matrix.table.tolist())
    return [header.encode(), *_id_rows(matrix, labels, ",", heads, b"\n")]


def _matrix_chunks(matrix, pad: str, labels):
    """``{"order": order, "values": values}`` of the ``matrix``, laid out as
    by ``json.dumps(indent=2)`` at indent ``pad``, as ``bytes`` chunks, one
    per row block; ``labels`` are the JSON texts of ``matrix.table``."""
    inner, cell_pad = pad + "  ", pad + "      "
    head = f'{{\n{inner}"order": {json_block(map(_json_str, matrix.order), inner)},\n{inner}"values": '
    if not matrix.order:
        yield f"{head}[]\n{pad}}}".encode()
        return
    yield head.encode()
    # each row opens the list or follows a comma, as json_chunks lays out entries
    row_head = f"\n{inner}  [\n{cell_pad}".encode()
    heads = itertools.chain([b"[" + row_head], itertools.repeat(b"," + row_head))
    yield from _id_rows(matrix, labels, ",\n" + cell_pad, heads, f"\n{inner}  ]".encode())
    yield f"\n{inner}]\n{pad}}}".encode()


def matrix_to_json(matrix) -> list[bytes]:
    """``json.dumps({"order": order, "values": values}, indent=2) + "\\n"``
    for the :class:`~kextrust.trust.TrustMatrix` ``matrix``, encoded (the
    text is ASCII), as a list of ``bytes`` chunks, one per row block and the
    framing."""
    return [*_matrix_chunks(matrix, "", map(json.dumps, matrix.table.tolist())), b"\n"]


def report_json_chunks(state: NetworkKeyState, coef, matrix, rankings):
    """The ``report`` document of ``state`` as chunks of JSON text; encoded
    and joined, they are ``json.dumps(doc, indent=2) + "\n"`` for the
    document with the keys ``sensors``, ``coefficients`` (``a``, ``b``,
    ``c``, ``provenance``), ``killed`` (sorted), ``matrix`` (``order``,
    ``values``), ``rankings`` (each sensor's ``[peer, value]`` list),
    ``records`` (``pair``, ``channel``, ``key_id``, ``established_at``,
    ``status``, in ``state.records_sorted()`` order) and ``kill_log``
    (``timestamp``, ``sensor``, ``action``, ``note``).

    ``matrix`` and ``rankings`` are those :func:`trust_report` returns.  The
    matrix rows, the rankings and the records are yielded up to 64 at a
    time.  Every float is labelled from ``matrix.table``, each entry
    formatted once: a ranking value is a matrix value, since a ranking is
    the scalar :func:`~kextrust.trust.trust` of each peer.  The matrix comes
    as ``bytes`` chunks and every other chunk as ``str``; the text is ASCII.
    """
    values = matrix.table.tolist()
    labels = list(map(json.dumps, values))
    label = dict(zip(values, labels))
    coefficients = (f'"{name}": {json.dumps(getattr(coef, name))}'
                    for name in ("a", "b", "c", "provenance"))
    yield (f'{{\n  "sensors": {json_block(map(_json_str, state.topology.sensors), "  ")},\n'
           f'  "coefficients": {json_block(coefficients, "  ", "{}")},\n'
           f'  "killed": {json_block(map(_json_str, sorted(state.kill.killed)), "  ")},\n'
           '  "matrix": ')
    yield from _matrix_chunks(matrix, "  ", labels)
    yield ',\n  "rankings": '
    yield from json_chunks((
        f"{_json_str(sensor)}: " + json_block(
            (f"[\n        {_json_str(peer)},\n        {label[value]}\n      ]"
             for peer, value in ranking),
            "    ")
        for sensor, ranking in rankings.items()
    ), "  ", "{}")
    yield ',\n  "records": '
    yield from json_chunks((
        f'{{\n      "pair": [\n        {_json_str(r.pair[0])},\n        {_json_str(r.pair[1])}\n'
        f'      ],\n      "channel": {_json_str(r.channel)},\n'
        f'      "key_id": {_json_str(r.key_id)},\n'
        f'      "established_at": {r.established_at},\n'
        f'      "status": {_json_str(r.status)}\n    }}'
        for r in state.records_sorted()
    ), "  ")
    yield ',\n  "kill_log": '
    yield from json_chunks((
        f'{{\n      "timestamp": {e.timestamp},\n      "sensor": {_json_str(e.sensor)},\n'
        f'      "action": {_json_str(e.action)},\n      "note": {_json_str(e.note)}\n    }}'
        for e in state.kill.event_log
    ), "  ")
    yield "\n}\n"


def _cmd_validate(args) -> int:
    t = parse_topology(_read_topology_text(args.topology))
    report = validate(t)
    for issue in report.errors:
        print(f"error [{issue.code}]: {issue.message}")
    for issue in report.warnings:
        print(f"warning [{issue.code}]: {issue.message}")
    if report.ok:
        print(f"ok: {len(t.sensors)} sensors, {len(t.index.links)} KLJN edges")
        return 0
    return 1


def _cmd_trust(args) -> int:
    t = _load_checked_topology(args.topology)
    value = trust(t, coefficients_closed_form(), _killed(args.kill, t), args.evaluator, args.peer)
    print(repr(value) if args.full_precision else f"{value:.3f}")
    return 0


def _cmd_trust_matrix(args) -> int:
    t = _check_matrix_size(_load_checked_topology(args.topology))
    matrix = trust_matrix(t, coefficients_closed_form(), _killed(args.kill, t))
    if args.format == "json":
        chunks = matrix_to_json(matrix)
    else:
        chunks = matrix_to_csv(matrix, args.full_precision)
    _emit(chunks, args.out, source=args.topology)
    return 0


def _cmd_rank(args) -> int:
    t = _load_checked_topology(args.topology)
    ranking = rank_peers(t, coefficients_closed_form(), _killed(args.kill, t), args.evaluator)
    lines = [f"{_csv_field(sensor)},{value:.3f}" for sensor, value in ranking]
    _emit(("\n".join(lines) + ("\n" if lines else ""),), args.out, source=args.topology)
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
    if args.format == "json":
        _emit((json.dumps(doc, indent=2) + "\n",), args.out)
    else:
        lines = [f"a = {closed.a!r}", f"b = {closed.b!r}", f"c = {closed.c!r}"]
        for name, residual in doc["residuals"].items():
            lines.append(f"residual_{name} = {residual:.3e}")
        if args.check is not None:
            for name, dev in doc["deviations"].items():
                lines.append(f"fixed_point_deviation_{name} = {dev:.3e}")
        _emit(("\n".join(lines) + "\n",), args.out)
    if args.check is not None and max(doc["deviations"].values()) >= args.check:
        print(f"error: fixed-point solution deviates beyond {args.check}", file=sys.stderr)
        return 1
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
    cfg = KljnSessionConfig(level_tolerance=args.tol, seed=args.seed)
    attacker = _build_attacker(args.attacker, args.attack_start, args.seed)

    exhausted = False
    try:
        result = run_key_exchange(cfg, args.bits, attacker=attacker)
    except BudgetExhaustedError as exc:
        result = exc.partial
        exhausted = True

    doc = {
        "config": {
            "r_low": R_LOW,
            "r_high": R_HIGH,
            "t_eff": T_EFF,
            "bandwidth": BANDWIDTH,
            "samples_per_period": SAMPLES_PER_PERIOD,
            "level_tolerance": cfg.level_tolerance,
            "data_word_bits": DATA_WORD_BITS,
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
        "auth_bits_per_word": auth_bit_cost(DATA_WORD_BITS),
    }
    if args.emit_key:
        doc["key_hex"] = result.key_hex
    _emit((json.dumps(doc, indent=2) + "\n",), args.out)
    return 1 if (exhausted or result.attack_detected) else 0


def _cmd_establish(args) -> int:
    t = _load_checked_topology(args.topology)
    state = establish_network_keys(t, master_seed=args.seed, target_bits=args.bits)
    _emit((state_to_json(state),), args.out, source=args.topology)
    failed = sum(1 for r in state.stored.values() if r.status == STATUS_FAILED)
    if failed:
        print(f"warning: {failed} record(s) failed", file=sys.stderr)
    return 0


def _cmd_kill(args) -> int:
    state = _load_checked_state(args.state)
    apply_kill_event(state, args.sensor, note=args.note)
    _emit((state_to_json(state),), args.out or args.state)
    return 0


def _cmd_report(args) -> int:
    state = _load_checked_state(args.state)
    _check_matrix_size(state.topology)
    coef = coefficients_closed_form()
    matrix, rankings = trust_report(state, coef)
    files = []
    if args.csv:
        files.append((args.csv, matrix_to_csv(matrix, args.full_precision)))
    _emit(report_json_chunks(state, coef, matrix, rankings), args.out, *files,
          source=args.state)
    return 0


def _non_negative(text: str) -> int:
    """An integer for argparse, 0 or more: a period index or a seed."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``kextrust`` argument parser, built on the first call.

    The parser is shared by every later call in the process, so callers
    must not change it; a handler patched after the first call is not seen.
    """
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
    p.add_argument("--seed", type=_non_negative, default=0)
    p.add_argument("--tol", type=float, default=KljnSessionConfig.level_tolerance,
                   help="level classification tolerance")
    p.add_argument("--attacker", choices=["none", "wire-substitution", "current-injection"],
                   default="none")
    p.add_argument("--attack-start", type=_non_negative, default=0, metavar="PERIOD")
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
