"""Operator command line: validation, trust reports, and exchange simulation.

Batch-only; all randomized subcommands take --seed and produce
byte-identical output for identical inputs.  Exit codes: 0 success,
1 domain error (invalid topology, unknown sensor, failed session),
2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
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
    CHANNEL_WIRELESS,
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


def _checked_state(text: str) -> NetworkKeyState:
    state = state_from_json(text)
    _check_topology(state.topology)
    return state


@contextlib.contextmanager
def _locked(path: str):
    """``path`` open for reading under an exclusive ``flock`` (POSIX advisory
    locking), held until the block ends.  A writer that replaced the file
    while this one waited (``os.replace`` swaps the inode) left the lock on
    the old file, so the new one is opened and locked in its turn."""
    while True:
        with open(path, encoding="utf-8") as f:
            fcntl.flock(f, fcntl.LOCK_EX)
            held, now = os.fstat(f.fileno()), os.stat(path)
            if (held.st_dev, held.st_ino) == (now.st_dev, now.st_ino):
                yield f
                return


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
    """Write the ``chunks`` (``str``, written as UTF-8, or bytes-like) to the
    file ``out``, or to stdout if ``out`` is not given, and each further
    ``(path, chunks)`` to its file.

    An output path that names the existing file ``source``, the command's
    input, is refused before anything is written.  Every file goes through
    :func:`~kextrust.orchestrator.write_files` before stdout sees anything,
    so a failed write leaves no output behind.  On stdout the chunks go to
    its binary buffer, after a flush of its text layer, so that stdout gets
    the bytes a file would; a stdout without a buffer (``io.StringIO``) gets
    the other chunks decoded.  Lazy chunks, such as the matrix writers',
    are built as they are written, on stdout as in a file.
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
        sys.stdout.writelines(c if isinstance(c, str) else c.decode() for c in chunks)
    else:
        sys.stdout.flush()
        buffer.writelines(c.encode() if isinstance(c, str) else c for c in chunks)


# the most cells of a trust matrix that trust-matrix builds, n = 16384
# sensors.  It bounds the exceptions (at worst every cell: 3 bytes a cell
# kept, 6 while trust_matrix joins them, 1.5 GiB) and the text written, 64
# rows at a time, never whole (about 6 bytes a cell in CSV: 1.5 GiB to
# write; up to 30 in JSON or --full-precision)
MATRIX_CELL_BUDGET = 1 << 28
# the most ordered pairs of sensors that report writes, n = 4096: about 185
# bytes a pair (its matrix cell, its ranking entry, half a record), 3 GB
REPORT_CELL_BUDGET = 1 << 24


def _check_matrix_size(t: Topology, budget: int = MATRIX_CELL_BUDGET,
                       output: str = "trust matrix") -> Topology:
    """``t``, if its ``output`` of n x n cells fits ``budget`` cells."""
    n = len(t.sensors)
    if n * n > budget:
        raise DomainError(
            f"{n} sensors need a {n} x {n} {output}, over the budget of "
            f"{budget} cells (at most {math.isqrt(budget)} sensors)")
    return t


def _id_rows(matrix, labels, sep: str, heads: list[bytes], tail: bytes):
    """The row blocks of the :class:`~kextrust.trust.TrustMatrix` ``matrix``
    as an iterator of ``bytearray`` chunks, each built as it is taken: per
    row, its entry of the ``bytes`` ``heads`` (the widest at least as long
    as ``sep``), the labels of its value ids joined by ``sep``, and ``tail``.
    ``labels`` are the ASCII labels of ``matrix.table``, in its order.

    Each id's ``sep + label`` is an entry of a fixed-width array.  A block
    is a buffer of framed rows: each the base row, ``matrix.base``'s
    entries, patched with its exceptions' entries, its head written over
    its first separator, then the tail.  Shorter entries and heads are
    padded with 0xFF, a byte UTF-8 never holds.  An unpadded block's
    buffer is its chunk, so each is fresh; a padded block's chunk is its
    one copy, stripped by ``translate``, so its buffer is kept for the next.
    """
    encoded = [(sep + label).encode() for label in labels]
    width, head = max(map(len, encoded)), max(map(len, heads), default=0)
    padded = any(len(e) < width for e in encoded) or any(len(h) < head for h in heads)
    entries = np.frombuffer(b"".join(e.ljust(width, b"\xff") for e in encoded), (np.void, width))
    head_rows = np.frombuffer(b"".join(h.rjust(head, b"\xff") for h in heads), np.uint8)
    head_rows = head_rows.reshape(len(heads), head)
    base = entries[matrix.base]
    first = head - len(sep)  # where a row's cells start: its head covers their first sep
    stride, tail = first + base.nbytes + len(tail), np.frombuffer(tail, np.uint8)
    spare = {}  # a padded block's buffer, by its number of rows

    def block(rows, at, ids):
        buffer = spare.get(len(rows)) or bytearray(len(rows) * stride)
        text = np.frombuffer(buffer, np.uint8).reshape(len(rows), stride)
        cells = text[:, first:first + base.nbytes].view(entries.dtype)
        cells[:] = base
        cells[at] = entries[ids]
        text[:, :head] = head_rows[rows.start:rows.stop]
        text[:, stride - len(tail):] = tail
        if not padded:
            return buffer
        spare[len(rows)] = buffer
        return buffer.translate(None, b"\xff")

    return itertools.starmap(block, matrix.patches())


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: in double quotes, with each ``"`` doubled,
    if it holds a ``,``, ``"``, ``\\r`` or ``\\n``, so that ``csv.reader``
    reads it back whole; as it is otherwise."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def matrix_to_csv(matrix, full_precision: bool = False):
    """The :class:`~kextrust.trust.TrustMatrix` ``matrix`` as CSV text in
    UTF-8, rows = evaluator, columns = evaluated peer: an iterator of
    chunks, the header as ``bytes`` and then one ``bytearray`` per row
    block, each built as it is taken.

    Sensor ids are written with :func:`_csv_field`, and every cell as
    ``repr(value)`` (``full_precision``) or ``f"{value:.3f}"``, each entry of
    ``matrix.table`` formatted once; lines end in ``"\\n"``.
    """
    label = repr if full_precision else "{:.3f}".format
    fields = list(map(_csv_field, matrix.order))
    header = ",".join(["sensor", *fields]) + "\n"
    heads = [f"{field},".encode() for field in fields]
    labels = map(label, matrix.table.tolist())
    return itertools.chain([header.encode()], _id_rows(matrix, labels, ",", heads, b"\n"))


def _matrix_chunks(matrix, pad: str, labels):
    """``{"order": order, "values": values}`` of the ``matrix``, laid out as
    by ``json.dumps(indent=2)`` at indent ``pad``, as chunks of :func:`_id_rows`,
    one per row block, and ``bytes`` for the framing; ``labels`` are the JSON
    texts of ``matrix.table``."""
    inner, cell_pad = pad + "  ", pad + "      "
    head = f'{{\n{inner}"order": {json_block(map(_json_str, matrix.order), inner)},\n{inner}"values": '
    if not matrix.order:
        yield f"{head}[]\n{pad}}}".encode()
        return
    yield head.encode()
    # each row opens the list or follows a comma, as json_chunks lays out entries
    row_head = f"\n{inner}  [\n{cell_pad}".encode()
    heads = [b"[" + row_head] + [b"," + row_head] * (len(matrix.order) - 1)
    yield from _id_rows(matrix, labels, ",\n" + cell_pad, heads, f"\n{inner}  ]".encode())
    yield f"\n{inner}]\n{pad}}}".encode()


def matrix_to_json(matrix):
    """``json.dumps({"order": order, "values": values}, indent=2) + "\\n"``
    for the :class:`~kextrust.trust.TrustMatrix` ``matrix``, encoded (the
    text is ASCII), as an iterator of the chunks of :func:`_matrix_chunks`,
    each built as it is taken, and a last ``b"\\n"``."""
    return itertools.chain(_matrix_chunks(matrix, "", map(json.dumps, matrix.table.tolist())),
                           [b"\n"])


def report_json_chunks(state: NetworkKeyState, coef, matrix, rankings):
    """The ``report`` document of ``state`` as chunks of JSON text; encoded
    and joined, they are ``json.dumps(doc, indent=2) + "\n"`` for the
    document with the keys ``sensors``, ``coefficients`` (``a``, ``b``,
    ``c``, ``provenance``), ``killed`` (sorted), ``matrix`` (``order``,
    ``values``), ``rankings`` (each sensor's ``[peer, value]`` list),
    ``records`` (``pair``, ``channel``, ``key_id``, ``established_at``,
    ``status``, in ``state.records_sorted()`` order) and ``kill_log``
    (``timestamp``, ``sensor``, ``action``, ``note``: ``state.kill_log()``).

    ``matrix`` and ``rankings`` are those :func:`trust_report` returns.  The
    matrix rows, the rankings and the records are yielded up to 64 at a
    time, each ranking read from ``rankings`` as its batch is formatted, so
    that one ranking and one batch of text are held at a time.  Each
    sensor id is encoded as JSON once, and the records are formatted from
    ``state.record_rows``.  Every float is labelled from ``matrix.table``,
    each entry formatted once: a ranking value is a matrix value, since a
    ranking is the scalar :func:`~kextrust.trust.trust` of each peer.  The
    matrix comes as the chunks of :func:`_matrix_chunks` and every other
    chunk as ``str``; the text is ASCII.
    """
    ids = state.topology.sensors
    names = list(map(_json_str, ids))
    values = matrix.table.tolist()
    labels = list(map(json.dumps, values))
    label = dict(zip(values, labels))
    coefficients = (f'"{name}": {json.dumps(getattr(coef, name))}'
                    for name in ("a", "b", "c", "provenance"))
    yield (f'{{\n  "sensors": {json_block(names, "  ")},\n'
           f'  "coefficients": {json_block(coefficients, "  ", "{}")},\n'
           f'  "killed": {json_block(map(_json_str, sorted(state.kill.killed)), "  ")},\n'
           '  "matrix": ')
    yield from _matrix_chunks(matrix, "  ", labels)
    yield ',\n  "rankings": '
    named = dict(zip(ids, names))
    # a ranking entry is its peer's head, the value's label and the tail
    heads = {i: f"[\n        {name},\n        " for i, name in named.items()}
    yield from json_chunks((
        f"{named[sensor]}: " + json_block(
            [f"{heads[peer]}{label[value]}\n      ]" for peer, value in ranking], "    ")
        for sensor, ranking in rankings.items()
    ), "  ", "{}")
    yield ',\n  "records": '
    yield from json_chunks(_record_texts(state, names), "  ")
    yield ',\n  "kill_log": '
    yield from json_chunks((
        f'{{\n      "timestamp": {timestamp},\n      "sensor": {_json_str(e.sensor)},\n'
        f'      "action": {_json_str(e.action)},\n      "note": {_json_str(e.note)}\n    }}'
        for timestamp, e in state.kill_log()
    ), "  ")
    yield "\n}\n"


def _record_texts(state: NetworkKeyState, names: list[str]):
    """Each record of ``state.record_rows(names)`` as its JSON object text,
    from one template: the pair's head is built once per first sensor, a
    wireless token (hex) is quoted as it is and only a wired key id is
    encoded."""
    row = None
    for x, y, channel, key_id, index, status in state.record_rows(names):
        if x != row:
            row, head = x, f'{{\n      "pair": [\n        {names[x]},\n        '
        key_id = f'"{key_id}"' if channel == CHANNEL_WIRELESS else _json_str(key_id)
        yield (f'{head}{names[y]}\n      ],\n      "channel": "{channel}",\n'
               f'      "key_id": {key_id},\n      "established_at": {index},\n'
               f'      "status": "{status}"\n    }}')


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
    failed = state.kljn_keys.count("")
    if failed:
        print(f"warning: {failed} record(s) failed", file=sys.stderr)
    return 0


def _cmd_kill(args) -> int:
    # locked from the read to the rename, so that concurrent kills all land
    with _locked(args.state) as f:
        state = _checked_state(f.read())
        apply_kill_event(state, args.sensor, note=args.note)
        _emit((state_to_json(state),), args.out or args.state)
    return 0


def _cmd_report(args) -> int:
    state = _checked_state(Path(args.state).read_text(encoding="utf-8"))
    _check_matrix_size(state.topology, REPORT_CELL_BUDGET, "trust report")
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
    full_precision = "CSV cells as repr(value), not 3 decimals (JSON is always full precision)"

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
    p.add_argument("--full-precision", action="store_true", help=full_precision)
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
    p.add_argument("--full-precision", action="store_true", help=full_precision)
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
