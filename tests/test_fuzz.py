"""Seeded fuzz of the command line on mutated documents.

A 5-sensor topology with explicit wireless sets, and the state file that
``establish`` writes for it, are mutated 1-3 times each: a key or a list
entry is deleted, or a value anywhere is replaced by one of ``ODD_VALUES``.
The topologies go through ``validate``, ``trust-matrix``, ``rank``,
``trust`` and ``establish``, the state files through ``report`` and
``kill``.  Every run must exit 0, 1 or 2 without an uncaught exception; a
failed run writes nothing on stdout and one ``error:`` line on stderr (or,
for ``validate``, its report of the faults on stdout), and a failed
``kill`` leaves its state file as it was.
"""

import contextlib
import copy
import io
import json
import random
import warnings

import pytest

from kextrust.cli import main

TOPOLOGY = {
    "sensors": ["A", "B", "C", "D", "E"],
    "kljn_edges": [["A", "B"], ["B", "C"], ["D", "E"]],
    "wireless_sets": {"A": ["C", "D"], "B": ["E"], "C": ["A"], "D": ["A"], "E": ["B"]},
}
# no value, the booleans, non-finite and huge numbers, ids of no sensor and
# of sensors, a non-ASCII id, empty and nested containers
ODD_VALUES = (None, True, False, float("nan"), float("inf"), 2**70, -1, 0, 1.5, "", "Z", "A",
              "C", "é", "A,B", [], {}, [[]], [["A", "E"]], ["C"], {"A": []})
# "{doc}" names the mutated document, "{dir}" a directory for other output
TOPOLOGY_COMMANDS = (
    ("validate", "{doc}"), ("trust-matrix", "{doc}"), ("trust-matrix", "{doc}", "--format", "json"),
    ("trust-matrix", "{doc}", "--full-precision", "--kill", "C"), ("rank", "{doc}", "A"),
    ("trust", "{doc}", "A", "C"), ("establish", "{doc}", "--bits", "8"))
STATE_COMMANDS = (("report", "{doc}", "--csv", "{dir}/m.csv"), ("kill", "{doc}", "A"))


def _places(doc):
    """Every (container, key) of the JSON document ``doc``, nested ones included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in list(items):
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _places(value)


def _mutated(doc, rng):
    """A copy of ``doc`` with 1-3 deletions or replacements."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        places = list(_places(doc))
        if not places:
            break
        container, key = rng.choice(places)
        if rng.random() < 0.5:
            del container[key]
        else:
            container[key] = copy.deepcopy(rng.choice(ODD_VALUES))
    return doc


def _run(argv):
    """``main(argv)`` with stdout and stderr captured, Python warnings as
    errors: its exit code and its two texts."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _check(argv, code, out, err):
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 0:
        return
    if argv[0] == "validate" and not err:
        lines = out.splitlines()
        assert lines and all(line.startswith(("error [", "warning [")) for line in lines), out
        assert any(line.startswith("error [") for line in lines), out
        return
    assert out == "", (argv, out)
    if code == 1:
        assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)
    else:
        assert "error:" in err.splitlines()[-1], (argv, err)


@pytest.fixture(scope="module")
def state_doc(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz_state")
    (base / "t.json").write_text(json.dumps(TOPOLOGY), encoding="utf-8")
    assert main(["establish", str(base / "t.json"), "--bits", "8",
                 "--out", str(base / "s.json")]) == 0
    return json.loads((base / "s.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", range(8))
def test_mutated_documents(tmp_path, state_doc, seed):
    rng = random.Random(seed)
    codes = set()
    for case in range(40):
        topology = tmp_path / f"t{case}.json"
        topology.write_text(json.dumps(_mutated(TOPOLOGY, rng)), encoding="utf-8")
        for command in TOPOLOGY_COMMANDS:
            argv = [a.format(doc=topology, dir=tmp_path) for a in command]
            result = _run(argv)
            _check(argv, *result)
            codes.add(result[0])
        state = tmp_path / f"s{case}.json"
        state.write_text(json.dumps(_mutated(state_doc, rng)), encoding="utf-8")
        for command in STATE_COMMANDS:
            before = state.read_bytes()
            argv = [a.format(doc=state, dir=tmp_path) for a in command]
            result = _run(argv)
            _check(argv, *result)
            codes.add(result[0])
            if result[0] != 0:
                assert state.read_bytes() == before, argv
    # the mutations reach both the accepting and the refusing paths
    assert codes >= {0, 1}
