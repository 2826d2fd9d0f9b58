"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library example\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(code, f"{README.name}: Library example", "exec"), namespace)
    kt = namespace["kt"]
    topo, coef = namespace["topo"], namespace["coef"]
    assert repr(kt.trust(topo, coef, frozenset(), "A", "C")).startswith("0.5548")
    assert kt.rank_peers(topo, coef, {"H"}, "A")[-1] == ("H", 0.0)
    assert namespace["matrix"].order == list(topo.sensors)
    assert namespace["state"].kill.killed == {"H"}
    assert namespace["state"].clock == 46
