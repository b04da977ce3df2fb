"""README's code stays runnable: its library quickstart is executed as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library quickstart\n.*?^```python\n(.*?)^```", text, re.S | re.M)
    assert block is not None, "README has no Python block under 'Library quickstart'"
    namespace: dict = {}
    exec(compile(block.group(1), f"{README}:quickstart", "exec"), namespace)
    assert abs(namespace["value"] - 35.0) <= 1e-9  # E-hat |S_8|^3 on the canonical set
    assert namespace["upper"] == 1.0  # E-hat |X|
    assert namespace["cap"] == (0.5, 0.25)  # (V, v) of {X > 0}
    assert max(abs(v - n) for n, v in enumerate(namespace["second"], 1)) <= 1e-12  # n sigma-bar^2
