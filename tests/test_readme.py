"""The README's library example runs as written, so it names only live API."""

import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README} (Library use)", "exec"), {"__name__": "readme_example"})
    ratio, clout_max = (float(word) for word in capsys.readouterr().out.split())
    assert math.isfinite(ratio) and ratio > 0.0
    assert math.isfinite(clout_max) and clout_max > 0.0
