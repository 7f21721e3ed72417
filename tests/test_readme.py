"""README's library example runs as written, and every package name it cites exists."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    excess, se = (float(x) for x in capsys.readouterr().out.split())
    assert se >= 0.0 and excess > -4.0 * se


def _resolve(dotted):
    """Import the longest module prefix of ``dotted`` and getattr the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(dotted)


def test_readme_dotted_names_resolve():
    names = set(re.findall(r"`(dpsco(?:\.\w+)+)`", README.read_text(encoding="utf-8")))
    assert len(names) >= 11
    for name in sorted(names):
        _resolve(name)
