"""The README's library example must run as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md: Library example", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "True"
    assert lines[-1].startswith("spectrum_witness ")
