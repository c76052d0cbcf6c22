"""The README's library example and CLI examples must run as printed."""

import re
import shlex
from pathlib import Path

import pytest

from qchan import cli, exact

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_block() -> list[str]:
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    return re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1).splitlines()


# Examples that read no input file; the README documents the exit-1 one.
CLI_EXAMPLES = [
    line
    for line in _cli_block()
    if line.startswith("qchan ") and not any(arg.endswith(".json") for arg in shlex.split(line))
]
EXIT_ONE = {"qchan verify cptp --family tcq --dim 3 --p 0.3"}


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md: Library example", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "True"
    assert lines[-1].startswith("spectrum_witness ")


def test_cli_examples_are_found():
    assert len(CLI_EXAMPLES) == 10
    assert EXIT_ONE <= set(CLI_EXAMPLES)


@pytest.mark.parametrize("line", CLI_EXAMPLES)
def test_cli_example_runs(line, capsys):
    code = cli.main(shlex.split(line)[1:])
    assert code == (1 if line in EXIT_ONE else 0), capsys.readouterr().out


def test_range_example_prints_the_documented_json(capsys):
    lines = _cli_block()
    start = lines.index("qchan range --family dcq --dim 3") + 1
    printed = []
    for text in lines[start:]:
        if not text.startswith("# "):
            break
        printed.append(text[2:])
    assert cli.main(["range", "--family", "dcq", "--dim", "3"]) == 0
    assert capsys.readouterr().out == "\n".join(printed) + "\n"


def _fits(command, n, samples=0):
    try:
        exact._check_peak_bytes(command, n, samples)
    except ValueError:
        return False
    return True


def _first_refused(fits):
    """The smallest size >= 1 that ``fits`` refuses, where every smaller size fits."""
    lo, hi = 0, 1
    while fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return hi


def _size_guard_rows():
    """README's size-guard table: command -> its other cells."""
    section = README.read_text(encoding="utf-8").split("Size guards.", 1)[1]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("| `"):
            rows[cells[0].strip("`")] = cells[1:]
    return rows


def test_size_guard_table_states_the_first_refused_sizes():
    rows = _size_guard_rows()
    assert set(rows) == set(exact._PEAK_BYTES)
    for command, row in exact._PEAK_BYTES.items():
        refused = f"n = {_first_refused(lambda n: _fits(command, n))}"
        if row.per_item:
            items = _first_refused(lambda count: _fits(command, 3, count))
            refused += f"; {items:,} {'grid points' if command == 'detcheck' else 'samples'} at n = 3"
        counts = [str(count or "") for count in (row.per_n2, row.per_n4, row.per_item)]
        assert rows[command] == [*counts, refused], command
