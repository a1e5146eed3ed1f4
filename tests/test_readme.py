"""The README's Python examples run as written and print what they state."""

import re
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)


def test_readme_has_examples():
    assert len(BLOCKS) == 3


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example(index, capsys):
    code = BLOCKS[index]
    exec(compile(code, f"README.md python block {index}", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # `print(x)  # 416 trace unknowns ...` states that x prints as 416
    stated = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    assert len(printed) == len(stated)
    for got, note in zip(printed, stated):
        assert note == got or note.startswith(got + " "), (got, note)
