"""The documented API: the README's library quick start runs as written,
and every name the package exports resolves."""

import re
from pathlib import Path

import qfselect

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert "-> evolved" in capsys.readouterr().out


def test_every_exported_name_resolves():
    missing = [name for name in qfselect.__all__ if not hasattr(qfselect, name)]
    assert missing == []
    assert len(set(qfselect.__all__)) == len(qfselect.__all__)
