"""The README's library example runs as written."""

import re

from conftest import DATA_DIR

README = DATA_DIR.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    assert "ElectrodeParams(" in capsys.readouterr().out
