"""README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S).group(1)
    exec(compile(code, f"{README.name} (Library use)", "exec"), {})
    assert capsys.readouterr().out.startswith("targeted ('office_1', 'desk_1') ")
