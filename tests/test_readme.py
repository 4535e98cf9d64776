"""README's library example and quick-start commands run against the current code."""

import re
import shlex
from pathlib import Path

from semnav import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S).group(1)
    exec(compile(code, f"{README.name} (Library use)", "exec"), {})
    assert capsys.readouterr().out.startswith("targeted ('office_1', 'desk_1') ")


def readme_commands() -> list[str]:
    """Every `semnav ...` command of README's sh blocks, in order, continuations joined."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("semnav ")]


def test_quick_start_commands_exit_zero(tmp_path, capsys):
    commands = readme_commands()
    assert [c.split()[1] for c in commands] == [
        "gen", "validate", "plan", "plan", "plan", "render", "bench", "build", "index"
    ]
    for command in commands:
        argv = shlex.split(command.replace("/tmp/", f"{tmp_path}/"), comments=True)[1:]
        assert cli.main(argv) == 0, command
    capsys.readouterr()
    assert (tmp_path / "office.svg").is_file() and (tmp_path / "rebuilt" / "graph.json").is_file()
