"""The README's examples and the demos, run in-process.

The quick-start block prints the values its "# ..." comments give, each "$ irrevkit ..."
command of the command-line transcript prints the lines shown under it (with the run
directory for "$PWD"), the sweep writes the tau.csv that its "cat tau.csv" block shows,
and every demo runs to the end. A numpy overflow, divide-by-zero or invalid-value
warning fails each of them, as pytest turns a RuntimeWarning into an error here.
"""

import os
import re
import runpy
import shlex
from pathlib import Path

import pytest

from irrevkit.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def test_quick_start_prints_its_comments(capsys):
    code = re.search(r"^## Quick start$.*?^```python\n(.*?)^```$", README, re.M | re.S).group(1)
    want = re.findall(r"# (\S+)$", code, re.M)
    exec(code, {"__name__": "__main__"})
    assert len(want) == 2 and capsys.readouterr().out.split() == want


def test_command_line_transcript(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = re.findall(r"^\$ irrevkit (.*)\n((?:(?!\$ |```).*\n)*)", README, re.M)
    assert len(commands) == 4
    for cmd, shown in commands:
        assert main(shlex.split(cmd)) == 0, cmd
        assert capsys.readouterr().out.replace(os.path.realpath(tmp_path), "$PWD") == shown, cmd
    shown = re.search(r"^\$ cat tau\.csv\n(.*?)^\$ ", README, re.M | re.S).group(1)
    assert (tmp_path / "tau.csv").read_text() == shown


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
