"""The README's settings table and the demo scripts stay in step with the code."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from curlearn.cli import SETTINGS, default_settings

ROOT = Path(__file__).resolve().parent.parent
ROW = re.compile(r"^\| `([a-z_]+\.[a-z0-9_]+)` \| (.*?) \| `([^`]*)`")


def readme_settings_rows():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return [ROW.match(line).groups() for line in section.splitlines() if ROW.match(line)]


def test_readme_lists_every_config_key_with_its_flag_and_default():
    rows = readme_settings_rows()
    assert [key for key, _, _ in rows] == list(SETTINGS)
    defaults = default_settings()
    for key, flag, default in rows:
        dest = SETTINGS[key].dest
        assert flag.startswith(f"`--{dest.replace('_', '-')}`" if dest else "–"), key
        assert json.loads(default) == defaults[key], key


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
