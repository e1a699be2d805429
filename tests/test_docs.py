"""The README's settings table, its Python examples and the demo scripts stay
in step with the code."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import curlearn
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


def run_python(args, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, *args], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    run_python([str(ROOT / "demos" / demo)], tmp_path)


def readme_python_blocks():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run(tmp_path):
    blocks = readme_python_blocks()
    assert blocks
    for block in blocks:
        run_python(["-c", block], tmp_path)


def test_public_api_is_what_the_docs_import():
    # a re-export no example uses, or an example importing a name the
    # package no longer exports, fails here
    sources = readme_python_blocks() + [p.read_text(encoding="utf-8")
                                        for p in sorted((ROOT / "demos").glob("*.py"))]
    imported = {alias.name for source in sources for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.module == "curlearn"
                for alias in node.names}
    assert sorted(curlearn.__all__) == sorted(imported)
