"""The public API of ``gpd``: names resolved on first use from their modules."""

import ast
import importlib
import os
import re
import subprocess
import sys

import pytest

import gpd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_public_name_is_its_home_modules_object():
    for name in gpd.__all__:
        home = importlib.import_module(f"gpd.{gpd._HOME[name]}")
        assert getattr(gpd, name) is getattr(home, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from gpd import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(gpd.__all__)
    for name in gpd.__all__:
        assert namespace[name] is getattr(gpd, name)


def test_dir_lists_the_public_names():
    assert set(gpd.__all__) <= set(dir(gpd))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(gpd, "no_such_name")
    assert not hasattr(gpd, "no_such_name")


def test_import_gpd_loads_no_submodule():
    probe = "import sys, gpd\nprint(sorted(m for m in sys.modules if m.startswith('gpd.')))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_readme_quick_start_runs_as_written():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("## Library quick start", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(snippet, namespace)
    # each line commented with a value evaluates to it
    checked = 0
    for line in snippet.splitlines():
        code, _, comment = line.partition("#")
        if comment and code.strip():
            want = comment.split(":")[0].strip()
            assert eval(code, namespace) == ast.literal_eval(want), line
            checked += 1
    assert checked == 5
