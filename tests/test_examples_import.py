"""Every example imports cleanly.

No tier-1 test runs the examples (several take a minute), so deleting
or renaming a ``repro`` name that an example still imports would go
unnoticed.  One fresh ``python`` imports each example as a module; the
examples' ``__main__`` guards keep their ``main()`` from running.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)
EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples")
    .glob("*.py"))

_IMPORT_EACH = """
import importlib.util, json, pathlib, sys, traceback
failures = {}
for path in map(pathlib.Path, sys.argv[1:]):
    spec = importlib.util.spec_from_file_location(
        "example_" + path.stem, path)
    try:
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
    except Exception:
        failures[path.name] = traceback.format_exc(limit=0).strip()
print(json.dumps(failures))
"""


def test_every_example_has_a_main_guard():
    assert EXAMPLES
    for path in EXAMPLES:
        assert 'if __name__ == "__main__":' in path.read_text(), path.name


def test_every_example_imports():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_EACH, *map(str, EXAMPLES)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {}
