"""Import budget: a process that only simulates loads only the simulator.

Every CLI call, example, sweep worker and bench child starts a fresh
interpreter, so what the simulation path imports at module level is
paid on every start.  The figure drivers and networkx (used only by the
Fig. 1/16 renderer) stay out of it.  Each check runs in a fresh
``python`` so that modules the test process already imported cannot
hide an eager import.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro
from repro.cli import FIGURES

SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)


def _fresh_python(code: str):
    """Run ``code`` in a new interpreter; return its JSON stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_simulation_path_imports_no_driver_and_no_networkx():
    loaded = _fresh_python(
        "import json, sys\n"
        "import repro, repro.scenario, repro.exec, repro.fleet\n"
        "import repro.experiments.common, repro.cli\n"
        "repro.cli.build_parser()\n"
        "print(json.dumps(sorted(sys.modules)))\n")
    drivers = [name for name in loaded
               if name.startswith("repro.experiments.")
               and name != "repro.experiments.common"]
    assert drivers == []
    assert "networkx" not in loaded
    # The exporters and the post-mortem load on first use only.
    assert "repro.obs.export" not in loaded
    assert "repro.obs.postmortem" not in loaded


def test_every_figure_name_resolves_to_a_callable_main():
    resolved = _fresh_python(
        "import json\n"
        "from repro.cli import FIGURES, figure_main\n"
        "print(json.dumps({name: callable(figure_main(name))\n"
        "                  for name in FIGURES}))\n")
    assert resolved == {name: True for name in FIGURES}


def test_every_lazy_obs_name_resolves():
    import repro.obs

    for name in repro.obs.__all__:
        assert getattr(repro.obs, name) is not None
