"""The demos run end to end on the package as it stands.

Each demo runs as a script, as its docstring says, with its reports sent
to a temporary directory through the ``BDIE_OUT`` override.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from bdie import reports

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo, report", [("walkthrough", "walkthrough.json"),
                                          ("convergence_study", "converge_point-source.csv")])
def test_demo_runs_and_writes_its_report(tmp_path, demo, report):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env[reports.ENV_OUTPUT_DIR] = str(tmp_path / "out")
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / report).is_file()
