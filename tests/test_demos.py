"""The demo scripts run to completion.

Demos 01, 03, 06 and 07 take a few seconds each; 02, 04 and 05 take
longer and are run by hand: ``PYTHONPATH=src python demos/<name>.py``.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", ["01_matrix_odes", "03_fourier_routes",
                                  "06_source_recovery",
                                  "07_injectivity_probe"])
def test_demo_exits_zero(name):
    path = os.pathsep.join([os.path.join(ROOT, "src"),
                            os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name + ".py")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
