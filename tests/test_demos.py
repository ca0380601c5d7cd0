"""The demo scripts run to completion.

Each demo runs as a subprocess, as ``PYTHONPATH=src python demos/<name>.py``
would.  Demos 01, 03, 06 and 07 take a few seconds each; 02, 04 and 05,
which exercise the forward clouds with the moment bound and the analytic
and self-consistent reversals, take about 7–11 s each.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", ["01_matrix_odes", "02_forward_clouds",
                                  "03_fourier_routes",
                                  "04_point_source_reversal",
                                  "05_selfconsistent_reversal",
                                  "06_source_recovery",
                                  "07_injectivity_probe"])
def test_demo_exits_zero(name):
    path = os.pathsep.join([os.path.join(ROOT, "src"),
                            os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name + ".py")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
