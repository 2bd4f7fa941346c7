import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# 02 calls laurent_inverse, rejection branch included; 03 drives simulate on
# linear, polynomial and good paths; 05 runs divergence_search and
# locality_probe at singular and invertible bases.
@pytest.mark.parametrize(
    "demo",
    [
        "02_simple_pole_paths.py",
        "03_growth_along_paths.py",
        "05_divergence_and_certificates.py",
    ],
)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
