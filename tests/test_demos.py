"""Each demo runs to completion and prints exactly the output it printed
when this check was written; a change that alters any seeded result shows
up here as a different digest."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "01_circuit_sampling.py": "a7dd4cb6b74e7d375f8608e39e8749c1e05d2472db0b4302d2b6b6b5c34183db",
    "02_planted_recovery.py": "57081f67d448b8994f981aac5f56e3d6744f5b83b6df8cf9978550ffdd2ee894",
    "03_wine_experiment.py": "8e036baf952d6e2e1e6d49b34fafc5d99d30168a507a4ccea2fc358d314dc130",
}


def test_every_demo_is_checked():
    assert sorted(p.name for p in (ROOT / "demos").glob("0*.py")) == sorted(STDOUT_SHA256)


# The wine demo fits linear SVMs through BLAS gemm, so it also runs under
# other OpenBLAS kernels than the one the host picks, and with a BLAS thread
# count the user set: its records must not depend on either.
@pytest.mark.parametrize(
    "name, variables",
    [pytest.param(name, {}, id=name) for name in sorted(STDOUT_SHA256)]
    + [
        pytest.param("03_wine_experiment.py", {"OPENBLAS_CORETYPE": coretype},
                     id=f"03_wine_experiment.py-{coretype}")
        for coretype in ("Haswell", "Nehalem")
    ]
    + [
        pytest.param("03_wine_experiment.py", {"OPENBLAS_NUM_THREADS": "2"},
                     id="03_wine_experiment.py-threads2"),
    ],
)
def test_demo_output_unchanged(name, variables):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **variables)
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[name]
