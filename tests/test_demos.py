"""Every narrative demo runs to completion as a script, writing nothing into the checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_0(tmp_path, demo):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # one BLAS thread, as perfbench and tools/bit_identity.py pin it: with a second thread a
    # demo slows sharply when the other core is busy
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # demo 05 writes its run and report under the out_dir it is given
    proc = subprocess.run(
        [sys.executable, str(demo), str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
