"""The bit-identity gate as a test: ``tools/bit_identity.py`` must exit 0.

On the stack that wrote ``tools/bit_identity.expected`` the tool compares
every digest with the file and exits 1 on a difference; on any other stack it
compares nothing and exits 0. It pins its BLAS threads itself.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bit_identity_tool_finds_no_difference():
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bit_identity.py")],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
