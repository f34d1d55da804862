"""Smoke test of the scripts in demos/: each runs in a fresh process and
prints exactly the text pinned here (SHA-256 of stdout).  Together they
exercise gate evaluation, simulation, delay insensitivity and PPA end to
end through the public package API."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncl3d

DEMOS = Path(__file__).resolve().parent.parent / "demos"

DEMO_STDOUT_SHA256 = {
    "fold_comparison.py": "22332eb113b04f894bec0d2a67005a4b03e5c2a265f8807f1afc94548895524c",
    "gate_walkthrough.py": "2a0c24bb2214ab0a5c86a600ff99d7d3fe0bbf879cbb79bb8b4a6d919e03689f",
    "multiplier_run.py": "d9fd0b420d6b21f95a9add35254965515390f1f5037bd9c4eb4287b2a5401636",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_output_is_pinned(tmp_path, name):
    # Run from an empty directory with the package's own root first on the
    # path, so the demo sees the code under test whatever the caller's cwd.
    env = dict(os.environ)
    pkg_root = str(Path(ncl3d.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True,
                         cwd=str(tmp_path), env=env)
    assert run.returncode == 0, run.stderr.decode()[-400:]
    assert hashlib.sha256(run.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]
