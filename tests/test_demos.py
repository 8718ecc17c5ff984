"""Each demo script runs to the end: a fresh interpreter per script, with
horokit imported from the source tree next to the tests and a temporary
working directory for the files a demo writes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import horokit

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_every_demo_is_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = os.path.dirname(os.path.dirname(horokit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
