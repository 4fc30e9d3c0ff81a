"""Each entry point loads only the spectreguard modules it runs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module,loaded", [
    ("spectreguard", []),
    ("spectreguard.channel", ["channel"]),
    ("spectreguard.ks", ["ks", "trace"]),
    ("spectreguard.threshold", ["ks", "profiles", "threshold", "trace"]),
    ("spectreguard.fleet", ["fleet", "ks", "profiles", "threshold", "trace"]),
    ("spectreguard.cli", ["cli", "ks", "profiles", "threshold", "trace"]),
])
def test_import_loads_only_what_the_module_runs(module, loaded):
    # A fresh interpreter: this test process has already imported the package.
    code = (f"import json, sys, {module}; "
            "print(json.dumps(sorted(k for k in sys.modules if k.startswith('spectreguard'))))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert json.loads(done.stdout) == ["spectreguard"] + [f"spectreguard.{m}" for m in loaded]


def test_import_leaves_numpy_random_unloaded():
    # numpy.random adds about 16 ms to start-up; it loads at the first draw
    code = ("import sys, spectreguard.channel, spectreguard.cli, spectreguard.fleet; "
            "print('numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "False\n"
