"""The benchmark's hooks still resolve.

``perfbench/tracer.py`` wraps the program's layer entry points by name
from outside (``cls.__dict__[attr]`` for methods, module attributes for
functions).  A refactor that renames or moves one of them breaks the
benchmark run, not the program; this test installs every hook in a fresh
interpreter so such a rename fails here first.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL_ALL = """
import tracer

tracer.install_kernel_and_engines()
tracer.install_server()
tracer.install_navigator()
print("hooks installed")
"""


def test_every_benchmark_hook_installs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
    )
    done = subprocess.run(
        [sys.executable, "-c", INSTALL_ALL],
        cwd=str(ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "hooks installed"
