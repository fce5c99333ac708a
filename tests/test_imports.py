"""Importing the library loads no process machinery.

The pool in :func:`repro.bench.parallel.parallel_map` and the ``git``
call in :func:`repro.loadgen.report.git_revision` import what they need
when they run, so a serving process never pays the resident memory of
``multiprocessing``, ``concurrent.futures.process`` or ``subprocess``.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_PROBE = """
import sys
import repro, repro.serving, repro.loadgen, repro.bench.runner
heavy = ("multiprocessing", "concurrent.futures.process", "subprocess")
print(",".join(name for name in heavy if name in sys.modules))
"""


def test_import_loads_no_process_modules():
    # The child imports the same checkout this test process did.
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == ""
