"""Importing the library loads no process machinery.

Every sweep and pipeline stage runs in the calling process, and the
``git`` call in :func:`repro.loadgen.report.git_revision` imports
``subprocess`` only when it runs.  So neither a serving process nor an
offline build pays the resident memory of ``multiprocessing``,
``concurrent.futures`` or ``subprocess``.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_PROBE = """
import sys
import repro, repro.serving, repro.loadgen, repro.bench.runner
import repro.pipeline, repro.core.dataset, repro.fleet, repro.onboard
heavy = ("multiprocessing", "concurrent.futures", "subprocess")
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
