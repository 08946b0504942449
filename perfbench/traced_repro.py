"""``python -m repro`` with the benchmark's layer wrappers installed.

The benchmark starts this script in place of ``python -m repro`` for traced
runs.  It measures the time from process spawn (``$PERFBENCH_SPAWNED_AT``,
the ``time.time()`` the benchmark took just before starting it) until
``repro.cli`` is imported, installs the wrappers of :mod:`layers`, then runs
the command.  Untraced runs never load this file.
"""

import os
import sys
import time

import repro.cli

import_s = time.time() - float(os.environ["PERFBENCH_SPAWNED_AT"])

import layers  # noqa: E402  (imported after the measured import)

layers.install(import_s=import_s)
sys.exit(repro.cli.main(sys.argv[1:]))
