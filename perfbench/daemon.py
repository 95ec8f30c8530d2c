"""``repro serve`` with the benchmark's layer spans installed.

Usage::

    python3 perfbench/daemon.py SPANS_OUT [repro serve options...]

Runs the same daemon as ``python -m repro serve`` after wrapping its layer
boundaries (``layers.install``).  On the clean SIGTERM shutdown it writes
every span it kept, as a JSON list in the ``repro.obs`` record shape, to
``SPANS_OUT``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.cli import main

import layers

if __name__ == "__main__":
    spans_out = Path(sys.argv[1])
    tracer = layers.new_tracer()
    layers.install(tracer, server=True)
    code = main(["serve", *sys.argv[2:]])
    spans_out.write_text(json.dumps(tracer.finished()))
    sys.exit(code)
