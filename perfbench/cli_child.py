"""Run one ``sparsebnn`` command with the span tracer installed.

Usage: python3 cli_child.py TRACE_OUT.npz <sparsebnn arguments...>

Times ``import sparsebnn.cli`` in this fresh interpreter, runs the command
through ``sparsebnn.cli.main`` with every traced function wrapped, and
writes the spans and the import time to TRACE_OUT.npz when it ends.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = time.perf_counter()
import sparsebnn.cli  # noqa: E402
import_ms = (time.perf_counter() - t0) * 1e3

import numpy as np  # noqa: E402

import tracing  # noqa: E402


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    code = 1
    try:
        with tracer:
            code = sparsebnn.cli.main(argv)
    finally:
        np.savez(out, import_ms=import_ms, **tracer.spans())
    return code


if __name__ == "__main__":
    sys.exit(main())
