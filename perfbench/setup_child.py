"""Time one workload's set-up in a fresh interpreter.

Usage: python3 setup_child.py WORKLOAD SEED SIZE

Prints one JSON line: the seconds from before ``import sparsebnn`` (or
``import sparsebnn.cli`` for cli-pipeline) until the workload's inputs are
ready, and a digest of those inputs.
"""

import csv  # noqa: F401  stdlib modules the benchmark needs load before timing
import hashlib  # noqa: F401
import json
import subprocess  # noqa: F401
import sys
import threading  # noqa: F401
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main():
    name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    t0 = time.perf_counter()
    if name == "cli-pipeline":
        import sparsebnn.cli  # noqa: F401
    import workloads

    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(seed, size)
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "inputs_digest": wl.inputs_digest(inputs)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
