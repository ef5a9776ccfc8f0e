"""scipy stays off the import path until a computation needs it.

Importing the package and running ``train``, ``prune``, ``importance``
and ``select`` must load no ``scipy`` module; only the gradient check
loads ``scipy.integrate``, at its first call.  Each check runs in a fresh
interpreter, because this test process has loaded scipy long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sparsebnn
from sparsebnn.cli import main

SRC = str(Path(sparsebnn.__file__).resolve().parents[1])

RUN_CLI = (
    "import sys\n"
    "from sparsebnn.cli import main\n"
    "assert main(sys.argv[1:]) == 0\n"
)
REPORT_SCIPY = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
)


def _fresh(code, *argv):
    """Run ``code`` in a fresh interpreter; return the scipy modules it loaded."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    proc = subprocess.run(
        [sys.executable, "-c", code + REPORT_SCIPY, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_importing_the_package_and_cli_loads_no_scipy():
    assert _fresh("import sparsebnn, sparsebnn.cli\n") == []


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--data", "sparse:n=120,d=5,seed=0",
                 "--epochs", "2", "--batch", "32", "--hidden", "4",
                 "--out", str(out)])
    assert code == 0
    return out / "model.ckpt"


@pytest.mark.parametrize("command", ["prune", "importance"])
def test_read_only_commands_load_no_scipy(command, checkpoint, tmp_path):
    out = tmp_path / f"{command}.csv"
    loaded = _fresh(RUN_CLI, command, "--checkpoint", str(checkpoint),
                    "--out", str(out))
    assert loaded == []
    assert out.exists()


def test_training_and_selection_load_no_scipy(checkpoint, tmp_path):
    loaded = _fresh(RUN_CLI, "train", "--data", "sparse:n=60,d=3,seed=0",
                    "--epochs", "1", "--hidden", "2", "--out", str(tmp_path))
    assert loaded == []
    assert (tmp_path / "model.ckpt").exists()
    out = tmp_path / "select.json"
    loaded = _fresh(RUN_CLI, "select", "--checkpoint", str(checkpoint),
                    "--quantile", "0.6", "--out", str(out))
    assert loaded == []
    assert out.exists()


def test_no_module_imports_scipy_special():
    sources = Path(sparsebnn.__file__).parent.glob("*.py")
    assert not [f.name for f in sources if "scipy.special" in f.read_text()]
