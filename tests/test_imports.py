"""Importing vidmotion loads no module beyond what ``import numpy`` loads and
the standard modules vidmotion's own top-level imports name. The benchmark
times set-up in fresh interpreters that import it, so a module that only the
step worker needs (``signal``, ``fcntl``) is imported where the worker
starts."""
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# named by vidmotion's top-level imports but not loaded by numpy (3.11's
# json, hashlib and argparse pull in the rest)
NAMED = {"__future__", "argparse", "copy", "dataclasses", "gc", "gettext",
         "hashlib", "_hashlib", "_blake2", "json", "json.decoder",
         "json.encoder", "json.scanner", "_json"}


def loaded(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_vidmotion_loads_no_module_beyond_numpy_and_its_own_imports():
    numpy = loaded("import numpy")
    ours = loaded("from vidmotion import *")  # every submodule, cli included
    assert "vidmotion.cli" in ours and "vidmotion.pipeline" in ours
    extra = {m for m in ours - numpy if m.split(".")[0] != "vidmotion"}
    assert extra <= NAMED, sorted(extra - NAMED)
    assert not {"signal", "fcntl"} & ours
