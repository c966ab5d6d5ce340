import os
import subprocess
import sys
from pathlib import Path

import wdmatch


def test_root_exports_the_documented_api():
    # Everything else is imported from its own module, so internals can move
    # without breaking a caller of the package root.
    assert sorted(wdmatch.__all__) == [
        "ConfigError", "ConvergenceError", "HyperParams", "InfeasibleProblemError",
        "ParseError", "TransferModel", "ValidationError", "classify_target", "fit",
        "generate_synthetic_pair",
    ]
    assert all(hasattr(wdmatch, name) for name in wdmatch.__all__)
    assert isinstance(wdmatch.__version__, str)


def test_cli_import_loads_no_heavy_modules():
    # A command's start-up time is mostly this import: numpy's random module
    # and the process-pool machinery load only where a command uses them.
    # The baseline is numpy's own import, which loads numpy.random on 1.x.
    script = ("import sys, numpy; before = set(sys.modules); import wdmatch.cli; "
              "print(*sorted(set(sys.modules) - before))")
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    added = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                           text=True, check=True).stdout.split()
    assert "wdmatch.cli" in added
    assert [name for name in added
            if name.startswith(("numpy.random", "concurrent", "multiprocessing"))] == []
