"""Run the tests from a checkout without installing the package.

pyproject's pythonpath puts src on sys.path for this process; PYTHONPATH
carries it to the interpreters that the tests start (run_cli, the
module-loading probes, the byte-determinism check).
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
