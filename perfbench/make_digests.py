"""Write cli_digests.json: the sha256 of stdout for every argv cli-cold can run.

The cli-cold gate compares each child's stdout with these digests, so they
pin the byte-identical CLI output. Regenerate them only when a change to the
CLI output is intended, and say so in the change:

    PYTHONPATH=src python3 perfbench/make_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys

import workloads


def main() -> int:
    digests = {}
    for argv in workloads.all_cli_argvs():
        code, stdout = workloads.run_cli_child(argv)
        if code != 0:
            print(f"relqosc {' '.join(argv)} exited with code {code}", file=sys.stderr)
            return 1
        digests[" ".join(argv)] = hashlib.sha256(stdout).hexdigest()
    workloads.DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {workloads.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
