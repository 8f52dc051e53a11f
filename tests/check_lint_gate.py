#!/usr/bin/env python3
"""Lint gate: a dataset generated by the real pipeline must lint clean.

    python3 tests/check_lint_gate.py NETTAG_LINT

In a temporary directory, `nettag_lint --generate lint-data --deep --json`
generates a small dataset and lints it in deep (semantic) mode, then
`nettag_lint lint-data --deep --json` re-lints the serialized netlists.
nettag_lint exits non-zero on any error-severity finding, so both must exit
0. Uses only the Python standard library.
"""

import os
import subprocess
import sys
import tempfile

COMMANDS = (["--generate", "lint-data", "--deep", "--json"],
            ["lint-data", "--deep", "--json"])


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2].strip())
        return 2
    lint = os.path.abspath(sys.argv[1])
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for args in COMMANDS:
            proc = subprocess.run([lint] + args, cwd=tmp, capture_output=True,
                                  text=True, timeout=300)
            if proc.returncode != 0:
                failures.append("nettag_lint %s: exit %d\n%s%s" % (
                    " ".join(args), proc.returncode, proc.stdout[-2000:],
                    proc.stderr[-400:]))
                break
    for failure in failures:
        print("FAIL " + failure)
    if not failures:
        print("the generated dataset and its serialized netlists lint clean")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
