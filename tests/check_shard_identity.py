#!/usr/bin/env python3
"""Checks that a shard file replaced by another intact shard is caught.

    python3 tests/check_shard_identity.py NETTAG_TRAIN NETTAG_LINT

Builds a small sharded corpus with `nettag_train --build-corpus` (5 designs
per family, 2 per shard), confirms `nettag_lint --shards` passes it, then
copies shard_00001.nls over shard_00000.nls. The copy is intact, so only the
manifest row's checksum can tell: `nettag_lint --shards` must then exit 1
with an IO001 finding on shard_00000.nls that names the manifest line and
both checksums. Uses only the Python standard library.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile

TIMEOUT_S = 300


def run(cmd):
    return subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=TIMEOUT_S)


def trailing_checksum(path):
    with open(path, "rb") as f:
        last = f.read().rstrip(b"\n").rsplit(b"\n", 1)[-1].decode()
    if not last.startswith("checksum "):
        raise SystemExit("%s: no checksum line" % path)
    return last[len("checksum "):]


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    train, lint = sys.argv[1], sys.argv[2]
    failures = []
    with tempfile.TemporaryDirectory(prefix="nettag_shard_identity_") as tmp:
        corpus = os.path.join(tmp, "corpus")
        proc = run([train, "--build-corpus", corpus, "--designs", "5",
                    "--shard-designs", "2"])
        if proc.returncode != 0:
            print("build-corpus: exit %d, stderr %r" % (
                proc.returncode, proc.stderr.strip()[-400:]), file=sys.stderr)
            return 1
        proc = run([lint, "--shards", corpus])
        if proc.returncode != 0:
            failures.append("intact corpus: exit %d, output %r" % (
                proc.returncode, (proc.stdout + proc.stderr)[-400:]))

        shard0 = os.path.join(corpus, "shard_00000.nls")
        shard1 = os.path.join(corpus, "shard_00001.nls")
        crc0, crc1 = trailing_checksum(shard0), trailing_checksum(shard1)
        with open(os.path.join(corpus, "corpus.manifest")) as f:
            row = next(i for i, line in enumerate(f, 1)
                       if line.startswith("shard0 "))
        shutil.copyfile(shard1, shard0)
        proc = run([lint, "--shards", corpus])
        out = proc.stdout + proc.stderr
        if proc.returncode != 1:
            failures.append("swapped shard: exit %d, want 1; output %r" % (
                proc.returncode, out[-400:]))
        finding = next((line for line in out.splitlines()
                        if "IO001" in line and "shard_00000.nls" in line), None)
        if finding is None:
            failures.append("swapped shard: no IO001 finding on "
                            "shard_00000.nls in %r" % out[-600:])
        else:
            for want in ("checksum %s differs from %s" % (crc1, crc0),
                         "corpus.manifest: line %d, key 'shard0'" % row):
                if want not in finding:
                    failures.append("finding %r lacks %r" % (finding, want))
        if not re.search(r"\b[1-9]\d* error", out):
            failures.append("swapped shard: summary counts no error in %r"
                            % out[-400:])

    for failure in failures:
        print("FAIL: " + failure, file=sys.stderr)
    if not failures:
        print("ok: a swapped shard is reported against its manifest row")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
