#!/usr/bin/env python3
"""Checks that an interrupted nettag_train run resumes bit-identically at
another thread width.

    python3 tests/check_train_resume.py NETTAG_TRAIN

Runs the scenario twice: on an in-memory corpus, and on a small sharded
corpus built with --build-corpus. Each time it trains an uninterrupted
reference at NETTAG_THREADS=2, halts a second run with --halt-after at
NETTAG_THREADS=4, and resumes it at NETTAG_THREADS=1 with the command the
halted run printed. The resumed run's .exprllm.bin, .tagformer.bin and
.trainer.bin must equal the reference's byte for byte, and resuming the
finished run once more must leave all three unchanged. Last, a run halted on
a sharded corpus that is then deleted and rebuilt at the same path with
another seed must refuse --resume with exit 2, naming the manifest checksum
the run recorded and the rebuilt corpus's. Uses only the Python standard
library.
"""

import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile

FILES = (".exprllm.bin", ".tagformer.bin", ".trainer.bin")
TRAIN_FLAGS = ["--tiny", "--no-align", "--expr-steps", "16", "--tag-steps",
               "12"]
# 16 expr + 12 tag steps: halting after 24 lands mid tag phase in memory,
# and mid tag phase of the second shard of the two-shard corpus (each shard
# runs 8 expr + 6 tag steps).
HALT_AFTER = "24"
TIMEOUT_S = 300


def run(cmd, threads, failures, what):
    env = dict(os.environ, NETTAG_THREADS=str(threads))
    try:
        proc = subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        failures.append("%s: still running after %ds" % (what, TIMEOUT_S))
        return None
    if proc.returncode != 0:
        failures.append("%s: exit %d, stderr %r" % (
            what, proc.returncode, proc.stderr.strip()[-400:]))
        return None
    return proc


def read_files(prefix):
    out = {}
    for suffix in FILES:
        try:
            with open(prefix + suffix, "rb") as f:
                out[suffix] = f.read()
        except OSError:
            out[suffix] = None
    return out


def compare(got, want, what, failures):
    for suffix in FILES:
        if got[suffix] is None:
            failures.append("%s: %s missing" % (what, suffix))
        elif got[suffix] != want[suffix]:
            failures.append("%s: %s differs from the width-2 reference"
                            % (what, suffix))


def scenario(train, name, tmp, extra, failures):
    base = os.path.join(tmp, name + "-base")
    halted = os.path.join(tmp, name + "-halted")
    if not run([train, "--out", base] + extra + TRAIN_FLAGS, 2, failures,
               name + " reference at width 2"):
        return
    reference = read_files(base)
    proc = run([train, "--out", halted, "--halt-after", HALT_AFTER] + extra +
               TRAIN_FLAGS, 4, failures, name + " halted run at width 4")
    if not proc:
        return
    hint = re.search(r"resume with: (.+)", proc.stderr)
    if not hint:
        failures.append("%s: halted run printed no resume command: %r"
                        % (name, proc.stderr.strip()[-400:]))
        return
    resume = shlex.split(hint.group(1))
    if resume[1:] != ["--resume", halted]:
        failures.append("%s: halted run printed %r" % (name, hint.group(1)))
        return
    resume[0] = train
    if not run(resume, 1, failures, name + " resume at width 1"):
        return
    resumed = read_files(halted)
    compare(resumed, reference, name + " resumed at width 1", failures)
    if not run(resume, 4, failures, name + " resume of the finished run"):
        return
    if read_files(halted) != resumed:
        failures.append("%s: resuming the finished run changed its files"
                        % name)


def manifest_checksum(corpus):
    with open(os.path.join(corpus, "corpus.manifest")) as f:
        return f.read().split()[-1]


def rebuilt_corpus(train, tmp, failures):
    corpus = os.path.join(tmp, "rebuilt")
    prefix = os.path.join(tmp, "rebuilt-run")
    build = [train, "--build-corpus", corpus, "--designs", "1",
             "--shard-designs", "2", "--no-align", "--seed"]
    if not run(build + ["1"], 2, failures, "first corpus build"):
        return
    recorded = manifest_checksum(corpus)
    if not run([train, "--out", prefix, "--corpus", corpus, "--halt-after",
                "3"] + TRAIN_FLAGS, 2, failures, "run on the first corpus"):
        return
    shutil.rmtree(corpus)
    if not run(build + ["2"], 2, failures, "rebuild with another seed"):
        return
    rebuilt = manifest_checksum(corpus)
    if rebuilt == recorded:
        failures.append("rebuilt corpus kept manifest checksum %s" % rebuilt)
        return
    proc = subprocess.run([train, "--resume", prefix], stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 2:
        failures.append("resume on the rebuilt corpus: exit %d, want 2"
                        % proc.returncode)
    for checksum in (recorded, rebuilt):
        if checksum not in proc.stderr:
            failures.append("resume on the rebuilt corpus does not name "
                            "checksum %s: %r" % (checksum,
                                                 proc.stderr.strip()[-400:]))


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[3].strip())
        return 2
    train = sys.argv[1]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        scenario(train, "in-memory", tmp, [], failures)
        corpus = os.path.join(tmp, "corpus")
        if run([train, "--build-corpus", corpus, "--designs", "1",
                "--shard-designs", "2", "--flat", "--no-align"], 2, failures,
               "corpus build"):
            scenario(train, "sharded", tmp, ["--corpus", corpus], failures)
        rebuilt_corpus(train, tmp, failures)
    for failure in failures:
        print("FAIL " + failure)
    if not failures:
        print("nettag_train resumes bit-identically across widths and "
              "refuses a rebuilt corpus")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
