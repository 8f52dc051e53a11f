#!/usr/bin/env python3
"""Checks that a streamed corpus build survives SIGKILL and resumes
bit-identically, at any pool width and under a small address-space limit.

    python3 tests/check_corpus_stream.py NETTAG_TRAIN NETTAG_LINT

At 5 designs per family and 2 per shard (10 shards):
  * a reference corpus is built at the default pool width (NETTAG_THREADS
    unset), and another at NETTAG_THREADS=1, whose files must equal the
    reference's byte for byte, with the same file count;
  * under a 256 MiB address-space limit (RLIMIT_AS, as `ulimit -v 262144`),
    a build is sent SIGKILL once shard_00002.nls exists (polled every 50 ms),
    after which corpus.manifest must exist;
  * rerunning the same command under the same limit resumes it, after which
    every file must equal the reference's and the file counts must match;
  * `nettag_lint --shards DIR --json` must exit 0 on the resumed corpus;
  * `nettag_train --out PREFIX --corpus DIR --tiny --no-align --expr-steps 6
    --tag-steps 6` at NETTAG_THREADS=2 must leave PREFIX.ckpt.
Uses only the Python standard library.
"""

import os
import resource
import signal
import subprocess
import sys
import tempfile
import time

SHAPE = ["--designs", "5", "--shard-designs", "2"]
ADDRESS_SPACE = 256 << 20  # bytes, as `ulimit -v 262144`
POLL_S = 0.05
KILL_WAIT_S = 30  # 600 polls
TIMEOUT_S = 300


def env_at(threads):
    """The environment with NETTAG_THREADS set to `threads`, or unset for
    the default width when `threads` is None."""
    env = dict(os.environ)
    env.pop("NETTAG_THREADS", None)
    if threads is not None:
        env["NETTAG_THREADS"] = str(threads)
    return env


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run(cmd, threads, failures, what, limited=False):
    try:
        proc = subprocess.run(
            cmd, env=env_at(threads), stdin=subprocess.DEVNULL,
            capture_output=True, text=True, timeout=TIMEOUT_S,
            preexec_fn=limit_address_space if limited else None)
    except subprocess.TimeoutExpired:
        failures.append("%s: still running after %ds" % (what, TIMEOUT_S))
        return False
    if proc.returncode != 0:
        failures.append("%s: exit %d, stderr %r" % (
            what, proc.returncode, proc.stderr.strip()[-400:]))
        return False
    return True


def read_dir(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as f:
            out[name] = f.read()
    return out


def compare(reference, path, what, failures):
    """Every reference file must exist in `path` with the same bytes, and the
    two directories must hold as many files."""
    got = read_dir(path)
    for name, data in reference.items():
        if name not in got:
            failures.append("%s: %s missing" % (what, name))
        elif got[name] != data:
            failures.append("%s: %s differs from the reference" % (what, name))
    if len(got) != len(reference):
        failures.append("%s: %d files, the reference has %d"
                        % (what, len(got), len(reference)))


def kill_mid_corpus(train, corpus, failures):
    """Starts a build under the address-space limit and sends it SIGKILL
    once shard_00002.nls exists; it must have written the manifest."""
    shard = os.path.join(corpus, "shard_00002.nls")
    proc = subprocess.Popen(
        [train, "--build-corpus", corpus] + SHAPE, env=env_at(None),
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, preexec_fn=limit_address_space)
    deadline = time.monotonic() + KILL_WAIT_S
    while (not os.path.exists(shard) and proc.poll() is None and
           time.monotonic() < deadline):
        time.sleep(POLL_S)
    proc.send_signal(signal.SIGKILL)  # a no-op if it has already exited
    proc.wait()
    if not os.path.isfile(os.path.join(corpus, "corpus.manifest")):
        failures.append("killed build: no corpus.manifest")


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[3].strip(), file=sys.stderr)
        return 2
    train, lint = sys.argv[1], sys.argv[2]
    failures = []
    with tempfile.TemporaryDirectory(prefix="nettag_corpus_stream_") as tmp:
        ref = os.path.join(tmp, "ref-corpus")
        if not run([train, "--build-corpus", ref] + SHAPE, None, failures,
                   "reference build at the default width"):
            return report(failures)
        reference = read_dir(ref)

        ref_w1 = os.path.join(tmp, "ref-corpus-w1")
        if run([train, "--build-corpus", ref_w1] + SHAPE, 1, failures,
               "reference build at width 1"):
            compare(reference, ref_w1, "width-1 build", failures)

        stream = os.path.join(tmp, "stream-corpus")
        kill_mid_corpus(train, stream, failures)
        if run([train, "--build-corpus", stream] + SHAPE, None, failures,
               "resume after SIGKILL", limited=True):
            compare(reference, stream, "resumed build", failures)
            run([lint, "--shards", stream, "--json"], None, failures,
                "nettag_lint --shards --json")
            prefix = os.path.join(tmp, "streamed")
            if run([train, "--out", prefix, "--corpus", stream, "--tiny",
                    "--no-align", "--expr-steps", "6", "--tag-steps", "6"], 2,
                   failures, "pretraining through the shard reader"):
                if not os.path.isfile(prefix + ".ckpt"):
                    failures.append("pretraining left no streamed.ckpt")
    return report(failures)


def report(failures):
    for failure in failures:
        print("FAIL " + failure)
    if not failures:
        print("a corpus build killed mid-corpus under a 256 MiB address-space "
              "limit resumes to the reference bytes at every width")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
