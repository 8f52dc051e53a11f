#!/usr/bin/env python3
"""Checks nettag_serve's flag limits end to end.

    python3 tests/check_serve_flags.py NETTAG_SERVE NETTAG_TRAIN

Trains a tiny checkpoint with NETTAG_TRAIN, then starts NETTAG_SERVE on it
as a socket daemon with one out-of-range count per case: each must exit 2
with a message naming the flag, before any server state is built. A removed
flag (--log) must exit 2 as unknown. Last, a daemon with --shards and
--queue-depth at their limits must start and shut down cleanly. Uses only
the Python standard library.
"""

import os
import subprocess
import sys
import tempfile
import time

MAX_SHARDS = 256
MAX_QUEUE_DEPTH = 4096
HUGE = str(1 << 40)
TIMEOUT_S = 60


def rejected(serve, base, flags, expect, failures):
    cmd = [serve] + base + flags
    try:
        proc = subprocess.run(cmd, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        failures.append("%s: still running after %ds" % (" ".join(flags),
                                                         TIMEOUT_S))
        return
    if proc.returncode != 2 or expect not in proc.stderr:
        failures.append("%s: exit %d, stderr %r (want exit 2 naming %r)"
                        % (" ".join(flags), proc.returncode,
                           proc.stderr.strip()[-300:], expect))


def serves_at_limits(serve, model, tmp, failures):
    sock = os.path.join(tmp, "limits.sock")
    with open(os.path.join(tmp, "daemon.err"), "w+") as err:
        daemon = subprocess.Popen(
            [serve, "--model", model, "--listen", "unix:" + sock,
             "--shards", str(MAX_SHARDS),
             "--queue-depth", str(MAX_QUEUE_DEPTH)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        try:
            deadline = time.time() + TIMEOUT_S
            while not os.path.exists(sock) and daemon.poll() is None:
                if time.time() > deadline:
                    break
                time.sleep(0.05)
            if not os.path.exists(sock):
                failures.append("limits: daemon never listened (exit %s)"
                                % daemon.poll())
                return
            client = subprocess.run(
                [serve, "--connect", "unix:" + sock],
                input='{"id":"s","op":"shutdown"}\n', capture_output=True,
                text=True, timeout=TIMEOUT_S)
            if '"status":"ok"' not in client.stdout:
                failures.append("limits: shutdown answered %r"
                                % client.stdout.strip())
            code = daemon.wait(timeout=TIMEOUT_S)
            if code != 0:
                failures.append("limits: daemon exited %d" % code)
        except subprocess.TimeoutExpired:
            failures.append("limits: daemon did not shut down")
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2].strip())
        return 2
    serve, train = sys.argv[1], sys.argv[2]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        model = os.path.join(tmp, "ckpt")
        trained = subprocess.run(
            [train, "--out", model, "--tiny", "--no-align", "--expr-steps",
             "12", "--tag-steps", "10"],
            capture_output=True, text=True, timeout=300)
        if trained.returncode != 0:
            print("nettag_train failed:\n" + trained.stderr)
            return 1
        base = ["--model", model, "--listen",
                "unix:" + os.path.join(tmp, "bad.sock")]
        for flag, limit in (("--queue-depth", MAX_QUEUE_DEPTH),
                            ("--shards", MAX_SHARDS)):
            for value in (HUGE, str(limit + 1), "0"):
                rejected(serve, base, [flag, value], flag, failures)
        rejected(serve, ["--model", model], ["--log", os.path.join(tmp, "l")],
                 "unknown flag --log", failures)
        serves_at_limits(serve, model, tmp, failures)
    for failure in failures:
        print("FAIL " + failure)
    if not failures:
        print("nettag_serve flag limits hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
