#!/usr/bin/env python3
"""Checks that an interrupted nettag_train run resumes bit-identically, after
a signal or a deterministic halt, at the same or another thread width.

    python3 tests/check_train_resume.py NETTAG_TRAIN

In memory, at 300 expr + 60 tag steps, it trains an uninterrupted reference
at NETTAG_THREADS=2, which must leave exactly PREFIX.ckpt and PREFIX.run,
then interrupts other runs and resumes each:
  * SIGTERM once the first --checkpoint-every 20 checkpoint exists: the run
    must exit 0, print "interrupted (checkpoint saved)" and leave a .ckpt;
    --resume at width 2;
  * --halt-after 317 at width 2, --resume at width 2;
  * --halt-after 317 at width 4, --resume at width 1 with the command the
    halted run printed;
  * SIGKILL of a --checkpoint-every 1 run at 8 seeded points across the
    duration of an uninterrupted one, so that some kills land inside a
    save, and once as soon as its .run manifest exists, two at a time and
    beside the cases above: where the killed run left a .ckpt, --resume at
    width 2 must exit 0 and leave exactly PREFIX.ckpt and PREFIX.run (its
    saves remove a temp file the kill left), and otherwise exit 2. It
    prints how many kills landed before the first save, between saves and
    inside one (a temp file left beside the .ckpt).
Each resumed run's .ckpt must equal the reference's byte for byte, and
resuming the finished reference must leave it unchanged. On a small sharded
corpus built with --build-corpus, a width-2 reference must leave exactly
PREFIX.ckpt and PREFIX.run, a run halted at width 4 and resumed at width 1
must equal it the same way, and resuming it again must change nothing.
Last, a run halted on a sharded corpus that is then deleted and rebuilt at
the same path with another seed must refuse --resume with exit 2, naming the
manifest checksum the run recorded and the rebuilt corpus's. Uses only the
Python standard library.
"""

import concurrent.futures
import os
import random
import re
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

FILES = (".ckpt",)
# 300 expr + 60 tag steps: halting after 317 lands mid tag phase.
MEMORY_FLAGS = ["--tiny", "--no-align", "--expr-steps", "300", "--tag-steps",
                "60"]
MEMORY_HALT = "317"
# 16 expr + 12 tag steps: halting after 24 lands mid tag phase of the second
# shard of the two-shard corpus (each shard runs 8 expr + 6 tag steps).
SHARDED_FLAGS = ["--tiny", "--no-align", "--expr-steps", "16", "--tag-steps",
                 "12"]
SHARDED_HALT = "24"
# SIGKILLs of a --checkpoint-every 1 run, at seeded fractions of the
# duration of an uninterrupted one.
KILLS = 8
KILL_SEED = 1132
POLL_S = 0.02
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


def halt_and_resume(train, prefix, flags, halt, widths, reference, failures):
    """Halts a run with --halt-after at widths[0] and resumes it at widths[1]
    with the command it printed. Returns that command, or None on failure."""
    name = os.path.basename(prefix)
    proc = run([train, "--out", prefix, "--halt-after", halt] + flags,
               widths[0], failures, "%s halted at width %d" % (name, widths[0]))
    if not proc:
        return None
    if not os.path.isfile(prefix + ".ckpt"):
        failures.append("%s: the halted run left no .ckpt" % name)
        return None
    hint = re.search(r"resume with: (.+)", proc.stderr)
    if not hint:
        failures.append("%s: halted run printed no resume command: %r"
                        % (name, proc.stderr.strip()[-400:]))
        return None
    resume = shlex.split(hint.group(1))
    if resume[1:] != ["--resume", prefix]:
        failures.append("%s: halted run printed %r" % (name, hint.group(1)))
        return None
    resume[0] = train
    what = "%s resumed at width %d" % (name, widths[1])
    if not run(resume, widths[1], failures, what):
        return None
    compare(read_files(prefix), reference, what, failures)
    return resume


def sigterm_and_resume(train, prefix, reference, failures):
    """SIGTERMs a width-2 run once its first periodic checkpoint exists, then
    resumes it at width 2."""
    cmd = [train, "--out", prefix, "--checkpoint-every", "20"] + MEMORY_FLAGS
    env = dict(os.environ, NETTAG_THREADS="2")
    with open(prefix + ".err", "w+") as err:
        proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        deadline = time.monotonic() + 60
        while (not os.path.isfile(prefix + ".ckpt") and
               proc.poll() is None and time.monotonic() < deadline):
            time.sleep(POLL_S)
        if proc.poll() is not None or time.monotonic() >= deadline:
            proc.kill()
            proc.wait()
            failures.append("SIGTERM run: no checkpoint while it ran (exit %s)"
                            % proc.returncode)
            return
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            failures.append("SIGTERM run: still running %ds after the signal"
                            % TIMEOUT_S)
            return
        err.seek(0)
        stderr = err.read()
    if code != 0:
        failures.append("SIGTERM run: exit %d, want 0" % code)
    if "interrupted (checkpoint saved)" not in stderr:
        failures.append("SIGTERM run: no 'interrupted (checkpoint saved)': %r"
                        % stderr.strip()[-400:])
    if not os.path.isfile(prefix + ".ckpt"):
        failures.append("SIGTERM run: no .ckpt")
    if code != 0:
        return
    if run([train, "--resume", prefix], 2, failures,
           "SIGTERM run resumed at width 2"):
        compare(read_files(prefix), reference,
                "SIGTERM run resumed at width 2", failures)


def one_file(prefix, what, failures):
    """A finished run leaves exactly PREFIX.ckpt and PREFIX.run."""
    name = os.path.basename(prefix)
    left = sorted(f for f in os.listdir(os.path.dirname(prefix))
                  if f.startswith(name + "."))
    if left != [name + ".ckpt", name + ".run"]:
        failures.append("%s left %s, want %s.ckpt and %s.run"
                        % (what, left, name, name))


def kill_and_resume(train, prefix, delay, reference):
    """SIGKILLs a --checkpoint-every 1 run after `delay` seconds, or as soon
    as its .run manifest exists when `delay` is None, and resumes it at
    width 2. Returns the failures and where the kill landed."""
    env = dict(os.environ, NETTAG_THREADS="2")
    what = ("run SIGKILLed once its .run existed" if delay is None else
            "run SIGKILLed at %.3fs" % delay)
    proc = subprocess.Popen(
        [train, "--out", prefix, "--checkpoint-every", "1"] + MEMORY_FLAGS,
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    if delay is None:
        deadline = time.monotonic() + TIMEOUT_S
        while (not os.path.isfile(prefix + ".run") and proc.poll() is None
               and time.monotonic() < deadline):
            time.sleep(0.001)
    else:
        time.sleep(delay)
    proc.kill()
    proc.wait()
    name = os.path.basename(prefix)
    saving = any(f.startswith(name + ".ckpt.tmp.")
                 for f in os.listdir(os.path.dirname(prefix)))
    saved = os.path.isfile(prefix + ".ckpt")
    landed = ("inside a save" if saving else
              "between saves" if saved else "before the first save")
    resumed = subprocess.run([train, "--resume", prefix], env=env,
                             stdin=subprocess.DEVNULL, capture_output=True,
                             text=True, timeout=TIMEOUT_S)
    failures = []
    if not saved:
        if resumed.returncode != 2:
            failures.append("%s, no .ckpt: --resume exit %d, want 2"
                            % (what, resumed.returncode))
    elif resumed.returncode != 0:
        failures.append("%s: --resume exit %d, stderr %r" % (
            what, resumed.returncode, resumed.stderr.strip()[-400:]))
    else:
        compare(read_files(prefix), reference, what + ", resumed", failures)
        # The resumed run's saves remove the killed writer's temp file.
        one_file(prefix, what + ", resumed", failures)
    return failures, landed


def sigkill_and_resume(train, tmp, reference, failures):
    """SIGKILLs --checkpoint-every 1 runs at seeded points, and one as soon
    as its .run exists, two at a time, and resumes each: a .ckpt left behind
    must resume to the reference bytes, and no .ckpt must refuse --resume
    with exit 2."""
    timed = os.path.join(tmp, "every")
    start = time.monotonic()
    if not run([train, "--out", timed, "--checkpoint-every", "1"] +
               MEMORY_FLAGS, 2, failures, "--checkpoint-every 1 run"):
        return
    duration = time.monotonic() - start
    compare(read_files(timed), reference, "--checkpoint-every 1 run",
            failures)
    rng = random.Random(KILL_SEED)
    # One kill per equal slice of the run, at a seeded point inside it.
    delays = [None] + [duration * (k + rng.random()) / KILLS
                       for k in range(KILLS)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(
            lambda k: kill_and_resume(train,
                                      os.path.join(tmp, "sigkill%d" % k),
                                      delays[k], reference),
            range(len(delays))))
    landed = {}
    for found, where in results:
        failures.extend(found)
        landed[where] = landed.get(where, 0) + 1
    print("SIGKILLs: " + ", ".join("%d %s" % (n, where)
                                   for where, n in sorted(landed.items())))


def in_memory(train, tmp, failures):
    base = os.path.join(tmp, "base")
    if not run([train, "--out", base] + MEMORY_FLAGS, 2, failures,
               "in-memory reference at width 2"):
        return
    one_file(base, "the in-memory reference", failures)
    reference = read_files(base)
    # The SIGKILLs run beside the cooperative interruptions below.
    killed = []
    kills = threading.Thread(target=sigkill_and_resume,
                             args=(train, tmp, reference, killed))
    kills.start()
    sigterm_and_resume(train, os.path.join(tmp, "killed"), reference,
                       failures)
    halt_and_resume(train, os.path.join(tmp, "halted"), MEMORY_FLAGS,
                    MEMORY_HALT, (2, 2), reference, failures)
    halt_and_resume(train, os.path.join(tmp, "crossed"), MEMORY_FLAGS,
                    MEMORY_HALT, (4, 1), reference, failures)
    if (run([train, "--resume", base], 2, failures,
            "resume of the finished reference") and
            read_files(base) != reference):
        failures.append("resuming the finished reference changed its files")
    kills.join()
    failures.extend(killed)


def sharded(train, tmp, failures):
    corpus = os.path.join(tmp, "corpus")
    if not run([train, "--build-corpus", corpus, "--designs", "1",
                "--shard-designs", "2", "--flat", "--no-align"], 2, failures,
               "corpus build"):
        return
    flags = ["--corpus", corpus] + SHARDED_FLAGS
    base = os.path.join(tmp, "sharded-base")
    if not run([train, "--out", base] + flags, 2, failures,
               "sharded reference at width 2"):
        return
    one_file(base, "the sharded reference", failures)
    reference = read_files(base)
    halted = os.path.join(tmp, "sharded-halted")
    resume = halt_and_resume(train, halted, flags, SHARDED_HALT, (4, 1),
                             reference, failures)
    if not resume:
        return
    resumed = read_files(halted)
    if (run(resume, 4, failures, "resume of the finished sharded run") and
            read_files(halted) != resumed):
        failures.append("resuming the finished sharded run changed its files")


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
                "3"] + SHARDED_FLAGS, 2, failures, "run on the first corpus"):
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
        in_memory(train, tmp, failures)
        sharded(train, tmp, failures)
        rebuilt_corpus(train, tmp, failures)
    for failure in failures:
        print("FAIL " + failure)
    if not failures:
        print("nettag_train resumes bit-identically after SIGTERM, SIGKILL "
              "and halts, across widths, and refuses a rebuilt corpus")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
