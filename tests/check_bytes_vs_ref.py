#!/usr/bin/env python3
"""Compares the bytes this checkout's tools write with a reference revision's.

    python3 tests/check_bytes_vs_ref.py --ref REV [--build DIR]
        [--expect-change ARTIFACT]... [--workdir DIR]

Builds `nettag_train` and `nettag_serve` of REV in a temporary `git worktree`
(removed afterwards) and brings this checkout's build tree DIR (default
`build/`) up to date, then produces each artifact below with both builds and
compares the files, byte for byte:

    train-memory   nettag_train --out P --tiny --no-align --seed 5
    train-corpus   --out P --tiny --seed 5 --expr-steps 40 --tag-steps 40,
                   aligned, from a 2-shard corpus with physical data built
                   with --build-corpus C --designs 1 --shard-designs 2
                   --seed 5, so the shards' real numbers reach training
    weights-memory nettag_serve --model P's responses, for P of
    weights-corpus   train-memory and train-corpus, to the embed_* lines of
                     tests/serve_smoke_requests.ndjson and a model_list
                     request, whose row carries the weights' CRC-32: equal
                     weights whatever the checkpoint's file format
    corpus-w1      --build-corpus C --designs 5 --shard-designs 2 at
    corpus-w2        NETTAG_THREADS 1, 2 and 4
    corpus-w4
    serve-w1       the ServeSmoke ctest's request lines
    serve-w4         (tests/serve_smoke_requests.ndjson), answered as it
                     answers them (a --tiny checkpoint, --reject-warnings,
                     stdin), with the `stats` response dropped, at
                     NETTAG_THREADS 1 and 4

Each runs under the default backend and again under NETTAG_SIMD=0, whose
artifact names end in `-simd0`. Prints `equal` or `differs` per artifact.
Exits 1 when an artifact differs that no --expect-change names (or one that
is named does not differ), and 2 on a usage or build error.

The worktree and the outputs live in a new temporary directory under
--workdir (default: the system's), removed at the end. It is not a ctest:
it builds a second tree, about a minute on 4 vCPUs. Uses only the Python
standard library, git and cmake.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

TESTS = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(TESTS, "serve_smoke_requests.ndjson")) as f:
    REQUESTS = f.read()
# The served-weights artifacts' requests: every embed_* line, then the
# model list.
WEIGHT_REQUESTS = "".join(
    line for line in REQUESTS.splitlines(keepends=True)
    if '"op":"embed_' in line) + '{"id":"list","op":"model_list"}\n'

# The response to request 8 carries timings.
STATS_ID = '"id":"8"'

TARGETS = ["nettag_train", "nettag_serve"]
ARTIFACTS = [name + backend for backend in ("", "-simd0")
             for name in ("train-memory", "train-corpus", "weights-memory",
                          "weights-corpus", "corpus-w1", "corpus-w2",
                          "corpus-w4", "serve-w1", "serve-w4")]


def run(cmd, cwd, env=None, stdin=None):
    """Runs cmd, returning its stdout; raises with its output on failure."""
    proc = subprocess.run(cmd, cwd=cwd, env=env, input=stdin,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s failed (exit %d) in %s:\n%s%s" % (
            " ".join(cmd), proc.returncode, cwd, proc.stdout, proc.stderr))
    return proc.stdout


def build(source, build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run(["cmake", "-S", source, "-B", build_dir], cwd=source)
    run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
         "--target"] + TARGETS, cwd=source)
    return os.path.join(build_dir, "tools")


def produce(tools, out, simd0):
    """Writes every artifact of one build under out/<artifact>/."""
    train = os.path.join(tools, "nettag_train")
    serve = os.path.join(tools, "nettag_serve")
    base = {k: v for k, v in os.environ.items()
            if k not in ("NETTAG_THREADS", "NETTAG_SIMD")}
    if simd0:
        base["NETTAG_SIMD"] = "0"
    suffix = "-simd0" if simd0 else ""

    def env(threads=None):
        e = dict(base)
        if threads is not None:
            e["NETTAG_THREADS"] = str(threads)
        return e

    def artifact(name):
        path = os.path.join(out, name + suffix)
        os.makedirs(path)
        return path

    # Paths are relative to each artifact's directory, so that files which
    # record them hold the same text for both builds.
    d = artifact("train-memory")
    run([train, "--out", "P", "--tiny", "--no-align", "--seed", "5"], d, env())

    d = artifact("train-corpus")
    run([train, "--build-corpus", "C", "--designs", "1", "--shard-designs",
         "2", "--seed", "5"], d, env())
    run([train, "--out", "P", "--corpus", "C", "--tiny", "--seed", "5",
         "--expr-steps", "40", "--tag-steps", "40"], d, env())

    for trained in ("memory", "corpus"):
        d = artifact("weights-" + trained)
        model = os.path.join("..", "train-%s%s" % (trained, suffix), "P")
        with open(os.path.join(d, "responses.ndjson"), "w") as f:
            f.write(run([serve, "--model", model, "--reject-warnings"], d,
                        env(), stdin=WEIGHT_REQUESTS))

    for w in (1, 2, 4):
        d = artifact("corpus-w%d" % w)
        run([train, "--build-corpus", "C", "--designs", "5",
             "--shard-designs", "2"], d, env(w))

    ckpt = os.path.join(out, "serve-ckpt" + suffix)  # an input, not compared
    os.makedirs(ckpt)
    run([train, "--out", "serve-ckpt", "--tiny", "--no-align", "--expr-steps",
         "12", "--tag-steps", "10"], ckpt, env())
    model = os.path.join("..", os.path.basename(ckpt), "serve-ckpt")
    for w in (1, 4):
        d = artifact("serve-w%d" % w)
        responses = run([serve, "--model", model, "--reject-warnings"], d,
                        env(w), stdin=REQUESTS)
        kept = [line for line in responses.splitlines(keepends=True)
                if STATS_ID not in line]
        with open(os.path.join(d, "responses.ndjson"), "w") as f:
            f.writelines(kept)


def files_under(root):
    found = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            found[os.path.relpath(path, root)] = path
    return found


def same_files(a, b):
    fa, fb = files_under(a), files_under(b)
    if sorted(fa) != sorted(fb):
        return False
    for rel, path in fa.items():
        with open(path, "rb") as x, open(fb[rel], "rb") as y:
            if x.read() != y.read():
                return False
    return True


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--ref", required=True, help="reference git revision")
    parser.add_argument("--build", default=None,
                        help="this checkout's build tree (default: build/)")
    parser.add_argument("--expect-change", action="append", default=[],
                        metavar="ARTIFACT",
                        help="an artifact expected to differ (repeatable)")
    parser.add_argument("--workdir", default=None,
                        help="parent directory for the worktree and outputs "
                             "(default: a new temporary directory)")
    args = parser.parse_args()

    unknown = sorted(set(args.expect_change) - set(ARTIFACTS))
    if unknown:
        print("check_bytes_vs_ref: no artifact named %s" % ", ".join(unknown),
              file=sys.stderr)
        return 2
    repo = run(["git", "rev-parse", "--show-toplevel"],
               cwd=os.path.dirname(os.path.abspath(__file__))).strip()
    build_dir = os.path.abspath(args.build or os.path.join(repo, "build"))
    try:
        rev = run(["git", "rev-parse", "--verify", args.ref + "^{commit}"],
                  cwd=repo).strip()
    except RuntimeError as e:
        print("check_bytes_vs_ref: %s" % e, file=sys.stderr)
        return 2

    work = tempfile.mkdtemp(prefix="nettag-bytes-", dir=args.workdir)
    worktree = os.path.join(work, "ref")
    results = {}
    try:
        run(["git", "worktree", "add", "--detach", worktree, rev], cwd=repo)
        try:
            ref_tools = build(worktree, os.path.join(worktree, "build"))
            this_tools = build(repo, build_dir)
            for simd0 in (False, True):
                produce(ref_tools, os.path.join(work, "out-ref"), simd0)
                produce(this_tools, os.path.join(work, "out-this"), simd0)
        finally:
            run(["git", "worktree", "remove", "--force", worktree], cwd=repo)
            run(["git", "worktree", "prune"], cwd=repo)
        for name in ARTIFACTS:
            results[name] = same_files(os.path.join(work, "out-ref", name),
                                       os.path.join(work, "out-this", name))
    except RuntimeError as e:
        print("check_bytes_vs_ref: %s" % e, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    bad = 0
    for name, equal in results.items():
        expected = name in args.expect_change
        note = ""
        if equal and expected:
            note = "  (expected to differ)"
            bad += 1
        elif not equal and not expected:
            bad += 1
        elif not equal:
            note = "  (expected)"
        print("%-20s %s%s" % (name, "equal" if equal else "differs", note))
    print("check_bytes_vs_ref: %s against %s: %d of %d artifacts as expected"
          % ("this checkout", rev[:12], len(results) - bad, len(results)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
