#!/usr/bin/env python3
"""Serving smoke test: scripted requests through the built nettag_serve.

    python3 tests/check_serve_smoke.py NETTAG_SERVE NETTAG_TRAIN NETTAG_LINT

`nettag_serve --help` and `nettag_lint --help` must exit 0. A tiny
checkpoint is trained (`nettag_train --out serve-ckpt --tiny --no-align
--expr-steps 12 --tag-steps 10`), and the request lines of
tests/serve_smoke_requests.ndjson (valid, malformed-JSON, unknown-op,
lint-rejected, mistyped, a stats and a reload) are piped through
`nettag_serve --model serve-ckpt --reject-warnings`, which must exit 0.
Each check below must then hold, as a search of the responses: 11 lines, a
pong, a cache miss and then a hit on a renamed isomorphic resubmission, the
per-line errors, the stats counters, and a reload of the same weights that
keeps the cache hitting. The reload is the shipped tool reading its
checkpoint back. Uses only the Python standard library.
"""

import os
import re
import subprocess
import sys
import tempfile

REQUESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "serve_smoke_requests.ndjson")
TIMEOUT_S = 300

# Each pattern must match some response line (an unanchored search).
CHECKS = [
    ('"id":"1".*"pong":true', "id 1 answers pong"),
    ('"id":"2".*"status":"ok","cached":false', "id 2 is a cache miss"),
    # id 3 is a renamed isomorphic resubmission of id 2: cache hit.
    ('"id":"3".*"status":"ok","cached":true', "id 3 is a cache hit"),
    ('"code":"bad_json"', "the non-JSON line is bad_json"),
    ('"id":"5".*"code":"bad_request"', "id 5's unknown op is bad_request"),
    ('"id":"6".*"status":"ok"', "id 6's embed_circuit is ok"),
    ('"id":"7".*"code":"lint_rejected"', "id 7 is lint_rejected"),
    ('"id":"8".*"requests_total":7', "id 8's stats count 7 requests"),
    ('"result_cache":\\{[^}]*"hits":1', "stats count 1 result-cache hit"),
    # id 9 carries a string-typed k_hop: mistyped fields are rejected,
    # never silently defaulted.
    ('"id":"9".*"code":"bad_request"', "id 9's string k_hop is bad_request"),
    # id 10 hot-reloads the default (--model) checkpoint: same weights, so
    # id 11's repeat of id 2 must still be a cache hit.
    ('"id":"10".*"reloaded":true', "id 10 reloads"),
    ('"id":"10".*"params_changed":false', "id 10 keeps the same weights"),
    ('"id":"11".*"status":"ok","cached":true', "id 11 is a cache hit"),
]


def run(cmd, cwd, failures, what, stdin=None):
    try:
        proc = subprocess.run(cmd, cwd=cwd, input=stdin, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        failures.append("%s: still running after %ds" % (what, TIMEOUT_S))
        return None
    if proc.returncode != 0:
        failures.append("%s: exit %d, stderr %r" % (
            what, proc.returncode, proc.stderr.strip()[-400:]))
        return None
    return proc


def main():
    if len(sys.argv) != 4:
        print(__doc__.strip().splitlines()[2].strip())
        return 2
    serve, train, lint = (os.path.abspath(p) for p in sys.argv[1:])
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        run([serve, "--help"], tmp, failures, "nettag_serve --help")
        run([lint, "--help"], tmp, failures, "nettag_lint --help")
        trained = run([train, "--out", "serve-ckpt", "--tiny", "--no-align",
                       "--expr-steps", "12", "--tag-steps", "10"], tmp,
                      failures, "training the demo checkpoint")
        with open(REQUESTS) as f:
            requests = f.read()
        served = trained and run(
            [serve, "--model", "serve-ckpt", "--reject-warnings"], tmp,
            failures, "serving the scripted requests", stdin=requests)
        if served:
            lines = served.stdout.splitlines()
            if len(lines) != 11:
                failures.append("%d response lines, want 11" % len(lines))
            for pattern, what in CHECKS:
                if not any(re.search(pattern, line) for line in lines):
                    failures.append("no response line matches %r (%s)"
                                    % (pattern, what))
            if failures:
                print(served.stdout, end="")
    for failure in failures:
        print("FAIL " + failure)
    if not failures:
        print("nettag_serve answered the %d scripted requests as expected"
              % len(requests.splitlines()))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
