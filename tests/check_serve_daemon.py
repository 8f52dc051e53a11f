#!/usr/bin/env python3
"""Socket-daemon scenario: nettag_serve --listen driven by --connect clients.

    python3 tests/check_serve_daemon.py NETTAG_SERVE NETTAG_TRAIN

Two tiny checkpoints are trained (`--tiny --no-align --expr-steps 12
--tag-steps 10`, the second with `--seed 3737`). Then:
  * three malformed `--listen` specs must each exit 2;
  * one daemon on a unix socket, `--shards 1 --queue-depth 1`: three
    scripted requests (a pong, a cache miss, a hit on a renamed isomorphic
    resubmission), a burst of 20 clients x 5 structurally distinct embeds
    that must be answered in full with at least one too_busy and no other
    error, a stats request with the transport and queue sections and a
    non-zero shed count, and a SIGTERM that must exit 0, print its drained
    line and remove the socket;
  * one daemon hosting both checkpoints, `--shards 2`: model_list, per-
    replica cache namespaces, a per-replica reload, the unknown-field
    error, stats per model, then model_unload / unknown_model / model_load
    / embed, one connection each, and the same SIGTERM drain;
  * one daemon at NETTAG_THREADS=4, `--shards 2 --queue-depth 4`: 8
    concurrent clients each embed and ask for stats, a model_load of the
    second checkpoint over the wire, then 8 clients race embeds against
    reloads of alternating replicas; only too_busy may fail, and SIGTERM
    must drain. CI runs this script against a ThreadSanitizer build of the
    tools (TSAN_OPTIONS=halt_on_error=1 is set for every daemon).
Every --connect client must exit 0. Uses only the Python standard library.
"""

import concurrent.futures
import os
import re
import signal
import stat
import subprocess
import sys
import tempfile
import time

TIMEOUT_S = 300
CKPT = "daemon-ckpt"
ALT = "daemon-ckpt-alt"
TRAIN_FLAGS = ["--tiny", "--no-align", "--expr-steps", "12", "--tag-steps",
               "10"]
AND2 = ("module m source synthetic\\nport a\\nport b\\n"
        "gate AND2 g1 a b out\\nendmodule\\n")
AND2_RENAMED = ("module z source synthetic\\nport x\\nport y\\n"
                "gate AND2 h9 x y out\\nendmodule\\n")


def embed(rid, netlist, model=None, extra=""):
    field = ',"model":"%s"' % model if model else ""
    return ('{"id":%s,"op":"embed_gates","netlist":"%s"%s%s}'
            % (rid, netlist, field, extra))


# Each pattern must match some response line (an unanchored search).
SCRIPTED = [
    '{"id":1,"op":"ping"}',
    embed(2, AND2),
    embed(3, AND2_RENAMED),
]
SCRIPTED_CHECKS = [
    '"id":"1".*"pong":true',
    '"id":"2".*"status":"ok","cached":false',
    '"id":"3".*"status":"ok","cached":true',
]
STATS_CHECKS = [
    '"transport":\\{',
    '"queue":\\{',
    '"queue_depth_histogram"',
    '"shed":[1-9]',
]
MULTI = [
    '{"id":1,"op":"model_list"}',
    embed(2, AND2),
    embed(3, AND2, "alt"),
    embed(4, AND2_RENAMED, "alt"),
    '{"id":5,"op":"reload","model":"alt"}',
    embed(6, AND2),
    embed(7, AND2, extra=',"khop":2'),
    '{"id":8,"op":"stats"}',
]
MULTI_CHECKS = [
    '"id":"1".*"name":"alt"',
    '"id":"1".*"name":"default"',
    '"id":"2".*"status":"ok","cached":false',
    # The same netlist addressed to "alt" is another cache namespace.
    '"id":"3".*"status":"ok","cached":false',
    '"id":"4".*"status":"ok","cached":true',
    # A reload of the same weights keeps both replicas' entries live.
    '"id":"5".*"reloaded":true',
    '"id":"6".*"status":"ok","cached":true',
    # Unknown fields on known ops are named, never silently defaulted.
    '"id":"7".*"code":"bad_request"',
    "unknown field 'khop'",
    '"id":"8".*"models":\\[',
    '"id":"8".*"models":\\[[^]]*"name":"alt"',
]
# One connection per step, so the order is strict.
ADMIN = [
    ('{"id":"u1","op":"model_unload","model":"alt"}', '"unloaded":true'),
    (embed('"u2"', AND2, "alt"), '"code":"unknown_model"'),
    ('{"id":"u3","op":"model_load","model":"alt","model_prefix":"%s"}' % ALT,
     '"loaded":true'),
    (embed('"u4"', AND2, "alt"), '"id":"u4".*"status":"ok"'),
]


def chain(rid, depth):
    """An embed of an AND2 feeding `depth` inverters: every depth is
    structurally distinct, so no two burst requests share a cache entry."""
    nl = "module b source synthetic\\nport a\\nport b\\ngate AND2 g0 a b\\n"
    for i in range(1, depth + 1):
        nl += "gate INV g%d g%d\\n" % (i, i - 1)
    nl += "gate INV z g%d out\\nendmodule\\n" % depth
    return embed('"%s"' % rid, nl)


class Scenario:
    def __init__(self, serve, train, tmp):
        self.serve, self.train, self.tmp = serve, train, tmp
        self.failures = []

    def fail(self, what):
        self.failures.append(what)

    def run(self, cmd, what, stdin=None, env=None):
        try:
            proc = subprocess.run(cmd, cwd=self.tmp, input=stdin, env=env,
                                  capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.fail("%s: still running after %ds" % (what, TIMEOUT_S))
            return None
        return proc

    def connect(self, sock, lines, what):
        """Sends `lines` through one --connect client; returns its response
        lines, or None when it failed."""
        proc = self.run([self.serve, "--connect", "unix:" + sock], what,
                        stdin="".join(line + "\n" for line in lines))
        if proc is None:
            return None
        if proc.returncode != 0:
            self.fail("%s: client exit %d, stderr %r" % (
                what, proc.returncode, proc.stderr.strip()[-400:]))
            return None
        return proc.stdout.splitlines()

    def connect_all(self, sock, batches, what):
        """Runs one --connect client per batch, all at once; returns every
        response line."""
        with concurrent.futures.ThreadPoolExecutor(len(batches)) as pool:
            answers = list(pool.map(
                lambda k: self.connect(sock, batches[k],
                                       "%s, client %d" % (what, k + 1)),
                range(len(batches))))
        return [line for got in answers if got for line in got]

    def expect(self, lines, patterns, what):
        for pattern in patterns:
            if not any(re.search(pattern, line) for line in lines):
                self.fail("%s: no response line matches %r" % (what, pattern))

    def expect_count(self, lines, want, what):
        if len(lines) != want:
            self.fail("%s: %d response lines, want %d" % (what, len(lines),
                                                          want))

    def expect_only_shed(self, lines, what):
        for line in lines:
            if '"status":"error"' in line and '"code":"too_busy"' not in line:
                self.fail("%s: an error other than too_busy: %s"
                          % (what, line[:400]))

    def start(self, name, flags, env=None, polls=100):
        """Starts a daemon on `<tmp>/<name>.sock`; returns (process, socket,
        stderr path) once the socket exists, or None."""
        sock = os.path.join(self.tmp, name + ".sock")
        err_path = os.path.join(self.tmp, name + ".err")
        with open(err_path, "w") as err:
            proc = subprocess.Popen(
                [self.serve] + flags + ["--listen", "unix:" + sock],
                cwd=self.tmp, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err)
        for _ in range(polls):
            if is_socket(sock) or proc.poll() is not None:
                break
            time.sleep(0.2)
        if not is_socket(sock):
            proc.kill()
            proc.wait()
            self.fail("%s daemon: no socket (exit %s): %r" % (
                name, proc.returncode, read(err_path).strip()[-400:]))
            return None
        return proc, sock, err_path

    def drain(self, daemon, name, socket_removed=True):
        """SIGTERMs the daemon, which must exit 0 with its drained line."""
        proc, sock, err_path = daemon
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            self.fail("%s daemon: still running %ds after SIGTERM"
                      % (name, TIMEOUT_S))
            return
        stderr = read(err_path)
        if code != 0:
            self.fail("%s daemon: exit %d after SIGTERM, stderr %r"
                      % (name, code, stderr.strip()[-400:]))
        if "drained; final metrics" not in stderr:
            self.fail("%s daemon: no 'drained; final metrics' line: %r"
                      % (name, stderr.strip()[-400:]))
        if socket_removed and os.path.exists(sock):
            self.fail("%s daemon: socket left after the drain" % name)

    def malformed_listen(self):
        for spec in ("not-an-address", "unix:", "127.0.0.1:99999"):
            proc = self.run([self.serve, "--model", CKPT, "--listen", spec],
                            "--listen %s" % spec)
            if proc and proc.returncode != 2:
                self.fail("--listen %s: exit %d, want 2"
                          % (spec, proc.returncode))

    def lifecycle(self):
        daemon = self.start("single", ["--model", CKPT, "--shards", "1",
                                       "--queue-depth", "1"])
        if not daemon:
            return
        sock = daemon[1]
        got = self.connect(sock, SCRIPTED, "scripted requests")
        if got is not None:
            self.expect_count(got, 3, "scripted requests")
            self.expect(got, SCRIPTED_CHECKS, "scripted requests")
        # Queue depth 1 on one worker: the burst must saturate and shed,
        # answering every line and dropping no connection.
        burst = [[chain("%d-%d" % (c, r), c * 5 + r) for r in range(1, 6)]
                 for c in range(1, 21)]
        got = self.connect_all(sock, burst, "burst")
        self.expect_count(got, 100, "burst")
        self.expect(got, ['"code":"too_busy"'], "burst")
        self.expect_only_shed(got, "burst")
        got = self.connect(sock, ['{"id":"s","op":"stats"}'], "stats")
        if got is not None:
            self.expect(got, STATS_CHECKS, "stats after the burst")
        self.drain(daemon, "single")

    def two_replicas(self):
        daemon = self.start("multi", ["--model", CKPT, "--model",
                                      "alt=" + ALT, "--shards", "2"])
        if not daemon:
            return
        sock = daemon[1]
        got = self.connect(sock, MULTI, "two-replica requests")
        if got is not None:
            self.expect_count(got, 8, "two-replica requests")
            self.expect(got, MULTI_CHECKS, "two-replica requests")
        for line, pattern in ADMIN:
            got = self.connect(sock, [line], line)
            if got is not None:
                self.expect(got, [pattern], line)
        self.drain(daemon, "multi")

    def concurrent(self):
        env = dict(os.environ, NETTAG_THREADS="4",
                   TSAN_OPTIONS="halt_on_error=1")
        daemon = self.start("racing", ["--model", CKPT, "--shards", "2",
                                       "--queue-depth", "4"], env=env,
                            polls=150)
        if not daemon:
            return
        sock = daemon[1]
        netlist = ("module m source synthetic\\nport a\\nport b\\n"
                   "gate AND2 g%d a b out\\nendmodule\\n")
        got = self.connect_all(
            sock, [[embed('"t%d"' % c, netlist % c),
                    '{"id":"u%d","op":"stats"}' % c] for c in range(1, 9)],
            "concurrent embeds")
        self.expect_count(got, 16, "concurrent embeds")
        # A second replica loaded over the wire mid-traffic, then embeds
        # racing per-replica reloads.
        got = self.connect(sock, ['{"id":"ml","op":"model_load","model":"alt",'
                                  '"model_prefix":"%s"}' % ALT], "model_load")
        if got is not None:
            self.expect(got, ['"loaded":true'], "model_load")
        batches = []
        for c in range(1, 9):
            model = "alt" if c % 2 == 0 else "default"
            batches.append([embed('"m%d"' % c, netlist % c, model),
                            '{"id":"r%d","op":"reload","model":"%s"}'
                            % (c, model)])
        got = self.connect_all(sock, batches, "embeds racing reloads")
        self.expect_count(got, 16, "embeds racing reloads")
        self.expect_only_shed(got, "embeds racing reloads")
        self.drain(daemon, "racing", socket_removed=False)


def is_socket(path):
    try:
        return stat.S_ISSOCK(os.stat(path).st_mode)
    except OSError:
        return False


def read(path):
    with open(path) as f:
        return f.read()


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2].strip())
        return 2
    serve, train = (os.path.abspath(p) for p in sys.argv[1:])
    with tempfile.TemporaryDirectory() as tmp:
        s = Scenario(serve, train, tmp)
        for prefix, extra in ((CKPT, []), (ALT, ["--seed", "3737"])):
            proc = s.run([train, "--out", prefix] + TRAIN_FLAGS + extra,
                         "training " + prefix)
            if proc and proc.returncode != 0:
                s.fail("training %s: exit %d, stderr %r" % (
                    prefix, proc.returncode, proc.stderr.strip()[-400:]))
        if not s.failures:
            s.malformed_listen()
            s.lifecycle()
            s.two_replicas()
            s.concurrent()
    for failure in s.failures:
        print("FAIL " + failure)
    if not s.failures:
        print("nettag_serve --listen served, shed, reloaded and drained as "
              "expected")
    return 1 if s.failures else 0


if __name__ == "__main__":
    sys.exit(main())
