#!/usr/bin/env python3
"""Fails when a library header is reached by no shipped program.

    python3 tests/check_header_reachability.py [REPO_ROOT]

Starts from every .cpp in tools/, bench/, examples/ and benchmark/src/ and
follows each `#include "..."`, resolved next to the including file first and
under src/ second. Every reached src/X.hpp also pulls in its src/X.cpp. Every
src/**/*.hpp must be reached, except the test oracles in ORACLES: exact
checkers that only tests use, each kept only while a test under tests/
includes it. An oracle that a shipped program starts to reach fails too,
because its entry would then hide nothing. Uses only the Python standard
library.
"""

import os
import re
import sys

ROOTS = ("tools", "bench", "examples", os.path.join("benchmark", "src"))

# Header (relative to src/) -> the test that uses it, and what it checks.
ORACLES = {
    "expr/bdd.hpp": "BddVsSemantic checks random_equivalent and "
                    "semantically_equal",
    "netlist/equiv.hpp": "Equiv.RewrittenNetlistEquivalent checks "
                         "logic_rewrite",
}

INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def includes(path):
    with open(path, encoding="utf-8") as f:
        return INCLUDE.findall(f.read())


def resolve(name, including_file, src):
    for base in (os.path.dirname(including_file), src):
        candidate = os.path.normpath(os.path.join(base, name))
        if os.path.isfile(candidate):
            return candidate
    return None


def reached_files(root):
    src = os.path.join(root, "src")
    todo = []
    for top in ROOTS:
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            todo += [os.path.join(dirpath, f) for f in files
                     if f.endswith(".cpp")]
    seen = set(todo)
    while todo:
        path = todo.pop()
        found = [resolve(n, path, src) for n in includes(path)]
        if path.startswith(src + os.sep) and path.endswith(".hpp"):
            found.append(path[:-len(".hpp")] + ".cpp")
        for f in found:
            if f and os.path.isfile(f) and f not in seen:
                seen.add(f)
                todo.append(f)
    return seen


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    src = os.path.join(root, "src")
    reached = {os.path.relpath(f, src) for f in reached_files(root)
               if f.startswith(src + os.sep)}
    headers = sorted(os.path.relpath(os.path.join(d, f), src)
                     for d, _, files in os.walk(src)
                     for f in files if f.endswith(".hpp"))
    problems = []
    for h in headers:
        if h in ORACLES and h in reached:
            problems.append("src/%s is on the oracle list but a shipped "
                            "program now reaches it; drop its entry" % h)
        elif h not in ORACLES and h not in reached:
            problems.append("src/%s is reached by no .cpp in %s; delete it "
                            "or ship a caller" % (h, ", ".join(ROOTS)))
    tests = os.path.join(root, "tests")
    tested = {n for f in os.listdir(tests) if f.endswith(".cpp")
              for n in includes(os.path.join(tests, f))}
    for h in sorted(set(ORACLES) - tested):
        problems.append("oracle src/%s is included by no test under tests/; "
                        "drop its entry" % h)
    for line in problems:
        print("FAIL " + line)
    if problems:
        return 1
    print("ok: %d of %d headers under src/ reached; test oracles: %s"
          % (len(headers) - len(ORACLES), len(headers),
             "; ".join("%s (%s)" % kv for kv in sorted(ORACLES.items()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
