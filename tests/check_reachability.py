#!/usr/bin/env python3
"""Fails when library code is reached by no shipped program.

The shipped programs are every .cpp in tools/, bench/ and examples/ (one
program each) and benchmark/src/ (one program, benchkit). Two checks share
one list of library code that only tests may use, TEST_ONLY.

    python3 tests/check_reachability.py [REPO_ROOT]

HeaderReachability. Follows each `#include "..."` from the programs'
sources, resolved next to the including file first and under src/ second.
Every reached src/X.hpp also pulls in its src/X.cpp. Every src/**/*.hpp
must be reached.

    python3 tests/check_reachability.py --symbols REPO_ROOT NM \\
        --objects LIBRARY_OBJECT... --programs PROGRAM...

SymbolReachability. The objects are the library compiled at -O0 with
-ffunction-sections -fdata-sections, and each program is one shipped
program linked against them with --gc-sections, so it holds exactly the
library functions it reaches. Every external function the objects define
must be in some program. tests/CMakeLists.txt builds both and runs this as
a ctest; run it alone with `ctest -R SymbolReachability` in the build tree.

Both checks also fail on a TEST_ONLY entry that a shipped program reaches,
because it would then hide nothing, and on one that no test under tests/
names. Uses only the Python standard library.
"""

import os
import re
import subprocess
import sys

ROOTS = ("tools", "bench", "examples", os.path.join("benchmark", "src"))

# Library code that only tests use: exact oracles and test hooks. Each value
# names the test that needs the entry. A header (relative to src/) exempts
# itself and every function its .cpp defines; a qualified function name
# exempts that function, every overload.
TEST_ONLY = {
    "expr/bdd.hpp": "BddVsSemantic checks random_equivalent and "
                    "semantically_equal",
    "netlist/equiv.hpp": "Equiv.RewrittenNetlistEquivalent checks "
                         "logic_rewrite",
    "nettag::softmax_rows": "Autograd.AttentionHeadsMatchesPerHeadChain "
                            "compares attention_heads against the per-head "
                            "chain of public ops it replaced",
    "nettag::set_deep_checks": "DeepChecksGuard (analysis_test, "
                               "inference_test) and NoDeepChecks (gemm_test) "
                               "switch deep checks for one test",
    "nettag::stop_signal_flag": "StopSignals.SigtermDuringInFlightBatch"
                                "StillYieldsWellFormedResponses clears the "
                                "flag a signal set",
    "nettag::net::ShardPool::pause": "ShardPool.SaturatedQueueShedsWithTooBusy "
                                     "holds the workers to fill the queue",
    "nettag::net::ShardPool::resume": "ShardPool.SaturatedQueueShedsWithTooBusy "
                                      "releases the held workers",
    "nettag::serve::Server::register_task":
        "ShardPool.NoRequestWaitsWhileAWorkerIsIdle holds a worker in a "
        "registered head; Daemon.ThrowingTaskHeadAnswersInternalAndKeeps"
        "Serving throws inside one",
    "nettag::Vocab::token": "Vocab.IdTokenRoundTrip and Tokenizer."
                            "SlotShapesCaseAndVocabWords decode ids through "
                            "it",
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


def program_sources(root):
    out = []
    for top in ROOTS:
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            out += [os.path.join(dirpath, f) for f in files
                    if f.endswith(".cpp")]
    return out


def reached_files(root):
    src = os.path.join(root, "src")
    todo = program_sources(root)
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


def test_sources(root):
    tests = os.path.join(root, "tests")
    return [os.path.join(tests, f) for f in sorted(os.listdir(tests))
            if f.endswith((".cpp", ".hpp"))]


def is_header(entry):
    return entry.endswith(".hpp")


def unnamed_entries(root):
    """TEST_ONLY entries that no test includes (headers) or names."""
    texts = []
    for path in test_sources(root):
        with open(path, encoding="utf-8") as f:
            texts.append(f.read())
    included = {n for t in texts for n in INCLUDE.findall(t)}
    out = []
    for entry in sorted(TEST_ONLY):
        if is_header(entry):
            named = entry in included
        else:
            word = re.compile(r"\b%s\b" % re.escape(entry.split("::")[-1]))
            named = any(word.search(t) for t in texts)
        if not named:
            out.append(entry)
    return out


def check_headers(root):
    src = os.path.join(root, "src")
    reached = {os.path.relpath(f, src) for f in reached_files(root)
               if f.startswith(src + os.sep)}
    headers = sorted(os.path.relpath(os.path.join(d, f), src)
                     for d, _, files in os.walk(src)
                     for f in files if f.endswith(".hpp"))
    listed = [h for h in headers if h in TEST_ONLY]
    problems = []
    for h in headers:
        if h in TEST_ONLY and h in reached:
            problems.append("src/%s is on the test-only list but a shipped "
                            "program now reaches it; drop its entry" % h)
        elif h not in TEST_ONLY and h not in reached:
            problems.append("src/%s is reached by no .cpp in %s; delete it "
                            "or ship a caller" % (h, ", ".join(ROOTS)))
    problems += ["src/%s on the test-only list is included by no test under "
                 "tests/; drop its entry" % h
                 for h in unnamed_entries(root) if is_header(h)]
    if not problems:
        print("ok: %d of %d headers under src/ reached; test-only: %s"
              % (len(headers) - len(listed), len(headers),
                 "; ".join("%s (%s)" % (h, TEST_ONLY[h]) for h in listed)))
    return problems


def defined_functions(nm, paths):
    """{path: {demangled name: nm type}} for the symbols each file defines."""
    out = subprocess.run([nm, "--defined-only", "-C"] + paths, check=True,
                         capture_output=True, text=True).stdout
    symbols = {p: {} for p in paths}
    current = paths[0]
    for line in out.splitlines():
        if line.endswith(":") and line[:-1] in symbols:
            current = line[:-1]
            continue
        parts = line.split(" ", 2)
        if len(parts) == 3:
            symbols[current][parts[2]] = parts[1]
    return symbols


def source_of(obj, sources):
    for rel in sources:
        if obj.endswith(os.sep + rel + ".o"):
            return rel
    sys.exit("%s is the object of no .cpp under src/" % obj)


def listed_function(name):
    name = re.sub(r"\[abi:\w+\]", "", name)  # nettag::f[abi:cxx11](int)
    for entry in TEST_ONLY:
        if not is_header(entry) and name.startswith(entry + "("):
            return entry
    return None


def check_symbols(root, nm, objects, programs):
    src = os.path.join(root, "src")
    sources = [os.path.relpath(os.path.join(d, f), src)
               for d, _, files in os.walk(src)
               for f in files if f.endswith(".cpp")]
    expected = {os.path.splitext(os.path.basename(p))[0]
                for p in program_sources(root)
                if not p.startswith(os.path.join(root, "benchmark"))}
    expected.add("benchkit")
    linked = {os.path.basename(p).replace("reach_", "", 1) for p in programs}
    problems = ["shipped program %s is not linked for this check; add it in "
                "tests/CMakeLists.txt" % p for p in sorted(expected - linked)]

    in_programs = {}
    for path, names in defined_functions(nm, programs).items():
        for name in names:
            in_programs.setdefault(name, os.path.basename(path))
    library = {}
    for obj, names in defined_functions(nm, objects).items():
        rel = source_of(obj, sources)
        for name, kind in names.items():
            if kind == "T":
                library[name] = rel
    exempt_files = {h[:-len(".hpp")] + ".cpp" for h in TEST_ONLY
                    if is_header(h)}
    used_entries = set()
    exempt = 0
    for name in sorted(library):
        rel = library[name]
        entry = listed_function(name)
        if rel in exempt_files:
            entry = rel[:-len(".cpp")] + ".hpp"
        if entry:
            used_entries.add(entry)
            exempt += 1
            if name in in_programs:
                problems.append("%s (src/%s) is on the test-only list as %s "
                                "but %s contains it; drop its entry"
                                % (name, rel, entry, in_programs[name]))
        elif name not in in_programs:
            problems.append("%s (src/%s) is in no shipped program; delete it "
                            "or ship a caller" % (name, rel))
    for entry in sorted(set(TEST_ONLY) - used_entries):
        problems.append("%s on the test-only list defines no library "
                        "function; drop its entry" % entry)
    problems += ["%s on the test-only list is named by no test under tests/; "
                 "drop its entry" % e for e in unnamed_entries(root)]
    if not problems:
        print("ok: %d of %d external library functions are in the %d shipped "
              "programs; %d are test-only: %s"
              % (len(library) - exempt, len(library), len(programs), exempt,
                 "; ".join("%s (%s)" % kv for kv in sorted(TEST_ONLY.items()))))
    return problems


def main(argv):
    if argv[:1] == ["--symbols"]:
        root, nm = os.path.abspath(argv[1]), argv[2]
        split = argv.index("--programs")
        problems = check_symbols(root, nm, argv[argv.index("--objects") + 1:
                                                split], argv[split + 1:])
    else:
        root = os.path.abspath(argv[0] if argv else
                               os.path.join(os.path.dirname(__file__), ".."))
        problems = check_headers(root)
    for line in problems:
        print("FAIL " + line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
