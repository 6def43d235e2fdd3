#!/usr/bin/env python3
"""occamy_lint: static determinism lint for the occamy source tree.

The sharded engine's contract is byte-identical metrics at any shard count
(see src/sim/sharded_simulator.h). TSan and the differential/golden suites
enforce that contract dynamically; this pass enforces the invariants that
make it hold *statically*, on every build, as named file-scoped rules:

  unordered-iteration   Iterating a std::unordered_map/unordered_set feeds
                        hash-order (i.e. nondeterministic across libstdc++
                        versions and pointer values) into whatever consumes
                        the loop: metrics, merge order, JSON output.
                        Lookups (find/count/operator[]) are fine; iteration
                        must use a sorted container, sort a key snapshot
                        first, or carry an allow-annotation proving the
                        reduction is order-insensitive (e.g. an integer sum).
  raw-random            rand()/srand()/std::random_device/time()/getenv()
                        inside src/sim, src/net, src/transport. Simulation
                        code draws randomness only from the seeded util::Rng
                        owned by its Simulator, and reads no configuration
                        from the environment (scenario specs are explicit;
                        setenv-based knobs broke parallel sweeps once
                        already, see CHANGES.md PR 2).
  hot-path-indirection  std::function / std::shared_ptr / std::weak_ptr in
                        the hot-path dirs PR 3 scrubbed (src/sim, src/core,
                        src/buffer). Events use sim::Callback (inline SBO),
                        event state lives in the slab arena; reintroducing
                        type-erased or refcounted indirection there is a
                        silent perf regression. Control-plane hooks that run
                        once per window may carry an allow-annotation.
  pointer-keyed-order   Ordered containers keyed on raw pointer values
                        (std::map<T*, ...>, std::set<T*>, std::less<T*>).
                        Pointer order is allocation order — run-to-run
                        nondeterministic under ASLR — so anything iterating
                        such a container inherits it.
  trace-macro-only      Direct obs:: use inside src/sim, src/net,
                        src/buffer. Engine hot paths instrument through the
                        OCCAMY_TRACE_* macros (src/obs/trace.h), which
                        compile to nothing in OCCAMY_TRACE=OFF builds; a
                        direct obs:: call would survive the gate and tax
                        the OFF builds that CI's perf gate
                        (tools/ladder_gate.py) times.
  layering              An include of a bench/ header under src/. The
                        library sits below the benches: benches, examples
                        and tests call into src/, never the reverse, so
                        every runner a library caller needs lives in src/exp.

Escape hatch: a finding is suppressed by an inline annotation on the same
line, or on a comment-only line immediately above:

    void set_hook(std::function<void(int)> h);  // occamy-lint: allow(hot-path-indirection)

    // occamy-lint: allow(unordered-iteration) summing: order-insensitive
    for (const auto& [k, v] : unordered_counters_) total += v;

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
`--json=PATH` additionally writes machine-readable findings.
`--self-test` checks the rule engines against tools/lint/fixtures/ (each
rule has a violating fixture that must be flagged and an annotated fixture
that must pass — and must fail again once its annotations are stripped).
"""

import argparse
import json
import os
import re
import sys

# Directories scanned for the file-scoped rules (relative to --root).
SCAN_DIRS = ["src"]
SOURCE_EXTS = (".h", ".cc")

# raw-random applies where seeded determinism is load-bearing. src/fault is
# in scope: fault draws must come from the plan's seeded Rng, never ambient
# randomness, or faulted runs stop being byte-identical across shard counts.
# src/tm, src/core and src/bm joined with the self-healing fault model —
# restart flushes and control-plane stalls mutate TM/BM/expulsion state
# mid-run, so ambient randomness there would break fault fingerprints too.
RAW_RANDOM_DIRS = ("src/sim", "src/net", "src/transport", "src/fault",
                   "src/tm", "src/core", "src/bm")
# hot-path-indirection applies to the allocation-scrubbed hot-path dirs.
HOT_PATH_DIRS = ("src/sim", "src/core", "src/buffer")
# trace-macro-only applies to the engine dirs the OCCAMY_TRACE_* macros
# instrument (src/tm and src/obs itself legitimately use obs:: types).
TRACE_MACRO_DIRS = ("src/sim", "src/net", "src/buffer")
# layering applies to the whole library.
LAYERING_DIRS = ("src/",)

ALLOW_RE = re.compile(r"//\s*occamy-lint:\s*allow\(([^)]*)\)")
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*?>\s+(\w+)\s*(?:[;={]|\{)")
INCLUDE_RE = re.compile(r'#include\s+"([^"]+)"')

RULES = [
    "unordered-iteration",
    "raw-random",
    "hot-path-indirection",
    "pointer-keyed-order",
    "trace-macro-only",
    "layering",
]


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving line structure.

    Replaced characters become spaces (newlines survive), so findings keep
    their original line numbers and column-free snippets stay readable.
    """
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


class Finding:
    def __init__(self, rule, path, line, message, snippet):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message
        self.snippet = snippet

    def as_dict(self):
        return {
            "rule": self.rule,
            "file": self.path,
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet,
        }

    def __str__(self):
        return (f"{self.path}:{self.line}: [{self.rule}] {self.message}\n"
                f"    {self.snippet.strip()}")


def allowed_rules_for_line(raw_lines, lineno):
    """Rules suppressed at 1-based `lineno`: same-line annotation, or an
    annotation on a line above it that contains nothing else (comment-only
    annotation lines stack)."""
    allowed = set()
    m = ALLOW_RE.search(raw_lines[lineno - 1])
    if m:
        allowed.update(r.strip() for r in m.group(1).split(","))
    j = lineno - 2
    while j >= 0:
        line = raw_lines[j].strip()
        m = ALLOW_RE.search(line)
        if m and line.startswith("//"):
            allowed.update(r.strip() for r in m.group(1).split(","))
            j -= 1
        else:
            break
    return allowed


def unordered_names(code_text):
    """Identifiers declared as unordered containers in blanked source."""
    return {m.group(1) for m in UNORDERED_DECL_RE.finditer(code_text)}


def check_unordered_iteration(relpath, code_lines, names):
    """Flags iteration over identifiers declared as unordered containers."""
    findings = []
    if not names:
        return findings
    ident = "|".join(re.escape(n) for n in sorted(names))
    range_for = re.compile(r"\bfor\s*\([^;()]*:\s*\(?\s*(?:\w+(?:->|\.))?(%s)\s*\)" % ident)
    iter_for = re.compile(r"=\s*(?:\w+(?:->|\.))?(%s)\s*\.\s*(?:begin|cbegin|rbegin)\s*\(" % ident)
    sort_call = re.compile(
        r"\b(?:std::)?(?:sort|stable_sort|for_each)\s*\(\s*(?:\w+(?:->|\.))?(%s)\s*\.\s*(?:begin|cbegin)\b" % ident)
    for i, line in enumerate(code_lines, start=1):
        for pat, what in ((range_for, "range-for over"), (iter_for, "iterator loop over"),
                          (sort_call, "algorithm over")):
            m = pat.search(line)
            if m:
                findings.append(Finding(
                    "unordered-iteration", relpath, i,
                    f"{what} unordered container '{m.group(1)}': hash order is "
                    "nondeterministic; use a sorted container, sort a snapshot of "
                    "the keys, or annotate an order-insensitive reduction",
                    line))
                break
    return findings


RAW_RANDOM_PATTERNS = [
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bd?rand48\s*\("), "*rand48()"),
    (re.compile(r"(?<![\w])getenv\s*\("), "getenv()"),
    (re.compile(r"(?<![\w.:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"), "time()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"(?<![\w.:])clock\s*\(\s*\)"), "clock()"),
]


def check_raw_random(relpath, code_lines):
    findings = []
    if not relpath.startswith(RAW_RANDOM_DIRS):
        return findings
    for i, line in enumerate(code_lines, start=1):
        for pat, what in RAW_RANDOM_PATTERNS:
            if pat.search(line):
                findings.append(Finding(
                    "raw-random", relpath, i,
                    f"{what} in {os.path.dirname(relpath)}: simulation code must "
                    "draw randomness from its Simulator's seeded Rng and take "
                    "configuration explicitly, not from the environment",
                    line))
                break
    return findings


HOT_PATH_PATTERNS = [
    (re.compile(r"\bstd::function\b"), "std::function"),
    (re.compile(r"\bstd::shared_ptr\b"), "std::shared_ptr"),
    (re.compile(r"\bstd::make_shared\b"), "std::make_shared"),
    (re.compile(r"\bstd::weak_ptr\b"), "std::weak_ptr"),
]


def check_hot_path(relpath, code_lines):
    findings = []
    if not relpath.startswith(HOT_PATH_DIRS):
        return findings
    for i, line in enumerate(code_lines, start=1):
        for pat, what in HOT_PATH_PATTERNS:
            if pat.search(line):
                findings.append(Finding(
                    "hot-path-indirection", relpath, i,
                    f"{what} in hot-path dir {os.path.dirname(relpath)}: events "
                    "use sim::Callback and slab storage (PR 3); annotate only "
                    "control-plane hooks that run at barrier/setup frequency",
                    line))
                break
    return findings


POINTER_KEY_PATTERNS = [
    (re.compile(r"\bstd::(?:multi)?map\s*<\s*(?:const\s+)?[\w:]+\s*\*\s*,"),
     "std::map keyed on a raw pointer"),
    (re.compile(r"\bstd::(?:multi)?set\s*<\s*(?:const\s+)?[\w:]+\s*\*\s*[,>]"),
     "std::set of raw pointers"),
    (re.compile(r"\bstd::less\s*<\s*(?:const\s+)?[\w:]+\s*\*\s*>"),
     "std::less over raw pointers"),
]


def check_pointer_keyed(relpath, code_lines):
    findings = []
    for i, line in enumerate(code_lines, start=1):
        for pat, what in POINTER_KEY_PATTERNS:
            if pat.search(line):
                findings.append(Finding(
                    "pointer-keyed-order", relpath, i,
                    f"{what}: pointer order is allocation order (ASLR-"
                    "nondeterministic); key on a stable id instead",
                    line))
                break
    return findings


TRACE_MACRO_RE = re.compile(r"\bobs::")


def check_trace_macro_only(relpath, code_lines):
    """Flags direct obs:: use in the macro-instrumented engine dirs. The
    OCCAMY_TRACE_* invocations themselves contain no `obs::` text, and the
    #include "src/obs/trace.h" path is a string literal (blanked before
    this check runs), so only genuine API calls match."""
    findings = []
    if not relpath.startswith(TRACE_MACRO_DIRS):
        return findings
    for i, line in enumerate(code_lines, start=1):
        if TRACE_MACRO_RE.search(line):
            findings.append(Finding(
                "trace-macro-only", relpath, i,
                "direct obs:: use in an engine hot-path dir: instrument via "
                "the OCCAMY_TRACE_* macros (src/obs/trace.h) so an "
                "OCCAMY_TRACE=OFF build compiles the tracing out entirely",
                line))
    return findings


BENCH_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"bench/')


def check_layering(relpath, raw_lines, code_lines):
    """Flags src/ files including bench/ headers. The path is matched on the
    raw line (code_lines blanks string literals), the directive on the
    blanked one, so commented-out includes stay quiet."""
    findings = []
    if not relpath.startswith(LAYERING_DIRS):
        return findings
    for i, (raw, code) in enumerate(zip(raw_lines, code_lines), start=1):
        if code.lstrip().startswith("#") and BENCH_INCLUDE_RE.search(raw):
            findings.append(Finding(
                "layering", relpath, i,
                "src/ includes a bench/ header: the library sits below the "
                "benches; move the code it needs into src/",
                raw))
    return findings


def lint_source(relpath, raw_text, extra_decl_text=""):
    """Lints one file's raw text. `extra_decl_text` supplies blanked source
    of directly-included repo headers so member declarations in a .h are
    visible when linting its .cc."""
    raw_lines = raw_text.splitlines()
    code_text = strip_comments_and_strings(raw_text)
    code_lines = code_text.splitlines()
    names = unordered_names(code_text) | unordered_names(extra_decl_text)

    findings = []
    findings += check_unordered_iteration(relpath, code_lines, names)
    findings += check_raw_random(relpath, code_lines)
    findings += check_hot_path(relpath, code_lines)
    findings += check_pointer_keyed(relpath, code_lines)
    findings += check_trace_macro_only(relpath, code_lines)
    findings += check_layering(relpath, raw_lines, code_lines)

    kept = []
    for f in findings:
        if f.rule not in allowed_rules_for_line(raw_lines, f.line):
            kept.append(f)
    return kept


def gather_files(root):
    files = []
    for scan_dir in SCAN_DIRS:
        base = os.path.join(root, scan_dir)
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    files.append(os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(files)


def included_repo_headers(root, raw_text):
    headers = []
    for m in INCLUDE_RE.finditer(raw_text):
        path = os.path.join(root, m.group(1))
        if os.path.isfile(path):
            headers.append(path)
    return headers


def lint_tree(root):
    files = gather_files(root)
    all_findings = []
    for relpath in files:
        with open(os.path.join(root, relpath)) as f:
            raw = f.read()
        extra = []
        if relpath.endswith(".cc"):
            for header in included_repo_headers(root, raw):
                with open(header) as hf:
                    extra.append(strip_comments_and_strings(hf.read()))
        all_findings += lint_source(relpath, raw, "\n".join(extra))
    return files, all_findings


def self_test(fixtures_dir):
    """Validates each rule engine against its fixtures: the violating
    fixture must be flagged with exactly its rule, the annotated fixture
    must pass, and the annotated fixture with annotations stripped must
    fail again (proving suppression is doing the work)."""
    failures = []
    for rule in RULES:
        # Fixtures fake the rule's directory scope via their path argument.
        # raw-random is checked under every scoped directory family it
        # guards (the engine dirs, src/fault, and the TM/BM state the
        # self-healing faults mutate), proving the scope list actually
        # reaches those subsystems.
        scoped_paths = {
            "unordered-iteration": ["src/exp/fixture.cc"],
            "raw-random": ["src/sim/fixture.cc", "src/fault/fixture.cc",
                           "src/tm/fixture.cc", "src/bm/fixture.cc"],
            "hot-path-indirection": ["src/core/fixture.cc"],
            "pointer-keyed-order": ["src/net/fixture.cc"],
            "trace-macro-only": ["src/buffer/fixture.cc"],
            "layering": ["src/exp/fixture.cc"],
        }[rule]

        for scoped_path in scoped_paths:
            bad = os.path.join(fixtures_dir, f"violate_{rule}.cc")
            with open(bad) as f:
                bad_text = f.read()
            findings = lint_source(scoped_path, bad_text)
            if not findings:
                failures.append(
                    f"{rule}: violating fixture produced no findings "
                    f"under {scoped_path}")
            elif any(f.rule != rule for f in findings):
                failures.append(
                    f"{rule}: violating fixture produced foreign findings: "
                    + ", ".join(sorted({f.rule for f in findings})))

            good = os.path.join(fixtures_dir, f"allowed_{rule}.cc")
            with open(good) as f:
                good_text = f.read()
            findings = lint_source(scoped_path, good_text)
            if findings:
                failures.append(
                    f"{rule}: annotated fixture still flagged at line "
                    + ", ".join(str(f.line) for f in findings))
            stripped = ALLOW_RE.sub("//", good_text)
            findings = lint_source(scoped_path, stripped)
            if not any(f.rule == rule for f in findings):
                failures.append(
                    f"{rule}: annotated fixture passed even with annotations "
                    f"stripped under {scoped_path}")

    for failure in failures:
        print(f"occamy_lint self-test: FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"occamy_lint self-test: {len(RULES)} rules x "
              "(violate + allowed + stripped) all behave")
    return not failures


def main():
    parser = argparse.ArgumentParser(
        description="Determinism lint for the occamy tree.",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above this script)")
    parser.add_argument("--json", default=None,
                        help="write machine-readable findings to this path")
    parser.add_argument("--self-test", action="store_true",
                        help="validate the rule engines against tools/lint/fixtures/")
    args = parser.parse_args()

    script_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(args.root or os.path.join(script_dir, "..", ".."))

    if args.self_test:
        sys.exit(0 if self_test(os.path.join(script_dir, "fixtures")) else 1)

    if not os.path.isdir(os.path.join(root, "src")):
        print(f"occamy_lint: no src/ under --root={root}", file=sys.stderr)
        sys.exit(2)

    files, findings = lint_tree(root)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({
                "files_scanned": len(files),
                "rules": RULES,
                "findings": [fi.as_dict() for fi in findings],
            }, f, indent=2)
            f.write("\n")

    for finding in findings:
        print(finding)
    if findings:
        print(f"occamy_lint: {len(findings)} finding(s) in {len(files)} files",
              file=sys.stderr)
        sys.exit(1)
    print(f"occamy_lint: clean ({len(files)} files, {len(RULES)} rules)")
    sys.exit(0)


if __name__ == "__main__":
    main()
