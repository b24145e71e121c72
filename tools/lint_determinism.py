#!/usr/bin/env python3
"""Determinism lint: ban nondeterminism sources in result paths.

Every figure this reproduction publishes rests on campaign JSON being
byte-identical at any --jobs width. The runtime layers (cmp
smokes, the TSan CI leg) catch a violated contract after the fact;
this lint stops the common causes from entering src/ at all:

  unordered-iteration   iterating a std::unordered_{map,set} — the
                        walk order is hash-seed and allocator
                        dependent, so anything order-sensitive
                        derived from it differs run to run
  random-device         std::random_device — hardware entropy; all
                        stochastic behaviour must flow from the
                        seeded sim Rng (src/sim/rng.hh)
  libc-rand             rand()/srand()/random()/drand48() — hidden
                        global state, seeded or not, and unshareable
                        across threads
  wall-clock            time()/clock_gettime()/gettimeofday()/
                        std::chrono::{system,steady,high_resolution}
                        _clock reads — wall time must never feed a
                        result (WallTimer in src/sim/wall_timer.hh is
                        the sanctioned stopwatch for bench metadata)
  pointer-output        formatting a pointer value (%p, or streaming
                        a void*/reinterpret_cast) — ASLR makes the
                        bytes differ per process
  unseeded-shuffle      std::random_shuffle (implementation-defined
                        source), or std::shuffle fed from
                        random_device / a default-constructed
                        default_random_engine

Escape hatch, audited in the report:

    // determinism: allow(<rule>, <reason>)

on the offending line or the line directly above it. The reason is
mandatory; a malformed annotation and an annotation that suppresses
nothing are both hard errors, so escapes stay precise and current.

Files that ARE the sanctioned sources (src/sim/rng.*, the WallTimer
header) are exempt wholesale; the exemption list is printed in the
audit so it cannot silently grow.

Exit status: 0 when src/ is clean, 1 on any violation, malformed
annotation, or stale annotation. CI runs this as a required gate next
to the bench-regression gate; run it locally with

    python3 tools/lint_determinism.py [--json OUT] [paths...]

Self-test (fixture snippets covering every rule, the allow escape,
and the malformed-annotation diagnostic): --self-test, and the fuller
unittest suite in tools/test_lint_determinism.py.
"""

import argparse
import json
import pathlib
import re
import sys

# rule id -> (human summary, fix hint)
RULES = {
    "unordered-iteration": (
        "iteration over a std::unordered_{map,set}",
        "iterate a sorted copy / std::map, or annotate why the fold "
        "is order-independent",
    ),
    "random-device": (
        "std::random_device (hardware entropy)",
        "draw from an explicitly seeded cohmeleon::Rng instead",
    ),
    "libc-rand": (
        "libc random source with hidden global state",
        "draw from an explicitly seeded cohmeleon::Rng instead",
    ),
    "wall-clock": (
        "wall-clock read outside the sanctioned sim sources",
        "results must be pure functions of the spec; use WallTimer "
        "only for bench metadata, or annotate the harness-only use",
    ),
    "pointer-output": (
        "pointer value formatted into output",
        "print a stable id (slot, index, name) instead of an address",
    ),
    "unseeded-shuffle": (
        "shuffle with a nondeterministic or unspecified source",
        "use std::shuffle with a seeded engine derived from the sim "
        "Rng",
    ),
}

# Files that are allowed to touch the banned primitives because they
# ARE the sanctioned wrappers; path suffix -> justification (printed
# in the audit).
EXEMPT_FILES = {
    "src/sim/rng.hh": "the sanctioned seeded RNG's own interface",
    "src/sim/rng.cc": "the sanctioned seeded RNG's own implementation",
    "src/sim/wall_timer.hh":
        "the sanctioned stopwatch (bench metadata only, never results)",
}

ALLOW_RE = re.compile(
    r"//\s*determinism:\s*allow\(\s*([A-Za-z0-9_-]+)\s*,\s*([^)]+?)\s*\)")
# Anything that *looks* like it wants to be an annotation but does not
# match the grammar above — catches allow() with a missing reason,
# unbalanced parens, or a typo'd verb.
ALLOW_INTENT_RE = re.compile(r"//\s*determinism\s*:")

UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set)\s*<[^;{}()]*>\s*(\w+)\s*[;{=]")

SIMPLE_RULES = [
    ("random-device", re.compile(r"\bstd::random_device\b")),
    ("libc-rand",
     re.compile(r"(?<![:\w])(?:rand|srand|random|drand48|lrand48|"
                r"mrand48)\s*\(")),
    ("wall-clock",
     re.compile(r"\bsystem_clock\b|\bsteady_clock\b|"
                r"\bhigh_resolution_clock\b|\bclock_gettime\s*\(|"
                r"\bgettimeofday\s*\(|(?<![:\w])time\s*\(")),
    ("unseeded-shuffle", re.compile(r"\bstd::random_shuffle\b")),
]

SHUFFLE_RE = re.compile(r"\bstd::shuffle\s*\(")
BAD_SHUFFLE_SOURCE_RE = re.compile(
    r"std::random_device|std::default_random_engine\s*[({]\s*[)}]")
POINTER_FMT_RE = re.compile(r"%p")
POINTER_STREAM_RE = re.compile(
    r"<<\s*(?:static_cast<\s*(?:const\s+)?void\s*\*\s*>|"
    r"reinterpret_cast<|\(\s*(?:const\s+)?void\s*\*\s*\))")

STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')
CHAR_RE = re.compile(r"'(?:[^'\\]|\\.)*'")


class Finding:
    def __init__(self, path, line, rule, text, allowed=None):
        self.path = path
        self.line = line
        self.rule = rule
        self.text = text.strip()
        self.allowed = allowed  # reason string when suppressed

    def as_dict(self):
        d = {"file": str(self.path), "line": self.line,
             "rule": self.rule, "source": self.text}
        if self.allowed is not None:
            d["allowed"] = self.allowed
        return d


class Problem:
    """A malformed or stale annotation — always an error."""

    def __init__(self, path, line, message):
        self.path = path
        self.line = line
        self.message = message

    def as_dict(self):
        return {"file": str(self.path), "line": self.line,
                "problem": self.message}


def split_comment(line, in_block):
    """Split one physical line into (code, comment, in_block_after),
    tracking /* */ state across lines. String literals in the code
    part are preserved here; rule matchers strip them as needed."""
    code = []
    comment = []
    i = 0
    n = len(line)
    in_string = None
    while i < n:
        c = line[i]
        if in_block:
            end = line.find("*/", i)
            if end < 0:
                comment.append(line[i:])
                return "".join(code), "".join(comment), True
            comment.append(line[i:end])
            i = end + 2
            in_block = False
            continue
        if in_string:
            code.append(c)
            if c == "\\" and i + 1 < n:
                code.append(line[i + 1])
                i += 2
                continue
            if c == in_string:
                in_string = None
            i += 1
            continue
        if c in "\"'":
            in_string = c
            code.append(c)
            i += 1
            continue
        if line.startswith("//", i):
            comment.append(line[i:])
            return "".join(code), "".join(comment), False
        if line.startswith("/*", i):
            in_block = True
            i += 2
            continue
        code.append(c)
        i += 1
    return "".join(code), "".join(comment), in_block


def strip_strings(code):
    code = STRING_RE.sub('""', code)
    return CHAR_RE.sub("''", code)


def unordered_decl_names(text):
    """Names declared as std::unordered_{map,set} in this text,
    comments and strings stripped."""
    names = set()
    in_block = False
    for raw in text.splitlines():
        code, _comment, in_block = split_comment(raw, in_block)
        for m in UNORDERED_DECL_RE.finditer(strip_strings(code)):
            names.add(m.group(1))
    return names


def scan_text(path, text, extra_unordered=()):
    """Lint one file's content. extra_unordered carries container
    names declared elsewhere (a .cc's sibling header — members are
    declared in the .hh but iterated in the .cc). Returns (findings,
    problems); findings flagged via .allowed are suppressed escapes,
    kept for the audit."""
    lines = text.splitlines()

    # Pass 1: comment split + annotations.
    code_lines = [""] * len(lines)
    allows = {}  # line no (1-based) -> (rule, reason, [used])
    problems = []
    in_block = False
    for i, raw in enumerate(lines, 1):
        code, comment, in_block = split_comment(raw, in_block)
        code_lines[i - 1] = code
        m = ALLOW_RE.search(comment)
        if m:
            rule, reason = m.group(1), m.group(2).strip()
            if rule not in RULES:
                problems.append(Problem(
                    path, i,
                    f"allow() names unknown rule '{rule}' (known: "
                    + ", ".join(sorted(RULES)) + ")"))
            elif not reason:
                problems.append(Problem(
                    path, i, "allow() needs a non-empty reason"))
            else:
                allows[i] = [rule, reason, False]
        elif ALLOW_INTENT_RE.search(comment):
            problems.append(Problem(
                path, i,
                "malformed determinism annotation (want "
                "'// determinism: allow(<rule>, <reason>)'): "
                + comment.strip()))

    # Pass 2: names declared as unordered containers in this file
    # (plus any handed in from the sibling header).
    unordered_names = set(extra_unordered)
    for code in code_lines:
        for m in UNORDERED_DECL_RE.finditer(strip_strings(code)):
            unordered_names.add(m.group(1))
    iter_res = []
    if unordered_names:
        names = "|".join(re.escape(n) for n in unordered_names)
        iter_res = [
            re.compile(r"for\s*\([^;)]*:\s*(?:\*?\s*\w+\s*(?:\.|->)\s*)?"
                       r"(?:" + names + r")\s*\)"),
            re.compile(r"\b(?:" + names + r")\s*(?:\.|->)\s*begin\s*\("),
        ]

    # Pass 3: the rules.
    findings = []

    def add(i, rule, raw):
        allow = None
        for where in (i, i - 1):
            a = allows.get(where)
            if a and a[0] == rule:
                a[2] = True
                allow = a[1]
                break
        findings.append(Finding(path, i, rule, raw, allow))

    for i, raw in enumerate(lines, 1):
        code = code_lines[i - 1]
        bare = strip_strings(code)
        if not bare.strip():
            continue
        for rule, rx in SIMPLE_RULES:
            if rx.search(bare):
                add(i, rule, raw)
        for rx in iter_res:
            if rx.search(bare):
                add(i, "unordered-iteration", raw)
                break
        if SHUFFLE_RE.search(bare):
            window = " ".join(
                strip_strings(c) for c in code_lines[i - 1:i + 3])
            if BAD_SHUFFLE_SOURCE_RE.search(window):
                add(i, "unseeded-shuffle", raw)
        if POINTER_FMT_RE.search(STRING_RE.sub(
                lambda m: m.group(0)[1:-1], code)) and "%p" in code:
            add(i, "pointer-output", raw)
        elif POINTER_STREAM_RE.search(bare):
            add(i, "pointer-output", raw)

    # Stale annotations are errors: an escape that suppresses nothing
    # is either dead weight or a typo hiding a live finding.
    for line_no, (rule, _reason, used) in sorted(allows.items()):
        if not used:
            problems.append(Problem(
                path, line_no,
                f"stale determinism annotation: allow({rule}, ...) "
                "suppresses no finding on its own or the next line"))
    return findings, problems


def lint_paths(paths):
    findings = []
    problems = []
    exempt = []
    files = []
    for p in paths:
        p = pathlib.Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.hh")))
            files.extend(sorted(p.rglob("*.cc")))
        else:
            files.append(p)
    for f in sorted(set(files)):
        posix = f.as_posix()
        hit = next((suffix for suffix in EXEMPT_FILES
                    if posix.endswith(suffix)), None)
        if hit:
            exempt.append((posix, EXEMPT_FILES[hit]))
            continue
        try:
            text = f.read_text(encoding="utf-8", errors="replace")
        except OSError as e:
            raise SystemExit(f"fatal: {f}: {e.strerror}")
        extra = ()
        if f.suffix == ".cc":
            sibling = f.with_suffix(".hh")
            if sibling.exists():
                extra = unordered_decl_names(sibling.read_text(
                    encoding="utf-8", errors="replace"))
        file_findings, file_problems = scan_text(f, text, extra)
        findings.extend(file_findings)
        problems.extend(file_problems)
    return findings, problems, exempt


def report(findings, problems, exempt, out=sys.stdout):
    violations = [f for f in findings if f.allowed is None]
    allowed = [f for f in findings if f.allowed is not None]

    for f in violations:
        summary, hint = RULES[f.rule]
        print(f"{f.path}:{f.line}: [{f.rule}] {summary}", file=out)
        print(f"    {f.text}", file=out)
        print(f"    fix: {hint}", file=out)
    for p in problems:
        print(f"{p.path}:{p.line}: [annotation] {p.message}", file=out)

    if allowed:
        print("determinism allow() audit "
              f"({len(allowed)} annotated escape(s)):", file=out)
        for f in allowed:
            print(f"  {f.path}:{f.line}: allow({f.rule}) — {f.allowed}",
                  file=out)
    if exempt:
        print(f"exempt files ({len(exempt)}):", file=out)
        for posix, why in exempt:
            print(f"  {posix} — {why}", file=out)

    ok = not violations and not problems
    print(("determinism lint passed" if ok
           else f"determinism lint FAILED: {len(violations)} "
                f"violation(s), {len(problems)} annotation "
                "problem(s)"), file=out)
    return ok


# --------------------------------------------------------- self-test

SELF_TEST_CASES = [
    # (name, snippet, expected rule ids (violations only))
    ("unordered map range-for",
     "std::unordered_map<int, int> m_;\n"
     "void f() { for (const auto &[k, v] : m_) use(k, v); }\n",
     ["unordered-iteration"]),
    ("unordered set via begin()",
     "std::unordered_set<std::string> seen_;\n"
     "auto it = seen_.begin();\n",
     ["unordered-iteration"]),
    ("unordered member of another object",
     "std::unordered_map<int, P> perAcc_;\n"
     "void merge(const T &o) { for (const auto &[k, v] : o.perAcc_) "
     "fold(k, v); }\n",
     ["unordered-iteration"]),
    ("ordered map iteration is fine",
     "std::map<int, int> m_;\n"
     "void f() { for (const auto &[k, v] : m_) use(k, v); }\n",
     []),
    ("random_device",
     "std::random_device rd;\n",
     ["random-device"]),
    ("libc rand",
     "int x = rand() % 6;\n",
     ["libc-rand"]),
    ("libc srand",
     "srand(42);\n",
     ["libc-rand"]),
    ("wall clock system_clock",
     "auto t = std::chrono::system_clock::now();\n",
     ["wall-clock"]),
    ("wall clock time()",
     "std::uint64_t t = time(nullptr);\n",
     ["wall-clock"]),
    ("wall clock clock_gettime",
     "clock_gettime(CLOCK_REALTIME, &ts);\n",
     ["wall-clock"]),
    ("last_write_time is not time()",
     "auto t = std::filesystem::last_write_time(p);\n",
     []),
    ("pointer into printf",
     'std::printf("obj at %p\\n", (void *)obj);\n',
     ["pointer-output"]),
    ("pointer into ostream",
     "os << static_cast<const void *>(ptr);\n",
     ["pointer-output"]),
    ("random_shuffle",
     "std::random_shuffle(v.begin(), v.end());\n",
     ["unseeded-shuffle"]),
    ("shuffle from random_device",
     "std::shuffle(v.begin(), v.end(), "
     "std::mt19937(std::random_device()()));\n",
     ["unseeded-shuffle", "random-device"]),
    ("seeded shuffle is fine",
     "std::shuffle(v.begin(), v.end(), engineFrom(rng));\n",
     []),
    ("banned token inside a comment is fine",
     "// the lease claim records wall time via system_clock\n"
     "std::uint64_t claimMs = lease.claimMs;\n",
     []),
    ("banned token inside a string is fine",
     'fatal("do not call rand() here");\n',
     []),
    ("allow on the same line",
     "std::unordered_map<int, int> m_;\n"
     "void f() { for (const auto &[k, v] : m_) n += v; } "
     "// determinism: allow(unordered-iteration, commutative sum)\n",
     []),
    ("allow on the line above",
     "std::unordered_map<int, int> m_;\n"
     "// determinism: allow(unordered-iteration, commutative sum)\n"
     "void f() { for (const auto &[k, v] : m_) n += v; }\n",
     []),
    ("allow for the wrong rule does not suppress",
     "// determinism: allow(libc-rand, wrong rule)\n"
     "auto t = std::chrono::system_clock::now();\n",
     ["wall-clock"]),
]

SELF_TEST_PROBLEM_CASES = [
    ("allow without a reason",
     "// determinism: allow(wall-clock)\n"
     "auto t = std::chrono::system_clock::now();\n"),
    ("allow naming an unknown rule",
     "// determinism: allow(no-such-rule, because)\n"),
    ("stale allow",
     "// determinism: allow(libc-rand, nothing here uses rand)\n"
     "int x = 1;\n"),
    ("malformed annotation",
     "// determinism: allways(libc-rand, typo)\n"),
]


def self_test():
    failures = 0
    for name, snippet, expected in SELF_TEST_CASES:
        findings, problems = scan_text(pathlib.Path("<fixture>"),
                                       snippet)
        got = sorted(f.rule for f in findings if f.allowed is None)
        wrong_problems = [
            p for p in problems
            if "wrong rule" not in name and "stale" not in p.message]
        if got != sorted(expected):
            print(f"self-test FAILED: {name}: expected "
                  f"{sorted(expected)}, got {got}")
            failures += 1
        elif wrong_problems and "allow for the wrong rule" not in name:
            print(f"self-test FAILED: {name}: unexpected problems "
                  f"{[p.message for p in wrong_problems]}")
            failures += 1
    for name, snippet in SELF_TEST_PROBLEM_CASES:
        _findings, problems = scan_text(pathlib.Path("<fixture>"),
                                        snippet)
        if not problems:
            print(f"self-test FAILED: {name}: expected an annotation "
                  "problem, got none")
            failures += 1
    total = len(SELF_TEST_CASES) + len(SELF_TEST_PROBLEM_CASES)
    print(f"self-test: {total - failures}/{total} fixtures passed")
    return failures == 0


def main():
    parser = argparse.ArgumentParser(
        description="ban nondeterminism sources in result paths")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint "
                             "(default: src)")
    parser.add_argument("--json", metavar="OUT",
                        help="also write findings as JSON (for the CI "
                             "summary artifact)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in fixture suite")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args()

    if args.list_rules:
        for rule, (summary, hint) in sorted(RULES.items()):
            print(f"{rule}: {summary}\n    fix: {hint}")
        return 0
    if args.self_test:
        return 0 if self_test() else 1

    paths = args.paths or ["src"]
    findings, problems, exempt = lint_paths(paths)
    ok = report(findings, problems, exempt)

    if args.json:
        payload = {
            "gate": "determinism-lint",
            "passed": ok,
            "violations": [f.as_dict() for f in findings
                           if f.allowed is None],
            "allowed": [f.as_dict() for f in findings
                        if f.allowed is not None],
            "annotation_problems": [p.as_dict() for p in problems],
            "exempt_files": [{"file": f, "reason": r}
                             for f, r in exempt],
        }
        pathlib.Path(args.json).write_text(
            json.dumps(payload, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
