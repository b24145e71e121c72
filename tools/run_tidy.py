#!/usr/bin/env python3
"""clang-tidy driver with a committed-baseline diff gate.

CI must fail on findings *introduced by a PR*, not on whatever the
latest clang-tidy happens to think of pre-existing code — otherwise
the first toolchain bump turns every open branch red at once. So:

  1. run clang-tidy (check set: the repo's .clang-tidy) over every
     src/ translation unit in the compilation database,
  2. aggregate findings to (file, check) -> count, dropping line
     numbers so unrelated edits shifting code around do not churn
     the gate,
  3. diff against the committed baseline (tools/tidy_baseline.txt)
     and fail ONLY when a (file, check) pair is new or its count
     grew. Full finding text for the offending pairs is printed and
     written to --diff-out for the CI artifact.

Baseline entries that no longer reproduce are reported as stale (a
nudge to shrink the file via --update-baseline) but never fail the
gate. The baseline is expected to sit at or near zero entries; it is
a ratchet, not a dumping ground.

clang-tidy is not installed in the pinned dev container. Without
--require the driver prints a notice and exits 0 so local `ctest`
style loops keep working; CI passes --require so a missing tool is a
hard configuration error, never a silent skip.

Usage:
    python3 tools/run_tidy.py [--build-dir build] [--require]
                              [--update-baseline] [--json OUT]
                              [--diff-out OUT]
"""

import argparse
import concurrent.futures
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
BASELINE = REPO / "tools" / "tidy_baseline.txt"

# `path:line:col: warning: message [check-a,check-b]`
FINDING_RE = re.compile(
    r"^(?P<path>[^:\n]+):(?P<line>\d+):(?P<col>\d+):\s+"
    r"(?P<kind>warning|error):\s+(?P<msg>.*?)\s+"
    r"\[(?P<checks>[\w.,-]+)\]$")

CANDIDATE_NAMES = ["clang-tidy"] + [
    f"clang-tidy-{v}" for v in range(20, 13, -1)]


def find_clang_tidy(explicit):
    if explicit:
        return explicit if shutil.which(explicit) else None
    env = os.environ.get("CLANG_TIDY")
    if env:
        return env if shutil.which(env) else None
    for name in CANDIDATE_NAMES:
        if shutil.which(name):
            return name
    return None


def source_files(build_dir):
    """src/ translation units from the compilation database (skips
    vendored googletest, tests, examples: headers still get covered
    through HeaderFilterRegex when TUs include them)."""
    db_path = build_dir / "compile_commands.json"
    if not db_path.exists():
        raise SystemExit(
            f"fatal: {db_path} not found — configure with cmake "
            "first (CMAKE_EXPORT_COMPILE_COMMANDS is on by default)")
    db = json.loads(db_path.read_text())
    files = []
    src_root = (REPO / "src").resolve()
    for entry in db:
        f = pathlib.Path(entry["file"])
        if not f.is_absolute():
            f = pathlib.Path(entry["directory"]) / f
        f = f.resolve()
        if src_root in f.parents:
            files.append(f)
    return sorted(set(files))


def run_one(clang_tidy, build_dir, path):
    proc = subprocess.run(
        [clang_tidy, "--quiet", "-p", str(build_dir), str(path)],
        capture_output=True, text=True)
    findings = []
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line.strip())
        if not m:
            continue
        p = pathlib.Path(m.group("path"))
        try:
            rel = p.resolve().relative_to(REPO).as_posix()
        except ValueError:
            continue  # system / third-party header
        for check in m.group("checks").split(","):
            findings.append({
                "file": rel,
                "line": int(m.group("line")),
                "check": check,
                "message": m.group("msg"),
            })
    return findings


def aggregate(findings):
    counts = {}
    for f in findings:
        key = (f["file"], f["check"])
        counts[key] = counts.get(key, 0) + 1
    return counts


def load_baseline():
    counts = {}
    if not BASELINE.exists():
        return counts
    for raw in BASELINE.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3 or not parts[0].isdigit():
            raise SystemExit(
                f"fatal: malformed baseline line: {raw!r} "
                "(want '<count> <file> <check>')")
        counts[(parts[1], parts[2])] = int(parts[0])
    return counts


def write_baseline(counts):
    lines = [
        "# clang-tidy baseline: pre-existing (file, check) finding",
        "# counts that tools/run_tidy.py tolerates. CI fails only on",
        "# findings NOT covered here — new pairs or grown counts.",
        "# Regenerate with: python3 tools/run_tidy.py "
        "--update-baseline",
        "# Policy: this file is a ratchet. Entries may be removed as",
        "# findings are fixed, never added to dodge a gate failure a",
        "# PR itself introduced.",
    ]
    for (path, check), n in sorted(counts.items()):
        lines.append(f"{n} {path} {check}")
    BASELINE.write_text("\n".join(lines) + "\n")


def main():
    parser = argparse.ArgumentParser(
        description="clang-tidy with a committed-baseline diff gate")
    parser.add_argument("--build-dir", default="build",
                        help="build tree holding "
                             "compile_commands.json (default: build)")
    parser.add_argument("--clang-tidy", default=None,
                        help="clang-tidy binary to use (default: "
                             "$CLANG_TIDY or PATH search)")
    parser.add_argument("--require", action="store_true",
                        help="fail if clang-tidy is missing instead "
                             "of degrading to a no-op (CI mode)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite tools/tidy_baseline.txt from "
                             "this run's findings")
    parser.add_argument("--jobs", type=int,
                        default=max(1, os.cpu_count() or 1),
                        help="parallel clang-tidy processes")
    parser.add_argument("--json", metavar="OUT",
                        help="write a machine-readable gate result "
                             "(for the CI summary artifact)")
    parser.add_argument("--diff-out", metavar="OUT",
                        help="write new-finding details here on "
                             "failure (uploaded as a CI artifact)")
    args = parser.parse_args()

    clang_tidy = find_clang_tidy(args.clang_tidy)
    if clang_tidy is None:
        msg = ("run_tidy: no clang-tidy binary found (tried "
               f"{', '.join(CANDIDATE_NAMES)})")
        if args.require:
            print(msg + " and --require is set", file=sys.stderr)
            return 2
        print(msg + "; skipping (install clang-tidy or run in CI "
              "for the real gate)")
        return 0

    build_dir = pathlib.Path(args.build_dir).resolve()
    files = source_files(build_dir)
    print(f"run_tidy: {clang_tidy} over {len(files)} TUs "
          f"({args.jobs} jobs)")

    findings = []
    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        for batch in pool.map(
                lambda p: run_one(clang_tidy, build_dir, p), files):
            findings.extend(batch)
    # The same header finding surfaces once per including TU; distinct
    # (file, line, check, message) is the real finding set.
    unique = {(f["file"], f["line"], f["check"], f["message"]): f
              for f in findings}
    findings = sorted(unique.values(),
                      key=lambda f: (f["file"], f["line"], f["check"]))
    counts = aggregate(findings)

    if args.update_baseline:
        write_baseline(counts)
        print(f"run_tidy: baseline rewritten with {len(counts)} "
              f"(file, check) entries "
              f"({sum(counts.values())} findings)")
        return 0

    baseline = load_baseline()
    new_pairs = {}
    for key, n in sorted(counts.items()):
        allowed = baseline.get(key, 0)
        if n > allowed:
            new_pairs[key] = (n, allowed)
    stale = sorted(k for k in baseline if counts.get(k, 0) == 0)

    diff_lines = []
    for (path, check), (n, allowed) in sorted(new_pairs.items()):
        diff_lines.append(
            f"NEW {path} [{check}]: {n} finding(s), baseline "
            f"allows {allowed}")
        for f in findings:
            if f["file"] == path and f["check"] == check:
                diff_lines.append(
                    f"  {f['file']}:{f['line']}: {f['message']}")
    for path, check in stale:
        diff_lines.append(
            f"STALE {path} [{check}]: baseline entry no longer "
            "reproduces — shrink via --update-baseline")

    for line in diff_lines:
        print(line)
    if args.diff_out and diff_lines:
        pathlib.Path(args.diff_out).write_text(
            "\n".join(diff_lines) + "\n")

    ok = not new_pairs
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps({
            "gate": "clang-tidy-baseline-diff",
            "passed": ok,
            "tool": clang_tidy,
            "translation_units": len(files),
            "findings": len(findings),
            "baseline_entries": len(baseline),
            "new": [{"file": p, "check": c, "count": n,
                     "baseline": a}
                    for (p, c), (n, a) in sorted(new_pairs.items())],
            "stale": [{"file": p, "check": c} for p, c in stale],
        }, indent=2) + "\n")

    if ok:
        print(f"run_tidy: gate passed — {len(findings)} finding(s), "
              f"all covered by the {len(baseline)}-entry baseline"
              + (f"; {len(stale)} stale entr(y/ies)" if stale else ""))
        return 0
    print(f"run_tidy: gate FAILED — {len(new_pairs)} new "
          "(file, check) pair(s); fix them (preferred) or discuss "
          "before touching the baseline", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
