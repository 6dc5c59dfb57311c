#!/usr/bin/env python3
"""Line-coverage gate for the core shortcut path (docs/TESTING.md).

Aggregates gcov line coverage across every object in a --coverage build
(the `coverage` CMake preset) after the test suite has run, reports
per-file and aggregate line coverage for the gated directories (the
daemon + QoS layer in src/core/ and the virtio/shm layer in src/virt/ by
default), and fails when the aggregate drops below --fail-under.

No gcovr/lcov dependency: gcov 9+ emits JSON natively (--json-format),
which this script unions across translation units (a line is covered if
ANY test binary executed it).

Usage:
    cmake --preset coverage && cmake --build --preset coverage -j
    ctest --preset coverage -j
    python3 tools/coverage_gate.py --build-dir build-coverage \
        --fail-under 80 --output coverage-summary.txt
"""

import argparse
import json
import os
import subprocess
import sys


def find_gcda(build_dir):
    out = []
    for root, _dirs, files in os.walk(build_dir):
        for f in files:
            if f.endswith(".gcda"):
                out.append(os.path.join(root, f))
    return sorted(out)


def run_gcov(gcda):
    """Returns the parsed gcov JSON for one .gcda (empty on gcov failure)."""
    try:
        proc = subprocess.run(
            ["gcov", "--json-format", "--stdout", gcda],
            capture_output=True,
            check=True,
        )
    except (subprocess.CalledProcessError, FileNotFoundError):
        return {}
    try:
        return json.loads(proc.stdout.decode("utf-8", "replace"))
    except json.JSONDecodeError:
        return {}


def normalize(path, repo_root):
    """Repo-relative path for a source file mentioned by gcov, or None."""
    p = os.path.realpath(os.path.join(repo_root, path) if not os.path.isabs(path) else path)
    root = os.path.realpath(repo_root) + os.sep
    if not p.startswith(root):
        return None
    return p[len(root):]


def collect(docs, prefixes, repo_root):
    """file -> {line_number -> hit} for the gated sources in gcov JSON docs;
    a line is hit if ANY doc (translation unit) executed it."""
    lines = {}
    for data in docs:
        for f in data.get("files", []):
            rel = normalize(f.get("file", ""), repo_root)
            if rel is None or not any(rel.startswith(p + "/") or rel == p for p in prefixes):
                continue
            per = lines.setdefault(rel, {})
            for ln in f.get("lines", []):
                n = ln.get("line_number")
                per[n] = per.get(n, False) or ln.get("count", 0) > 0
    return lines


def summarize(lines, prefixes):
    """Returns (report text, aggregate %). A file with no instrumented lines
    (GCC's gcov marks coroutine bodies non-executable, so a coroutine-only
    file has none) is listed as 0/0 and left out of the total; the
    aggregate is None when no file has any."""
    width = max(len(rel) for rel in lines)
    out = []
    tot_lines = tot_hit = 0
    for rel in sorted(lines):
        per = lines[rel]
        if not per:
            out.append(f"{rel:<{width}}  {0:>5}/{0:<5}  (no instrumented lines)")
            continue
        hit = sum(1 for v in per.values() if v)
        out.append(f"{rel:<{width}}  {hit:>5}/{len(per):<5}  {100.0 * hit / len(per):6.1f}%")
        tot_lines += len(per)
        tot_hit += hit
    pct = 100.0 * tot_hit / tot_lines if tot_lines else None
    out.append("-" * (width + 22))
    total = f"{pct:6.1f}%" if pct is not None else "(no instrumented lines)"
    out.append(f"{'TOTAL (' + ', '.join(prefixes) + ')':<{width}}  "
               f"{tot_hit:>5}/{tot_lines:<5}  {total}")
    return "\n".join(out), pct


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build-coverage")
    ap.add_argument(
        "--prefix",
        action="append",
        default=None,
        help="repo-relative directory to gate on (repeatable; "
        "default: src/core src/virt)",
    )
    ap.add_argument("--fail-under", type=float, default=None,
                    help="fail when aggregate line coverage %% is below this")
    ap.add_argument("--output", default=None, help="also write the summary here")
    args = ap.parse_args(argv)
    prefixes = args.prefix or ["src/core", "src/virt"]
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    gcdas = find_gcda(args.build_dir)
    if not gcdas:
        print(f"coverage_gate: no .gcda files under {args.build_dir} — "
              "build with the `coverage` preset and run ctest first",
              file=sys.stderr)
        return 2

    lines = collect((run_gcov(g) for g in gcdas), prefixes, repo_root)
    if not lines:
        print("coverage_gate: no gated sources appear in the gcov output",
              file=sys.stderr)
        return 2

    summary, pct = summarize(lines, prefixes)
    print(summary)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(summary + "\n")

    if pct is None and args.fail_under is not None:
        print("\ncoverage_gate: FAIL — no gated file has instrumented lines",
              file=sys.stderr)
        return 1
    if args.fail_under is not None and pct < args.fail_under:
        print(f"\ncoverage_gate: FAIL — aggregate {pct:.1f}% is below the "
              f"{args.fail_under:.1f}% floor", file=sys.stderr)
        return 1
    if args.fail_under is not None:
        print(f"\ncoverage_gate: OK — aggregate {pct:.1f}% ≥ "
              f"{args.fail_under:.1f}% floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
