"""arnet-analyze command line.

    python3 tools/arnet_analyze [--root DIR] [PATH...] \
        [--baseline FILE] [--write-baseline FILE] [--json FILE] [--list-rules]

PATHs default to `src bench tests examples` and are resolved relative to --root
(default: the repo root inferred from this package's location), so the ctest
gate can run from build/ with stable root-relative finding paths.

Exit codes: 0 clean, 1 findings / stale baseline / stale or malformed
suppressions, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import baseline as baseline_mod
from . import lexer, report, suppress
from .rules import ALL_RULES, Context, Finding, rule_catalog

SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}


def collect_files(root: Path, paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for arg in paths:
        p = (root / arg) if not Path(arg).is_absolute() else Path(arg)
        if p.is_dir():
            files.extend(sorted(
                f for f in p.rglob("*") if f.suffix in SOURCE_SUFFIXES))
        elif p.is_file():
            files.append(p)
        else:
            print(f"arnet-analyze: no such path: {arg}", file=sys.stderr)
            return []
    return files


def analyze(root: Path, files: list[Path]):
    """Run every applicable rule over every file.

    Returns (active_findings, suppression_set, files_scanned)."""
    ctx = Context(root)
    findings: list[Finding] = []
    supp_sets = []
    for f in files:
        rel = f.relative_to(root).as_posix() if f.is_relative_to(root) \
            else f.as_posix()
        lexed = lexer.lex(rel, f.read_text(encoding="utf-8", errors="replace"))
        supp = suppress.collect(lexed)
        supp_sets.append(supp)
        for rule in ALL_RULES:
            if not rule.applies(rel):
                continue
            for finding in rule.check(lexed, ctx):
                if not supp.try_suppress(rel, finding.line, finding.rule):
                    findings.append(finding)
    return findings, suppress.merge(supp_sets), len(files)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="arnet-analyze", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", default=None,
                    help="files or directories (default: src bench tests examples)")
    ap.add_argument("--root", default=None,
                    help="repo root (default: inferred from the package path)")
    ap.add_argument("--baseline", default=None,
                    help="baseline JSON; matching findings are not active")
    ap.add_argument("--write-baseline", default=None, metavar="FILE",
                    help="write the active findings as a new baseline and exit 0")
    ap.add_argument("--json", default=None, metavar="FILE",
                    help="write the arnet-analyze-v1 findings report")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule catalog and exit")
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0,) else 0

    if args.list_rules:
        for r in rule_catalog():
            print(f"{r['id']:22s} {r['description']}")
        return 0

    root = Path(args.root).resolve() if args.root \
        else Path(__file__).resolve().parents[2]
    paths = args.paths or ["src", "bench", "tests", "examples"]
    files = collect_files(root, paths)
    if not files:
        print("arnet-analyze: nothing to scan", file=sys.stderr)
        return 2

    findings, supp, files_scanned = analyze(root, files)
    findings.sort(key=lambda f: (f.file, f.line, f.rule))

    # Suppression hygiene: a justification is mandatory, and a suppression
    # that matched nothing is itself a finding.
    for file, line, why in supp.malformed:
        findings.append(Finding(file=file, line=line, rule="bad-suppression",
                                message=why, snippet=""))
    for s in supp.stale():
        findings.append(Finding(
            file=s.file, line=s.comment_line, rule="stale-suppression",
            message=(f"suppression for {','.join(s.rules)} matched no "
                     "finding; remove it"),
            snippet=""))

    if args.write_baseline:
        # Suppression hygiene is never baselined: a bad or stale NOLINT must
        # be fixed at the annotation, not carried as debt.
        baselinable = [f for f in findings
                       if f.rule not in ("bad-suppression", "stale-suppression")]
        Path(args.write_baseline).write_text(baseline_mod.dump(baselinable),
                                             encoding="utf-8")
        print(f"arnet-analyze: wrote baseline with {len(baselinable)} "
              f"finding(s) to {args.write_baseline}")
        return 0

    baselined = 0
    stale_baseline: list[str] = []
    if args.baseline:
        try:
            base = baseline_mod.load(args.baseline)
        except (OSError, ValueError, KeyError) as e:
            print(f"arnet-analyze: cannot load baseline: {e}", file=sys.stderr)
            return 2
        active = []
        for f in findings:
            if f.rule not in ("bad-suppression", "stale-suppression") \
                    and base.try_consume(f):
                baselined += 1
            else:
                active.append(f)
        findings = active
        for (file, rule, snippet), n in base.stale():
            stale_baseline.append(
                f"stale baseline entry: {file} [{rule}] {snippet!r} x{n} "
                "matched nothing; remove it")

    for f in findings:
        print(f"{f.file}:{f.line}: [{f.rule}] {f.message}")
        if f.snippet:
            print(f"    {f.snippet}")
    for msg in stale_baseline:
        print(msg)

    if args.json:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            report.render([str(p) for p in paths], files_scanned, findings,
                          baselined, sum(1 for s in supp.suppressions if s.used)),
            encoding="utf-8")

    used = sum(1 for s in supp.suppressions if s.used)
    if findings or stale_baseline:
        print(f"\narnet-analyze: {len(findings)} active finding(s), "
              f"{len(stale_baseline)} stale baseline entr(y/ies) "
              f"in {files_scanned} files")
        return 1
    print(f"arnet-analyze: clean ({files_scanned} files, {baselined} "
          f"baselined, {used} justified suppression(s) in use)")
    return 0
