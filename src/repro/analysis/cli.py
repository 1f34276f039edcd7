"""``python -m repro.analysis`` — the reprolint command-line gate.

Usage::

    python -m repro.analysis src/                 # every rule, exit 0/1
    python -m repro.analysis --protocol           # SCU link-protocol enumeration
    python -m repro.analysis tests/ --hygiene     # REPRO401/402 only
    python -m repro.analysis src/ --format json   # machine-readable
    python -m repro.analysis --list-rules         # the rule catalogue
    python -m repro.analysis src/ --select REPRO101,REPRO504
    python -m repro.analysis src/ --allowlist path/to/.reprolint-allow

Exit codes: **0** clean (no findings outside the allowlist), **1**
findings present (or files failed to parse, or the allowlist carries a
stale entry, or the protocol verifier failed), **2** usage error.  The
allowlist defaults to the ``.reprolint-allow`` found walking up from
the first scanned path (the repository root's checked-in file).

Modes:

* default — every rule of the catalogue (REPRO1xx-5xx), each over the
  whole scan: the REPRO5xx rules follow calls across files, so a scan
  of part of a tree sees less than a scan of all of it;
* ``--select`` — exactly the rules it names;
* ``--hygiene`` — only the API-hygiene rules (REPRO401/402), the mode
  ``make lint`` applies to ``tests/`` and ``benchmarks/`` where the
  simulator-semantics rules would misread fixture code;
* ``--protocol`` — no scanning at all: run the bounded enumeration of
  the installed ``repro.machine.scu`` link protocol
  (:mod:`repro.analysis.protocol`), print each failing case as the
  ``Case(...)`` that replays it, and the count of cases run and failing.

A **stale** allowlist entry — its rule ran, its file was scanned, and
nothing was suppressed — fails the run loudly instead of warning:
silently-rotting suppressions are how allowlists outlive the findings
they excused.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Type

from repro.analysis.allowlist import Allowlist, AllowEntry, find_default_allowlist
from repro.util.errors import ConfigError
from repro.analysis.engine import (
    LintEngine,
    LintResult,
    Rule,
    all_rules,
    iter_python_files,
)

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

#: the rules ``--hygiene`` keeps (API hygiene / layering only)
HYGIENE_RULES = ("REPRO401", "REPRO402")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="reprolint: simulator-aware static analysis for repro",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path, help="files or directories to scan"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--allowlist",
        type=Path,
        default=None,
        help="allowlist file (default: nearest .reprolint-allow above "
        "the first scanned path)",
    )
    parser.add_argument(
        "--no-allowlist",
        action="store_true",
        help="ignore any allowlist (report raw findings)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: every rule)",
    )
    parser.add_argument(
        "--hygiene",
        action="store_true",
        help="run only the API-hygiene rules (REPRO401/402); for "
        "tests/ and benchmarks/ where fixture code is expected",
    )
    parser.add_argument(
        "--protocol",
        action="store_true",
        help="run the bounded enumeration of the SCU link protocol and exit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for cls in all_rules():
        lines.append(f"{cls.rule_id}  {cls.name}")
        lines.append(f"    {cls.summary}")
    return "\n".join(lines)


def _select_rules(args: argparse.Namespace) -> List[Type[Rule]]:
    """The rule set --select/--hygiene name (ValueError on an unknown id)."""
    rules = all_rules()
    if args.select:
        wanted = {r.strip() for r in args.select.split(",") if r.strip()}
        unknown = wanted - {cls.rule_id for cls in rules}
        if unknown:
            raise ValueError(f"unknown rule id(s): {sorted(unknown)}")
        return [cls for cls in rules if cls.rule_id in wanted]
    if args.hygiene:
        return [cls for cls in rules if cls.rule_id in HYGIENE_RULES]
    return rules


def _stale_entries(
    result: LintResult,
    allowlist: Allowlist,
    rules: Sequence[Type[Rule]],
    paths: Sequence[Path],
) -> List[AllowEntry]:
    """Entries that provably excuse nothing in *this* run.

    Stale needs all three: the entry's rule ran, its file was among
    the scanned paths, and still nothing was suppressed.  A partial
    scan or a ``--select`` that skipped the rule proves nothing and
    stays a warning.
    """
    ran = {cls.rule_id for cls in rules}
    scanned = {relpath for _path, relpath in iter_python_files(paths)}
    used = {(f.rule, f.path) for f in result.suppressed}
    return [
        e
        for e in allowlist.entries
        if e.rule in ran and e.path in scanned and (e.rule, e.path) not in used
    ]


def _render_text(
    result: LintResult, allowlist: Allowlist, stale: Sequence[AllowEntry]
) -> str:
    lines: List[str] = []
    for finding in result.parse_errors + result.findings:
        lines.append(finding.format())
    stale_keys = {(e.rule, e.path) for e in stale}
    for entry in allowlist.entries:
        used = any(
            (f.rule, f.path) == (entry.rule, entry.path)
            for f in result.suppressed
        )
        if used:
            continue
        if (entry.rule, entry.path) in stale_keys:
            lines.append(
                f"error: stale allowlist entry (rule ran, file scanned, "
                f"nothing suppressed): {entry.format()}"
            )
        else:
            lines.append(f"warning: unused allowlist entry: {entry.format()}")
    verdict = "clean" if result.clean else f"{len(result.findings)} finding(s)"
    lines.append(
        f"reprolint: {result.files_scanned} file(s) scanned, {verdict}, "
        f"{len(result.suppressed)} suppressed by allowlist"
    )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return EXIT_CLEAN
    if args.hygiene and args.select:
        print(
            "error: --hygiene and --select are mutually exclusive",
            file=sys.stderr,
        )
        return EXIT_USAGE

    if args.protocol:
        from repro.analysis.protocol import verify_protocol

        report = verify_protocol()
        print(report.format())
        if not report.ok:
            return EXIT_FINDINGS
        if not args.paths:
            return EXIT_CLEAN
        # fall through: --protocol plus paths runs both gates

    if not args.paths:
        parser.print_usage(sys.stderr)
        print(
            "error: no paths given (or use --list-rules / --protocol)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    for path in args.paths:
        if not path.exists():
            print(f"error: no such path: {path}", file=sys.stderr)
            return EXIT_USAGE

    try:
        rules = _select_rules(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.no_allowlist:
            allowlist = Allowlist.empty()
        elif args.allowlist is not None:
            if not args.allowlist.is_file():
                print(
                    f"error: no such allowlist: {args.allowlist}",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            allowlist = Allowlist.load(args.allowlist)
        else:
            found = find_default_allowlist(args.paths[0])
            allowlist = Allowlist.load(found) if found else Allowlist.empty()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    engine = LintEngine(rules=rules, allowlist=allowlist)
    result = engine.run(args.paths)
    stale = _stale_entries(result, allowlist, rules, args.paths)

    if args.format == "json":
        payload = result.to_dict()
        payload["unused_allowlist_entries"] = result.unused_allow_entries(allowlist)
        payload["stale_allowlist_entries"] = [e.format() for e in stale]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(_render_text(result, allowlist, stale))
    if not result.clean or stale:
        return EXIT_FINDINGS
    return EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
