"""The docs name only what exists.

Three checks, one gate: every program file (``.py`` under ``src/repro/``,
``tests/``, ``benchmarks/``, ``bench/`` or ``examples/``) that README.md,
DESIGN.md, EXPERIMENTS.md or the verify skill names exists; every
``make`` target they name (in a code span or at the start of a code
line) is one the Makefile defines; and every row of DESIGN.md §5's
extension table names modules that exist and a claim file (a
``benchmarks/bench_*.py`` row, ``bench/workloads.py`` or an example)
that imports each of them.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: the three top-level docs and the repo's skill notes (the verify recipe)
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md") + tuple(
    str(p.relative_to(ROOT)) for p in sorted(ROOT.glob(".*/skills/*/SKILL.md"))
)
TREES = ("src/repro/", "tests/", "benchmarks/", "bench/", "examples/")
PACKAGES = {p.name for p in (ROOT / "src" / "repro").iterdir() if p.is_dir()}
#: a slash-separated ``.py`` path, not the tail of a longer one or a glob
PY_PATH = re.compile(r"(?<![\w/.*-])((?:\w+/)+\w+\.py)\b")
CLAIM = re.compile(r"(benchmarks/bench_\w+|bench/workloads|examples/\w+)\.py")
#: ``make <target>`` opening a code span or a code line (prose such as
#: "make one call" is neither)
MAKE_USE = re.compile(r"(?:^|`)make ([\w-]+)", re.M)
#: a rule's target at the start of a Makefile line (not ``.PHONY``, not
#: a ``NAME ?= value`` variable)
MAKE_RULE = re.compile(r"^([\w-]+):", re.M)


def program_file(token):
    """The repo file a doc's path names, or ``None`` if it names none of
    the program trees (``machine/scu.py`` is read under ``src/repro/``)."""
    if token.startswith(TREES):
        return ROOT / token
    if token.startswith("repro/"):
        return ROOT / "src" / token
    if token.split("/")[0] in PACKAGES:
        return ROOT / "src" / "repro" / token
    return None


def missing_files():
    missing = []
    for doc in DOCS:
        for token in PY_PATH.findall((ROOT / doc).read_text()):
            path = program_file(token)
            if path is not None and not path.is_file():
                missing.append(f"{doc} names {token}, which does not exist")
    return missing


def missing_targets():
    defined = set(MAKE_RULE.findall((ROOT / "Makefile").read_text()))
    return [
        f"{doc} names `make {target}`, which the Makefile does not define"
        for doc in DOCS
        for target in MAKE_USE.findall((ROOT / doc).read_text())
        if target not in defined
    ]


def is_module(name):
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:  # a parent is missing, or is no package
        return False


def imported_modules(path):
    """Every module ``path`` imports, a name imported from a package
    counted as the module that defines it."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
            if node.module.split(".")[0] != "repro":
                continue
            package = importlib.import_module(node.module)
            for alias in node.names:
                sub = f"{node.module}.{alias.name}"
                if is_module(sub):
                    modules.add(sub)
                else:  # a constant counts as the module it is read from
                    obj = getattr(package, alias.name)
                    modules.add(getattr(obj, "__module__", node.module))
    return modules


def extension_rows(design):
    """DESIGN.md §5's table rows as ``{column: cell}``."""
    section = design.split("\n## 5.", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    header = [cell.strip() for cell in lines[0].strip("|").split("|")]
    return [
        dict(zip(header, (cell.strip() for cell in line.strip("|").split("|"))))
        for line in lines[2:]
    ]


def extension_faults():
    faults = []
    for row in extension_rows((ROOT / "DESIGN.md").read_text()):
        name = row["Extension"]
        claim = CLAIM.fullmatch(row.get("Claim", "").strip("`"))
        if claim is None or not (ROOT / claim.group(0)).is_file():
            faults.append(f"§5 {name!r}: no claim file in {row.get('Claim')!r}")
            continue
        imported = imported_modules(ROOT / claim.group(0))
        for module in re.findall(r"`([\w.]+)`", row["Module(s)"]):
            full = f"repro.{module}"
            if not is_module(full):
                faults.append(f"§5 {name!r}: module {module} does not exist")
            elif full not in imported:
                faults.append(f"§5 {name!r}: {claim.group(0)} does not import {module}")
    return faults


def test_docs_name_only_what_exists():
    assert missing_files() + missing_targets() + extension_faults() == []
