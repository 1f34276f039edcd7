"""Trace-schema registry regression suite (PR 3).

Two contracts are pinned here:

1. **Registry completeness** — every ``trace.emit(...)`` call site in
   ``src/repro`` uses a tag registered in
   :data:`repro.telemetry.schema.TRACE_SCHEMA` with *exactly* the field
   names the schema declares.  The test AST-scans the source tree, so an
   emission added (or a field renamed) without updating the registry
   fails here, not in some downstream dashboard.

2. **Chrome export round trip** — the Trace Event JSON produced by
   :mod:`repro.telemetry.chrometrace` survives ``json.loads`` and keeps
   per-process timestamps monotone, with span events reconstructing
   ``(start, dur)`` from the end-stamped records.

Plus the :class:`~repro.sim.trace.Trace` upgrades themselves: monotone
``seq`` ordering on detached traces (the time=0.0 ordering fix),
namespaced emitters, and the bounded ring-buffer mode.
"""

import ast
import json
import sys
from pathlib import Path

import pytest

from repro.analysis.rules.accounting import TraceSchemaRule
from repro.analysis.rules.accounting import emit_call_sites as _emit_in_tree
from repro.sim.trace import Trace, TraceRecord
from repro.telemetry.chrometrace import chrome_trace_events, export_chrome_trace
from repro.telemetry.schema import (
    SPAN_TAGS,
    TRACE_SCHEMA,
    validate_record,
    validate_trace,
)
from tests.harness import applied, booted, system

pytestmark = pytest.mark.telemetry

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: every tree whose trace emissions must agree with the registry.
#: ``tests/`` is deliberately absent: fixtures there emit bogus tags on
#: purpose (to exercise validate_record and the REPRO303 rule itself).
SCAN_ROOTS = (SRC, REPO / "benchmarks", REPO / "examples")


def _scan_tree(root):
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for call, tag, fields in _emit_in_tree(tree):
            yield path.relative_to(root), call.lineno, tag, fields


def emit_call_sites():
    """Every ``*.emit(<literal tag>, key=...)`` call in the source tree.

    Yields ``(file, lineno, tag, field_names)``.  The AST scan itself
    lives in :func:`repro.analysis.rules.accounting.emit_call_sites`
    (the REPRO303 rule) — migrated there from this module so the lint
    gate and this suite share one implementation.
    """
    yield from _scan_tree(SRC)


def emit_call_sites_everywhere():
    """The same scan over *all* trees in :data:`SCAN_ROOTS`."""
    for root in SCAN_ROOTS:
        for f, line, tag, fields in _scan_tree(root):
            yield root.name, f, line, tag, fields


# ---------------------------------------------------------------------------
# registry <-> source agreement
# ---------------------------------------------------------------------------


def test_source_scan_finds_emissions():
    """The scanner itself works: it sees the known instrumented units."""
    files = {str(f) for f, _, _, _ in emit_call_sites()}
    for expected in (
        "machine/hssl.py",
        "machine/scu.py",
        "machine/node.py",
        "machine/interrupts.py",
        "machine/globalops.py",
        "parallel/pcg.py",
    ):
        assert expected in files, f"no emit() found in {expected}"
    # compiled replay writes no record of its own: a replayed transfer's
    # link.deliver / scu.send / scu.recv come from the wire and the units
    assert "machine/replay.py" not in files


def test_every_emitted_tag_is_registered():
    unregistered = [
        (str(f), line, tag)
        for f, line, tag, _ in emit_call_sites()
        if tag not in TRACE_SCHEMA
    ]
    assert unregistered == [], f"unregistered trace tags: {unregistered}"


def test_emitted_fields_match_schema_exactly():
    drift = []
    for f, line, tag, fields in emit_call_sites():
        expected = TRACE_SCHEMA.get(tag)
        if expected is not None and fields != expected:
            drift.append(
                (
                    str(f),
                    line,
                    tag,
                    sorted(expected - fields),
                    sorted(fields - expected),
                )
            )
    assert drift == [], f"field drift (file, line, tag, missing, extra): {drift}"


def test_whole_tree_tags_and_fields_agree_with_registry():
    """Drift scan over src + benchmarks + examples (NOT tests/).

    Benchmarks and examples emit through the same registry as the
    simulator proper; a tag invented in a bench script would otherwise
    rot silently because the lint gate only scans ``src/``."""
    problems = []
    for root, f, line, tag, fields in emit_call_sites_everywhere():
        expected = TRACE_SCHEMA.get(tag)
        if expected is None:
            problems.append((root, str(f), line, tag, "unregistered"))
        elif fields != expected:
            problems.append(
                (
                    root,
                    str(f),
                    line,
                    tag,
                    f"missing={sorted(expected - fields)} "
                    f"extra={sorted(fields - expected)}",
                )
            )
    assert problems == [], f"trace-tag drift outside src/: {problems}"


def test_one_halo_pipeline_in_the_parallel_layer():
    """Structural guard: the stored-descriptor machinery is driven from
    ``parallel/halo.py`` only.

    Every distributed operator is a spec over that one pipeline; an
    operator module that stores descriptors, starts groups, drains
    ``wait_any`` or brackets a hot epoch itself has grown a second
    pipeline, and every cross-cutting feature (overlap, face batching,
    replay epochs, sanitizer checkpoints) would have to be threaded
    through both by hand."""
    pipeline_calls = {
        "store_send",
        "store_recv",
        "start_stored",
        "start_stored_events",
        "wait_any",
        "begin_hot_epoch",
    }
    found = {}
    for path in sorted((SRC / "parallel").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in pipeline_calls
            ):
                found.setdefault(node.func.attr, set()).add(path.name)
    stray = {
        call: sorted(files - {"halo.py"})
        for call, files in found.items()
        if files - {"halo.py"}
    }
    assert stray == {}, f"pipeline calls outside parallel/halo.py: {stray}"
    # ... and the scan is not vacuous: the pipeline does make them
    assert pipeline_calls - {"start_stored"} <= found.keys()


def test_one_operator_run_harness_in_the_tests():
    """Structural guard: the scatter -> program -> run -> gather
    boilerplate lives in ``repro.parallel.apply_on_machine`` and
    ``tests/harness.py``, not per suite.

    No test module defines its own ``make_machine`` or ``observables``,
    and only the decomposition's own tests scatter a gauge field or a
    tile by hand."""
    scatterers = {"harness.py", "test_parallel.py"}  # the latter tests decomp
    stray = []
    for path in sorted((REPO / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name in (
                "make_machine",
                "observables",
            ):
                stray.append(f"{path.name}: def {node.name}")
            if path.name in scatterers:
                continue
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = node.func.value
                if node.func.attr == "scatter_gauge" or (
                    node.func.attr == "scatter"
                    and isinstance(owner, ast.Attribute)
                    and owner.attr == "tiling"
                ):
                    stray.append(f"{path.name}:{node.lineno}: {node.func.attr}(")
    assert stray == [], f"per-suite run boilerplate is back: {stray}"


def test_one_cost_sheet_for_every_operator_count():
    """Structural guard: an operator's counts live in its
    ``fermions/flops.py`` cost sheet only.

    ``perfmodel/`` reads sheet fields and never compares against an
    operator name (a per-operator ladder is a second copy of the sheet
    that drifts), and the ``parallel/`` specs hand the pipeline their
    sheet, not restated hop sets and word counts."""
    from repro.fermions.flops import OPERATOR_COSTS

    def strings(node):
        return {
            n.value
            for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
        }

    ladders = []
    for path in sorted((SRC / "perfmodel").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Compare):
                named = strings(node) & OPERATOR_COSTS.keys()
                if named:
                    ladders.append(f"{path.name}:{node.lineno}: {sorted(named)}")
    assert ladders == [], f"operator-name comparisons in perfmodel/: {ladders}"

    restated = []
    sheets = 0
    for path in sorted((SRC / "parallel").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Call, ast.FunctionDef)):
                keywords = (
                    [k.arg for k in node.keywords]
                    if isinstance(node, ast.Call)
                    else [a.arg for a in node.args.args + node.args.kwonlyargs]
                )
                sheets += "cost" in keywords
                for name in ("hops", "site_words", "wire_words"):
                    if name in keywords:
                        restated.append(f"{path.name}:{node.lineno}: {name}=")
    assert restated == [], f"restated sheet counts in parallel/: {restated}"
    assert sheets >= 4  # not vacuous: the pipeline and its three specs


def test_one_linear_algebra_charge():
    """Structural guard: a solver's vector algebra is charged at one site,
    ``HaloPipeline.charge``'s ``compute(..., kernel="linalg")`` at the
    table's mix, which the Krylov core and the machine dots call.  No
    ledger of any name comes back, and no per-kernel CG rule (a dot's or
    an axpy's share of an iteration) sits on the sheet beside
    ``cg_linalg``."""
    from repro.fermions.flops import LINALG_KERNELS

    per_kernel = {f"cg_{kernel}" for kernel in LINALG_KERNELS}
    sites, retired = [], []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.alias)):
                name = node.name
            if name and ("ledger" in name.lower() or name in per_kernel):
                retired.append(f"{path.relative_to(SRC)}:{name}")
            if (
                isinstance(node, ast.keyword)
                and node.arg == "kernel"
                and isinstance(node.value, ast.Constant)
                and node.value.value == "linalg"
            ):
                sites.append(f"{path.relative_to(SRC)}:{node.value.lineno}")
    assert retired == [], f"retired linear-algebra accounting is back: {retired}"
    assert len(sites) == 1 and sites[0].startswith("parallel/halo.py:"), sites


def test_one_call_dma_claim():
    """Structural guard: the race sanitizer's DMA claim is one call,
    ``HaloRaceSanitizer.claim(done, ...)``, which registers its own
    release on ``done``.  No two-call begin/end pair comes back, nor the
    control-flow graph that only a leak check of that pair needed, and
    the claim object is built in ``analysis/sanitizer.py`` alone."""
    # spelled in parts, so that a text search of the tree for the retired
    # names finds none, this guard included
    names = {"dma_" + "begin", "dma_" + "end", "build_" + "cfg"}
    retired, built = [], []
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.alias)):
                name = node.name
            if name in names:
                retired.append(f"{rel}:{name}")
            if isinstance(node, ast.Call):
                func = node.func
                if "_DmaClaim" in (getattr(func, "id", ""), getattr(func, "attr", "")):
                    built.append(rel)
    assert retired == [], f"the two-call DMA claim is back: {retired}"
    assert built == ["analysis/sanitizer.py"], built


def test_scan_roots_exist_and_exclude_tests():
    for root in SCAN_ROOTS:
        assert root.is_dir(), f"scan root vanished: {root}"
    assert REPO / "tests" not in SCAN_ROOTS


def test_every_registered_tag_is_emitted_somewhere():
    """The registry carries no dead entries."""
    emitted = {tag for _, _, tag, _ in emit_call_sites()}
    dead = sorted(set(TRACE_SCHEMA) - emitted)
    assert dead == [], f"registered but never emitted: {dead}"


def test_reprolint_trace_rule_agrees():
    """The full REPRO303 rule (the lint-gate implementation) is clean
    over the source tree — same verdict as the fine-grained tests."""
    from repro.analysis.allowlist import Allowlist
    from repro.analysis.engine import LintEngine

    engine = LintEngine(rules=[TraceSchemaRule], allowlist=Allowlist.empty())
    result = engine.run([SRC])
    assert result.parse_errors == []
    assert [f.format() for f in result.findings] == []


def test_validate_record_flags_violations():
    ok = TraceRecord(0.0, "scu.resend", ("node", "direction", "seq"), (0, 1, 2), 0)
    assert validate_record(ok) == []
    bad_tag = TraceRecord(0.0, "scu.bogus", (), (), 1)
    assert any("unregistered" in p for p in validate_record(bad_tag))
    drift = TraceRecord(0.0, "scu.resend", ("node", "word"), (0, 9), 2)
    (problem,) = validate_record(drift)
    assert "field drift" in problem and "direction" in problem


def test_validate_trace_aggregates():
    t = Trace()
    t.emit("link.trained", link="n0.d0->n1")
    t.emit("nope.nope")
    assert len(validate_trace(t)) == 1


def test_span_tags_are_the_dur_tags():
    for tag in SPAN_TAGS:
        assert "dur" in TRACE_SCHEMA[tag]
    for tag in set(TRACE_SCHEMA) - SPAN_TAGS:
        assert "dur" not in TRACE_SCHEMA[tag]


# ---------------------------------------------------------------------------
# Trace mechanics: seq ordering, namespaces, ring buffer
# ---------------------------------------------------------------------------


def test_detached_trace_orders_by_seq():
    """A detached trace stamps time=0.0 everywhere; tagged()/last() must
    still return emission order (the ordering-fix satellite)."""
    t = Trace()
    for i in range(5):
        t.emit("cg.iteration", rank=0, iteration=i, residual=1.0 / (i + 1))
    recs = t.tagged("cg.iteration")
    assert [r.fields["iteration"] for r in recs] == [0, 1, 2, 3, 4]
    assert all(r.time == 0.0 for r in recs)
    assert [r.seq for r in recs] == [0, 1, 2, 3, 4]
    assert t.last("cg.iteration").fields["iteration"] == 4


def test_namespace_prefixes_tags():
    t = Trace()
    scu = t.namespace("scu")
    scu.emit("resend", node=0, direction=1, seq=7)
    sub = scu.namespace("dma")
    sub.emit("posted", n=1)
    assert t.tags() == {"scu.resend", "scu.dma.posted"}
    assert t.prefixed("scu")[0].tag == "scu.resend"


# ---------------------------------------------------------------------------
# Record layout: a tuple of values and one shared tuple of names
# ---------------------------------------------------------------------------


def compute_spans(t, n):
    """``n`` records from one call site (the node's compute span)."""
    for i in range(n):
        t.emit("cpu.compute", node=i, flops=2.0 * i, kernel="dslash", dur=1e-6)
    return t.tagged("cpu.compute")


def test_record_holds_no_dict_and_shares_names():
    t = Trace()
    first, *rest = compute_spans(t, 3)
    t.emit("cpu.compute", dur=1e-6, node=0, flops=0.0, kernel=None)  # another key order
    for r in t:
        assert not any(isinstance(part, dict) for part in r)
        assert not any(isinstance(v, dict) for v in r.values)
    assert all(r.names is first.names for r in rest)
    assert first.names == ("node", "flops", "kernel", "dur")
    assert t.last("cpu.compute").names == ("dur", "node", "flops", "kernel")
    # a second trace's records from the same call site share it too
    assert compute_spans(Trace(), 1)[0].names is first.names


def test_fields_round_trip():
    t = Trace()
    fields = {"rank": 3, "iteration": 7, "residual": 0.25}
    t.emit("cg.iteration", **fields)
    (r,) = t
    assert r.fields == fields and list(r.fields) == list(fields)
    assert r.values == (3, 7, 0.25)
    with pytest.raises(TypeError):
        r.fields["rank"] = 4  # read-only
    assert r._replace(seq=9).fields == fields


def test_record_bytes_are_bounded():
    """A 4-field record, its tuple and its values' tuple: 152 B on
    CPython 3.11 (a 5-slot tuple and a 4-slot one), against 256 B for the
    4-slot tuple and 184 B kwargs dict it used to be.  The names tuple is
    shared, so it is not the record's."""
    (r,) = compute_spans(Trace(), 1)
    assert len(r.values) == 4
    assert sys.getsizeof(r) + sys.getsizeof(r.values) <= 160


# ---------------------------------------------------------------------------
# Chrome-trace export round trip
# ---------------------------------------------------------------------------


def machine_trace():
    """A real machine trace: 2-node Wilson dslash with tracing on."""
    m, part = booted((2, 1, 1, 1, 1, 1), word_batch=4096, trace=True)
    gauge, psi = system((17, "chrome"), (4, 2, 2, 2))
    applied(m, part, "wilson", gauge, psi, mass=0.3)
    return m


def test_machine_trace_conforms_to_schema():
    m = machine_trace()
    assert len(m.trace) > 0
    assert validate_trace(m.trace) == []
    # the dslash run exercises compute spans and SCU protocol events
    assert {"cpu.compute", "scu.send", "scu.recv"} <= m.trace.tags()


def test_chrome_export_round_trips(tmp_path):
    m = machine_trace()
    out = export_chrome_trace(m.trace, tmp_path / "dslash.json")
    payload = json.loads(out.read_text())  # round trip through real JSON
    events = payload["traceEvents"]
    assert payload["displayTimeUnit"] == "ms"
    assert len(events) > 0

    # Trace-event format essentials
    for e in events:
        assert e["ph"] in ("X", "i", "M")
        if e["ph"] == "X":
            assert e["dur"] >= 0.0
        if e["ph"] != "M":
            assert isinstance(e["ts"], (int, float))
            assert e["ts"] >= 0.0

    # per-process timestamps are monotone non-decreasing
    by_pid = {}
    for e in events:
        if e["ph"] == "M":
            continue
        by_pid.setdefault(e["pid"], []).append(e["ts"])
    assert by_pid, "no timed events exported"
    for pid, stamps in by_pid.items():
        assert stamps == sorted(stamps), f"pid {pid} timestamps not monotone"

    # each (pid, tid) lane is named by a thread_name metadata event
    lanes = {(e["pid"], e["tid"]) for e in events if e["ph"] != "M"}
    named = {(e["pid"], e["tid"]) for e in events if e["ph"] == "M"}
    assert lanes <= named

    # spans reconstruct the end-stamped records: ts + dur == time * 1e6
    spans = [e for e in events if e["ph"] == "X" and e["name"].startswith("scu.send")]
    assert spans, "no scu.send spans exported"
    recs = m.trace.tagged("scu.send")
    ends = sorted(round(r.time * 1e6, 6) for r in recs)
    got = sorted(round(e["ts"] + e["dur"], 6) for e in spans)
    assert got == ends


def test_chrome_compute_spans_name_the_kernel():
    m = machine_trace()
    events = chrome_trace_events(m.trace)
    names = {e["name"] for e in events if e["ph"] == "X"}
    assert any(n.startswith("cpu.compute:dslash") for n in names)
