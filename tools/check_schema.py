#!/usr/bin/env python3
"""Validate arnet artifacts against their schemas.

Usage: check_schema.py FILE [FILE...]

Each file is recognised by its container (extension) and its schema tag:

  .json    arnet-bench-v1    BENCH_*.json: microbench timings or a sweep's
                             simulated outcomes
           arnet-analyze-v1  static-analyzer findings
           arnet-trace-v1    Perfetto trace-event file (tag in otherData)
  .jsonl   arnet-obs-v*      metrics registry export
           arnet-trace-v1    flight-recorder dump
           arnet-slo-v1      SLO burn/alert log
           arnet-sample-v1   tail-sampled traces
  .html    arnet-report-v1   tools/arnet_report.py report (embedded manifest)
  .pcapng  pcap-ng capture

The summary of a scale_fleet or scale_city sweep is also checked against
the <suite>_metrics.jsonl written next to it: every cell must have its
gauge family, counters and latency histogram there. The summary of a
sec_transport_shootout sweep is checked against the <suite>_slo.jsonl next
to it, when the sweep ran with --slo: every cell's SLO objective must count
each frame sent exactly once, its on-time frames as good.

Prints "FILE: OK (...)" per valid file and "FILE: <problem>" on stderr for
the first problem in an invalid one, so CI archives only coherent
artifacts. Exit 0 when every file is valid, 1 otherwise, 2 on usage.
stdlib only.
"""
import json
import os
import struct
import sys
from collections import Counter
from html.parser import HTMLParser


class Invalid(Exception):
    """The first structural problem found in a file."""


def need(cond, msg):
    if not cond:
        raise Invalid(msg)


NUM = (int, float)
# Field kinds: the predicate a value must meet and how to say so.
KINDS = {
    "str": (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    "int": (lambda v: isinstance(v, int), "an integer"),
    "count": (lambda v: isinstance(v, int) and v >= 0, "a non-negative integer"),
    "positive_int": (lambda v: isinstance(v, int) and v >= 1, "an integer >= 1"),
    "num": (lambda v: isinstance(v, NUM), "a number"),
    "nonneg": (lambda v: isinstance(v, NUM) and v >= 0, "a number >= 0"),
    "positive": (lambda v: isinstance(v, NUM) and v > 0, "a number > 0"),
    "fraction": (lambda v: isinstance(v, NUM) and 0 < v < 1, "a number in (0, 1)"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "nonempty_list": (lambda v: isinstance(v, list) and v != [], "a non-empty list"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
}


def fields(obj, where, **spec):
    """Checks obj[key] against KINDS[kind] for every key=kind in `spec`."""
    need(isinstance(obj, dict), f"{where.rstrip(': ')} is not an object")
    for key, kind in spec.items():
        ok, phrase = KINDS[kind]
        need(ok(obj.get(key)), f"{where}{key} must be {phrase}, got {obj.get(key)!r}")


# ---------------------------------------------------------------- readers
# Each reader returns (schema tag, payload for the checker).

def read_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise Invalid(f"unreadable or invalid JSON: {e}")
    need(isinstance(doc, dict), "top level is not an object")
    other = doc.get("otherData")
    tag = doc.get("schema") or (other.get("schema") if isinstance(other, dict) else None)
    return tag, doc


def read_jsonl(path):
    try:
        with open(path, encoding="utf-8") as f:
            docs = [json.loads(line) for line in (l.strip() for l in f) if line]
    except (OSError, json.JSONDecodeError) as e:
        raise Invalid(f"unreadable or invalid JSONL: {e}")
    need(docs, "empty file")
    for i, d in enumerate(docs, 1):
        need(isinstance(d, dict), f"line {i}: not an object")
    tag = docs[0].get("schema")
    # Metrics exports carry arnet-obs-v2 on a meta line; v1 files have none.
    if (tag or "").startswith("arnet-obs-") or (tag is None and docs[0].get("kind") in OBS_KINDS):
        tag = "arnet-obs"
    return tag, docs


class ReportScanner(HTMLParser):
    """Collects <script type="application/json"> payloads by id and the ids
    of all <section> elements."""

    def __init__(self):
        super().__init__()
        self.json_blobs = {}
        self.section_ids = set()
        self._script_id = None
        self._buf = []

    def handle_starttag(self, tag, attrs):
        a = dict(attrs)
        if tag == "script" and a.get("type") == "application/json" and "id" in a:
            self._script_id = a["id"]
            self._buf = []
        elif tag == "section" and "id" in a:
            self.section_ids.add(a["id"])

    def handle_endtag(self, tag):
        if tag == "script" and self._script_id is not None:
            self.json_blobs[self._script_id] = "".join(self._buf)
            self._script_id = None

    def handle_data(self, data):
        if self._script_id is not None:
            self._buf.append(data)


def read_report(path):
    try:
        with open(path, encoding="utf-8") as f:
            page = f.read()
    except OSError as e:
        raise Invalid(f"unreadable: {e}")
    scanner = ReportScanner()
    scanner.feed(page)
    raw = scanner.json_blobs.get("arnet-report-manifest")
    need(raw is not None, "no arnet-report-manifest script block")
    try:
        manifest = json.loads(raw)
    except json.JSONDecodeError as e:
        raise Invalid(f"manifest is not valid JSON: {e}")
    need(isinstance(manifest, dict), "manifest is not an object")
    return manifest.get("schema"), (manifest, scanner)


def read_pcapng(path):
    try:
        with open(path, "rb") as f:
            return "pcap-ng", f.read()
    except OSError as e:
        raise Invalid(f"unreadable: {e}")


# --------------------------------------------------------------- checkers
# Each checker raises Invalid or returns the summary printed after "OK".

LATENCY_ORDER = ("min", "p50", "p90", "p99", "max")


def check_bench(doc, path):
    fields(doc, "", suite="str", benchmarks="nonempty_list")
    names = []
    for b in doc["benchmarks"]:
        fields(b, "benchmark ", name="str")
        where = f"{b['name']}: "
        fields(b, where, iterations="positive_int", wall_time_s="positive",
               ops_per_sec="positive", sim_events_per_sec="nonneg", latency_ns="dict")
        lat = b["latency_ns"]
        fields(lat, where + "latency_ns.", mean="num", **dict.fromkeys(LATENCY_ORDER, "num"))
        quantiles = [lat[k] for k in LATENCY_ORDER]
        need(quantiles == sorted(quantiles),
             f"{where}latency quantiles disordered (min/p50/p90/p99/max = {quantiles})")
        names.append(b["name"])
    need(len(set(names)) == len(names), "duplicate benchmark names")
    sweep = SWEEPS.get(doc["suite"])
    if sweep:
        check_sweep(doc["suite"], names, sweep, path)
    good_field = SLO_LEDGERS.get(doc["suite"])
    if good_field:
        check_slo_ledger(doc["suite"], doc["benchmarks"], good_field, path)
    return f"{len(names)} benchmarks"


OBS_KINDS = ("counter", "gauge", "histogram", "series")


def index_metrics(docs):
    """{(name, entity): line} of a metrics export, checking every line."""
    out = {}
    for i, d in enumerate(docs, 1):
        where = f"line {i}: "
        kind = d.get("kind")
        if kind == "meta":
            need(str(d.get("schema", "")).startswith("arnet-obs-"),
                 f"{where}meta schema {d.get('schema')!r} is not arnet-obs-*")
            continue
        need(kind in OBS_KINDS, f"{where}unknown kind {kind!r}")
        need(d.get("name") and d.get("entity") is not None, f"{where}missing name/entity")
        for j, ex in enumerate(d.get("exemplars", []) if kind == "histogram" else []):
            need(isinstance(ex, list) and len(ex) == 3 and all(isinstance(v, NUM) for v in ex),
                 f"{where}exemplars[{j}] is not a [bucket, trace, value] triple")
        out[(d["name"], d["entity"])] = d
    need(out, "no metric lines")
    return out


def check_metrics(docs, path):
    return f"{len(index_metrics(docs))} instruments"


def fleet_aggregate(cells, metrics):
    need(any(n == "fleet.requests" and "/server:" in e for n, e in metrics),
         "no per-server fleet.requests counters")


def city_aggregate(cells, metrics):
    grid = [c for c in cells if not c.startswith("validate/")]
    pairs = [{c.rsplit("/", 1)[0] for c in cells
              if c.startswith("validate/") and c.endswith(side)}
             for side in ("/packet", "/fluid")]
    need(pairs[0] == pairs[1], "unpaired validate/ benchmarks")
    need(grid, "no grid cells in summary")
    peak = metrics.get(("city.concurrent_peak", "city"))
    need(peak is not None, "city.concurrent_peak aggregate missing")
    need(peak["value"] > 0, f"city.concurrent_peak must be positive, got {peak['value']}")
    total = metrics.get(("city.cells_total", "city"))
    need(total is not None and int(total["value"]) == len(grid),
         f"city.cells_total disagrees with summary grid cells "
         f"({total and total['value']} vs {len(grid)})")


# What a sweep's metrics export must hold for each summary cell, by suite:
# gauges (the <prefix>.p50_ms/p99_ms/miss_rate ones are also range-checked),
# counters, the latency histogram, gauges that must be positive, cell-name
# prefixes that exist only in the summary, and the sweep-wide invariants.
SWEEPS = {
    "scale_fleet": {
        "prefix": "cell",
        "gauges": ("cell.offered_users", "cell.p50_ms", "cell.p99_ms", "cell.miss_rate",
                   "cell.served_fps", "cell.rejected", "cell.servers_final"),
        "counters": ("fleet.arrivals", "fleet.frames"),
        "histogram": "fleet.m2p_ms",
        "positive": ("cell.offered_users",),
        "summary_only": (),
        "aggregate": fleet_aggregate,
    },
    "scale_city": {
        "prefix": "city",
        "gauges": ("city.peak_sessions", "city.knee_sessions", "city.p50_ms", "city.p99_ms",
                   "city.miss_rate", "city.served_fps", "city.rejected",
                   "city.first_breach_s", "slo.state"),
        "counters": ("fluid.arrivals", "fluid.served"),
        "histogram": "fluid.m2p_ms",
        "positive": (),
        "summary_only": ("validate/",),
        "aggregate": city_aggregate,
    },
}


def check_sweep(suite, cells, sweep, summary_path):
    metrics_path = os.path.join(os.path.dirname(summary_path), f"{suite}_metrics.jsonl")
    try:
        metrics = index_metrics(read_jsonl(metrics_path)[1])
    except Invalid as e:
        raise Invalid(f"{metrics_path}: {e}")
    prefix = sweep["prefix"]
    for cell in cells:
        if cell.startswith(sweep["summary_only"]):
            continue
        for g in sweep["gauges"]:
            need((g, cell) in metrics, f"{cell}: gauge {g} missing from {metrics_path}")
        value = lambda name: metrics[(f"{prefix}.{name}", cell)]["value"]
        need(value("p50_ms") <= value("p99_ms"),
             f"{cell}: {prefix}.p50_ms {value('p50_ms')} > {prefix}.p99_ms {value('p99_ms')}")
        need(0.0 <= value("miss_rate") <= 1.0,
             f"{cell}: {prefix}.miss_rate {value('miss_rate')} outside [0, 1]")
        for g in sweep["positive"]:
            need(metrics[(g, cell)]["value"] > 0, f"{cell}: {g} must be positive")
        for c in sweep["counters"]:
            need((c, cell) in metrics, f"{cell}: counter {c} missing from {metrics_path}")
        hist = metrics.get((sweep["histogram"], cell))
        need(hist is not None and hist["kind"] == "histogram",
             f"{cell}: {sweep['histogram']} histogram missing")
        need(hist.get("count", 0) >= 1, f"{cell}: {sweep['histogram']} histogram is empty")
    sweep["aggregate"](cells, metrics)


# Sweeps whose <suite>_slo.jsonl must conserve frames against the summary:
# per cell, the objective's good count is the summary field named here and
# good + miss is the cell's iterations (frames sent).
SLO_LEDGERS = {"sec_transport_shootout": "frames_on_time"}


def check_slo_ledger(suite, benchmarks, good_field, summary_path):
    slo_path = os.path.join(os.path.dirname(summary_path), f"{suite}_slo.jsonl")
    if not os.path.exists(slo_path):
        return  # a sweep run without --slo writes no log
    try:
        _, body, _ = framed(read_jsonl(slo_path)[1])
    except Invalid as e:
        raise Invalid(f"{slo_path}: {e}")
    objectives = {d.get("entity"): d for d in body if d.get("kind") == "objective"}
    for b in benchmarks:
        cell = b["name"]
        o = objectives.get(cell)
        need(o is not None, f"{cell}: no objective line in {slo_path}")
        need(o.get("good") == b.get(good_field),
             f"{cell}: SLO good {o.get('good')} != {good_field} {b.get(good_field)}")
        need(o.get("good", 0) + o.get("miss", 0) == b["iterations"],
             f"{cell}: SLO good + miss {o.get('good', 0) + o.get('miss', 0)} != "
             f"{b['iterations']} frames sent")


def check_analyze(doc, path):
    fields(doc, "", files_scanned="positive_int", rules="nonempty_list", findings="list",
           baselined="count", suppressions_used="count", summary="dict")
    need(doc.get("tool") == "arnet-analyze", f"bad tool name: {doc.get('tool')!r}")
    rule_ids = set()
    for r in doc["rules"]:
        fields(r, "rule ", id="str")
        fields(r, f"rule {r['id']}: ", description="str")
        rule_ids.add(r["id"])
    for f in doc["findings"]:
        fields(f, "finding ", file="str")
        where = f"{f['file']}: finding "
        fields(f, where, line="positive_int", message="str")
        need(f.get("rule") in rule_ids, f"{where}rule {f.get('rule')!r} not in the rule catalog")
    want = dict(Counter(f["rule"] for f in doc["findings"]))
    need(want == doc["summary"], f"summary {doc['summary']} disagrees with findings {want}")
    return (f"{len(doc['findings'])} findings, {len(rule_ids)} rules, "
            f"{doc['files_scanned']} files scanned")


def check_perfetto(doc, path):
    fields(doc, "", traceEvents="nonempty_list")
    phases = Counter()
    for i, e in enumerate(doc["traceEvents"]):
        where = f"traceEvents[{i}]: "
        need(isinstance(e, dict) and e.get("ph") in ("X", "i", "M"),
             f"{where}unexpected phase {e.get('ph') if isinstance(e, dict) else e!r}")
        fields(e, where, name="str")
        phases[e["ph"]] += 1
        if e["ph"] != "M":  # metadata events carry no timestamp
            fields(e, where, ts="nonneg")
        if e["ph"] == "X":
            fields(e, where, dur="nonneg")
    need(phases["M"], "no entity metadata (M) events")
    return (f"{len(doc['traceEvents'])} events: {phases['X']} spans, "
            f"{phases['i']} instants, {phases['M']} metadata")


def framed(docs, head_kind=None):
    """(head, body, end) of a JSONL file framed by a head and an end line."""
    need(len(docs) >= 2, "needs at least a header and an end line")
    head, end = docs[0], docs[-1]
    if head_kind:
        need(head.get("kind") == head_kind,
             f"first line kind {head.get('kind')!r}, expected {head_kind!r}")
    need(end.get("kind") == "end", f"last line kind {end.get('kind')!r}, expected 'end'")
    return head, docs[1:-1], end


def check_flight(docs, path):
    header, body, end = framed(docs, "header")
    fields(header, "header ", cause="str")
    for i, e in enumerate(body, 2):
        need(e.get("kind") == "event", f"line {i}: kind {e.get('kind')!r}, expected 'event'")
        fields(e, f"line {i}: ", t_ns="int")
    need(end.get("events") == len(body),
         f"end line says {end.get('events')} events, file has {len(body)}")
    return f"cause {header['cause']!r}, {len(body)} events"


SLO_STATES = ("ok", "slow-burn", "fast-burn")


def check_slo(docs, path):
    meta, body, end = framed(docs)
    objectives, alerts, entities = 0, 0, set()
    for i, d in enumerate(body, 2):
        where = f"line {i}: "
        kind = d.get("kind")
        need(kind in ("objective", "alert", "burn"), f"{where}unknown kind {kind!r}")
        fields(d, where, entity="str")
        need(d.get("state") in SLO_STATES, f"{where}bad state {d.get('state')!r}")
        if kind == "objective":
            fields(d, where, objective="fraction", good="count", miss="count")
            objectives += 1
            entities.add(d["entity"])
        else:
            need(d["entity"] in entities, f"{where}{kind} precedes its objective line")
            fields(d, where, t_ns="int")
            alerts += kind == "alert"
    need(meta.get("objectives") == objectives == end.get("objectives"),
         f"objective count mismatch: meta {meta.get('objectives')}, "
         f"end {end.get('objectives')}, file has {objectives}")
    need(end.get("alerts") == alerts,
         f"end line says {end.get('alerts')} alerts, file has {alerts}")
    return f"{objectives} objectives, {alerts} alerts"


SAMPLE_VERDICTS = ("miss", "drop", "outlier", "reservoir")


def check_samples(docs, path):
    _, body, end = framed(docs)
    runs, scope = 0, None
    owed = 0  # span lines the last frame line announced and not yet seen
    for i, d in enumerate(body, 2):
        where = f"line {i}: "
        kind = d.get("kind")
        if kind == "run":
            fields(d, where, scope="str", retained="count", evicted="count",
                   **dict.fromkeys(SAMPLE_VERDICTS, "count"))
            need(sum(d[v] for v in SAMPLE_VERDICTS) - d["evicted"] == d["retained"],
                 f"{where}retained {d['retained']} != verdict counts minus evictions")
            need(d.get("spans", 0) <= d.get("span_budget", 0), f"{where}spans over span_budget")
            runs += 1
            scope = d["scope"]
            continue
        need(scope is not None and d.get("scope") == scope, f"{where}{kind} outside its run scope")
        if kind == "frame":
            need(not owed, f"{where}previous frame is {owed} span lines short")
            need(d.get("verdict") in SAMPLE_VERDICTS, f"{where}bad verdict {d.get('verdict')!r}")
            need(isinstance(d.get("trace"), int) and d["trace"] != 0, f"{where}bad trace id")
            owed = d.get("spans", 0)
        elif kind == "span":
            need(owed > 0, f"{where}span line without a frame")
            fields(d, where, t_ns="int", event="str")
            owed -= 1
        elif kind == "note":
            fields(d, where, t_ns="int", reason="str")
        else:
            raise Invalid(f"{where}unknown kind {kind!r}")
    need(not owed, f"last frame is {owed} span lines short")
    need(end.get("runs") == runs, f"end line says {end.get('runs')} runs, file has {runs}")
    return f"{runs} runs"


def check_report(page, path):
    manifest, scanner = page
    fields(manifest, "manifest ", title="str", inputs="dict", sections="nonempty_list",
           cells="count", objectives="count", anomalies="count")
    for sid in manifest["sections"]:
        need(sid in scanner.section_ids,
             f"manifest lists section {sid!r} but no <section id=\"{sid}\"> exists")
    need("bench" in manifest["inputs"], "manifest inputs missing the bench path")
    for i in range(manifest["anomalies"]):
        blob = scanner.json_blobs.get(f"trace-{i}")
        need(blob is not None, f"anomaly {i} has no embedded trace blob")
        try:
            trace = json.loads(blob)
        except json.JSONDecodeError as e:
            raise Invalid(f"trace-{i} is not valid JSON: {e}")
        fields(trace, f"trace-{i} ", traceEvents="nonempty_list")
        for e in trace["traceEvents"]:
            need(isinstance(e, dict) and "ph" in e and "pid" in e,
                 f"trace-{i}: event missing ph/pid: {e}")
    return (f"{manifest['cells']} cells, {manifest['objectives']} objectives, "
            f"{manifest['anomalies']} anomalies")


SHB_TYPE = 0x0A0D0D0A
BYTE_ORDER_MAGIC = 0x1A2B3C4D
IDB_TYPE = 1
EPB_TYPE = 6


def check_pcapng(buf, path):
    need(len(buf) >= 28, "too short for a section header block")
    u32 = lambda off: struct.unpack_from("<I", buf, off)[0]
    need(u32(0) == SHB_TYPE, f"bad SHB type 0x{u32(0):08X}")
    need(u32(8) == BYTE_ORDER_MAGIC, f"bad byte-order magic 0x{u32(8):08X}")
    off, counts = 0, Counter()
    while off < len(buf):
        need(off + 12 <= len(buf), f"truncated block header at offset {off}")
        btype, blen = u32(off), u32(off + 4)
        need(blen % 4 == 0 and blen >= 12, f"block at {off}: bad length {blen}")
        need(off + blen <= len(buf), f"block at {off}: length {blen} overruns file")
        need(u32(off + blen - 4) == blen, f"block at {off}: trailing length mismatch")
        counts[btype] += 1
        off += blen
    need(counts[SHB_TYPE] == 1, f"expected exactly one SHB, found {counts[SHB_TYPE]}")
    need(counts[IDB_TYPE] == 1,
         f"expected exactly one interface block, found {counts[IDB_TYPE]}")
    need(counts[EPB_TYPE] > 0, "no Enhanced Packet Blocks (empty capture)")
    return f"{counts[EPB_TYPE]} packets"


READERS = {".json": read_json, ".jsonl": read_jsonl, ".html": read_report,
           ".pcapng": read_pcapng, ".pcap": read_pcapng}

SCHEMAS = {
    (".json", "arnet-bench-v1"): check_bench,
    (".json", "arnet-analyze-v1"): check_analyze,
    (".json", "arnet-trace-v1"): check_perfetto,
    (".jsonl", "arnet-obs"): check_metrics,
    (".jsonl", "arnet-trace-v1"): check_flight,
    (".jsonl", "arnet-slo-v1"): check_slo,
    (".jsonl", "arnet-sample-v1"): check_samples,
    (".html", "arnet-report-v1"): check_report,
    (".pcapng", "pcap-ng"): check_pcapng,
    (".pcap", "pcap-ng"): check_pcapng,
}


def check_file(path):
    """Returns the OK summary for `path`, or raises Invalid."""
    ext = os.path.splitext(path)[1]
    reader = READERS.get(ext)
    need(reader, f"unknown artifact extension {ext!r} "
                 f"(expected one of {', '.join(sorted(READERS))})")
    tag, payload = reader(path)
    checker = SCHEMAS.get((ext, tag))
    need(checker, f"unknown {ext} schema {tag!r}")
    return checker(payload, path)


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    rc = 0
    for path in argv[1:]:
        try:
            print(f"{path}: OK ({check_file(path)})")
        except Invalid as e:
            print(f"{path}: {e}", file=sys.stderr)
            rc = 1
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
