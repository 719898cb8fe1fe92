#!/usr/bin/env python3
"""Self-test for check_schema.py: a minimal valid artifact of every schema
passes, and each seeded defect is rejected with its own message.

Usage: python3 tools/check_schema_test.py   (exit 0 when every case holds)
"""
import contextlib
import io
import json
import os
import struct
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_schema  # noqa: E402


def latency(v=1.0):
    return dict.fromkeys(("mean", "p50", "p90", "p99", "min", "max"), v)


def bench_row(name):
    return {"name": name, "iterations": 3, "wall_time_s": 1.0, "ops_per_sec": 3.0,
            "sim_events": 0, "sim_events_per_sec": 0.0, "latency_ns": latency()}


def gauges(cell, prefix, names):
    return [{"kind": "gauge", "name": f"{prefix}.{n}", "entity": cell, "value": 0.5}
            for n in names]


def instrument(kind, name, entity, **extra):
    return dict(kind=kind, name=name, entity=entity, **extra)


def fixtures():
    """{case: {file name: JSON value, JSONL line list, or raw bytes/str}}."""
    meta = {"kind": "meta", "schema": "arnet-obs-v2"}
    hist = dict(count=4, exemplars=[[3, 99, 12.5]])
    fleet_metrics = [meta] + gauges("u050", "cell", (
        "offered_users", "p50_ms", "p99_ms", "miss_rate", "served_fps", "rejected",
        "servers_final")) + [
        instrument("counter", "fleet.arrivals", "u050", value=5),
        instrument("counter", "fleet.frames", "u050", value=9),
        instrument("histogram", "fleet.m2p_ms", "u050", **hist),
        instrument("counter", "fleet.requests", "u050/server:0", value=9),
    ]
    city_metrics = [meta] + gauges("c00", "city", (
        "peak_sessions", "knee_sessions", "p50_ms", "p99_ms", "miss_rate", "served_fps",
        "rejected", "first_breach_s")) + [
        instrument("gauge", "slo.state", "c00", value=0),
        instrument("counter", "fluid.arrivals", "c00", value=5),
        instrument("counter", "fluid.served", "c00", value=9),
        instrument("histogram", "fluid.m2p_ms", "c00", **hist),
        instrument("gauge", "city.concurrent_peak", "city", value=40.0),
        instrument("gauge", "city.cells_total", "city", value=1),
    ]
    epb = struct.pack("<IIIIIIII", 6, 32, 0, 0, 0, 0, 0, 32)
    pcap = (struct.pack("<IIIHHqI", 0x0A0D0D0A, 28, 0x1A2B3C4D, 1, 0, -1, 28)
            + struct.pack("<IIHHII", 1, 20, 1, 0, 65535, 20) + epb)
    manifest = {"schema": "arnet-report-v1", "title": "t", "inputs": {"bench": "b.json"},
                "sections": ["summary"], "cells": 1, "objectives": 1, "anomalies": 1}
    report = ('<html><script type="application/json" id="arnet-report-manifest">'
              + json.dumps(manifest) + '</script><section id="summary"></section>'
              '<script type="application/json" id="trace-0">'
              '{"traceEvents": [{"ph": "X", "pid": 1}]}</script></html>')
    return {
        "bench": {"BENCH_micro.json": {"schema": "arnet-bench-v1", "suite": "micro",
                                       "benchmarks": [bench_row("a"), bench_row("b")]}},
        "fleet": {
            "BENCH_scale_fleet.json": {"schema": "arnet-bench-v1", "suite": "scale_fleet",
                                       "benchmarks": [bench_row("u050")]},
            "scale_fleet_metrics.jsonl": fleet_metrics,
        },
        "city": {
            "BENCH_scale_city.json": {"schema": "arnet-bench-v1", "suite": "scale_city",
                                      "benchmarks": [bench_row("c00"),
                                                     bench_row("validate/u025/packet"),
                                                     bench_row("validate/u025/fluid")]},
            "scale_city_metrics.jsonl": city_metrics,
        },
        "shootout": {
            "BENCH_sec_transport_shootout.json": {
                "schema": "arnet-bench-v1", "suite": "sec_transport_shootout",
                "benchmarks": [dict(bench_row("ARTP/WiFi"), iterations=6, frames_on_time=4,
                                    frames_late=1, frames_incomplete=1)]},
            "sec_transport_shootout_slo.jsonl": [
                {"kind": "meta", "schema": "arnet-slo-v1", "objectives": 1},
                {"kind": "objective", "entity": "ARTP/WiFi", "objective": 0.99, "good": 4,
                 "miss": 2, "state": "ok"},
                {"kind": "end", "objectives": 1, "alerts": 0}],
        },
        "analyze": {"findings.json": {
            "schema": "arnet-analyze-v1", "tool": "arnet-analyze", "files_scanned": 2,
            "rules": [{"id": "wall-clock", "description": "no host clocks"}],
            "findings": [{"file": "a.cpp", "line": 3, "rule": "wall-clock", "message": "m"}],
            "baselined": 0, "suppressions_used": 0, "summary": {"wall-clock": 1}}},
        "perfetto": {"trace.json": {
            "traceEvents": [{"ph": "M", "name": "process_name"},
                            {"ph": "X", "name": "tx", "ts": 1, "dur": 2},
                            {"ph": "i", "name": "drop", "ts": 3}],
            "otherData": {"schema": "arnet-trace-v1"}}},
        "flight": {"flight.jsonl": [
            {"kind": "header", "schema": "arnet-trace-v1", "cause": "deadline-miss"},
            {"kind": "event", "t_ns": 5},
            {"kind": "end", "events": 1}]},
        "slo": {"slo.jsonl": [
            {"kind": "meta", "schema": "arnet-slo-v1", "objectives": 1},
            {"kind": "objective", "entity": "u050", "objective": 0.99, "good": 5, "miss": 1,
             "state": "ok"},
            {"kind": "alert", "entity": "u050", "t_ns": 7, "state": "fast-burn"},
            {"kind": "burn", "entity": "u050", "t_ns": 8, "state": "fast-burn"},
            {"kind": "end", "objectives": 1, "alerts": 1}]},
        "samples": {"samples.jsonl": [
            {"kind": "meta", "schema": "arnet-sample-v1"},
            {"kind": "run", "scope": "u050", "retained": 1, "miss": 1, "drop": 0,
             "outlier": 0, "reservoir": 0, "evicted": 0, "spans": 1, "span_budget": 8},
            {"kind": "frame", "scope": "u050", "verdict": "miss", "trace": 7, "spans": 1},
            {"kind": "span", "scope": "u050", "t_ns": 1, "event": "frame_capture"},
            {"kind": "note", "scope": "u050", "t_ns": 2, "reason": "admission-downgrade"},
            {"kind": "end", "runs": 1}]},
        "report": {"report.html": report},
        "pcapng": {"capture.pcapng": pcap},
    }


def drop_line(lines, name):
    return [l for l in lines if l.get("name") != name]


def set_gauge(lines, name, value):
    return [dict(l, value=value) if l.get("name") == name else l for l in lines]


# (case, file, mutation, fragment of the expected message). A mutation takes
# the fixture's value for `file` and returns the defective one.
DEFECTS = [
    ("bench", "BENCH_micro.json", lambda d: {**d, "schema": "arnet-bench-v9"},
     "unknown .json schema"),
    ("bench", "BENCH_micro.json",
     lambda d: {**d, "benchmarks": [dict(d["benchmarks"][0], iterations=0)]},
     "iterations must be"),
    ("bench", "BENCH_micro.json",
     lambda d: {**d, "benchmarks": [dict(d["benchmarks"][0],
                                         latency_ns=dict(latency(), p50=5.0))]}, "disordered"),
    ("bench", "BENCH_micro.json",
     lambda d: {**d, "benchmarks": [bench_row("a"), bench_row("a")]}, "duplicate"),
    ("fleet", "scale_fleet_metrics.jsonl", lambda l: drop_line(l, "cell.served_fps"),
     "gauge cell.served_fps missing"),
    ("fleet", "scale_fleet_metrics.jsonl", lambda l: set_gauge(l, "cell.miss_rate", 1.5),
     "outside [0, 1]"),
    ("fleet", "scale_fleet_metrics.jsonl", lambda l: drop_line(l, "fleet.requests"),
     "per-server"),
    ("fleet", "scale_fleet_metrics.jsonl", lambda l: drop_line(l, "fleet.m2p_ms"),
     "histogram missing"),
    ("fleet", "scale_fleet_metrics.jsonl",
     lambda l: [dict(x, exemplars=[[1, 2]]) if x.get("kind") == "histogram" else x for x in l],
     "triple"),
    ("fleet", "scale_fleet_metrics.jsonl", lambda l: None, "unreadable"),
    ("city", "scale_city_metrics.jsonl", lambda l: set_gauge(l, "city.cells_total", 2),
     "cells_total disagrees"),
    ("city", "scale_city_metrics.jsonl", lambda l: drop_line(l, "slo.state"),
     "gauge slo.state missing"),
    ("city", "BENCH_scale_city.json",
     lambda d: {**d, "benchmarks": d["benchmarks"][:2]}, "unpaired"),
    ("shootout", "sec_transport_shootout_slo.jsonl",
     lambda l: [l[0], dict(l[1], good=3, miss=3), l[2]], "SLO good 3 != frames_on_time 4"),
    ("shootout", "sec_transport_shootout_slo.jsonl",
     lambda l: [l[0], dict(l[1], miss=1), l[2]], "good + miss 5 != 6 frames sent"),
    ("shootout", "sec_transport_shootout_slo.jsonl",
     lambda l: [l[0], dict(l[1], entity="Reno/WiFi"), l[2]], "ARTP/WiFi: no objective line"),
    ("analyze", "findings.json", lambda d: {**d, "summary": {}}, "disagrees"),
    ("analyze", "findings.json",
     lambda d: {**d, "findings": [dict(d["findings"][0], rule="nope")]}, "rule catalog"),
    ("perfetto", "trace.json",
     lambda d: {**d, "traceEvents": [e for e in d["traceEvents"] if e["ph"] != "M"]},
     "no entity metadata"),
    ("perfetto", "trace.json",
     lambda d: {**d, "traceEvents": d["traceEvents"] + [{"ph": "X", "name": "x", "ts": 1}]},
     "dur must be"),
    ("flight", "flight.jsonl", lambda l: l[:-1] + [{"kind": "end", "events": 2}],
     "end line says 2 events"),
    ("slo", "slo.jsonl", lambda l: [l[0], l[2], l[1]] + l[3:], "precedes its objective"),
    ("slo", "slo.jsonl", lambda l: [l[0], dict(l[1], objective=1.0)] + l[2:],
     "objective must be"),
    ("slo", "slo.jsonl", lambda l: l[:-1] + [{"kind": "end", "objectives": 1, "alerts": 0}],
     "alerts"),
    ("samples", "samples.jsonl", lambda l: l[:2] + l[3:], "span line without a frame"),
    ("samples", "samples.jsonl", lambda l: [l[0], dict(l[1], retained=2)] + l[2:],
     "verdict counts minus evictions"),
    ("samples", "samples.jsonl", lambda l: l[:3] + l[4:], "span lines short"),
    ("report", "report.html", lambda s: s.replace('id="summary"', 'id="other"'),
     "no <section"),
    ("report", "report.html", lambda s: s.replace('id="trace-0"', 'id="trace-9"'),
     "no embedded trace blob"),
    ("pcapng", "capture.pcapng", lambda b: b[:-4], "overruns"),
    ("pcapng", "capture.pcapng", lambda b: b[:-4] + struct.pack("<I", 28),
     "trailing length mismatch"),
    ("pcapng", "capture.pcapng", lambda b: b[:48], "no Enhanced Packet Blocks"),
]


def write(path, value):
    if value is None:
        return
    if isinstance(value, bytes):
        mode, data = "wb", value
    elif isinstance(value, str):
        mode, data = "w", value
    elif isinstance(value, list):
        mode, data = "w", "".join(json.dumps(l) + "\n" for l in value)
    else:
        mode, data = "w", json.dumps(value)
    with open(path, mode) as f:
        f.write(data)


class CheckSchemaTest(unittest.TestCase):
    def materialize(self, case, mutate_file=None, mutate=None):
        """Writes the case's files to a fresh directory; returns its paths."""
        d = tempfile.mkdtemp(dir=self.tmp)
        paths = []
        for name, value in fixtures()[case].items():
            if name == mutate_file:
                value = mutate(value)
            write(os.path.join(d, name), value)
            paths.append(os.path.join(d, name))
        return paths

    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.tmp = self._dir.name

    def tearDown(self):
        self._dir.cleanup()

    def test_every_fixture_is_valid(self):
        for case in fixtures():
            for path in self.materialize(case):
                with self.subTest(case=case, file=os.path.basename(path)):
                    check_schema.check_file(path)

    def test_every_defect_is_rejected(self):
        for case, file, mutate, fragment in DEFECTS:
            with self.subTest(case=case, defect=fragment):
                paths = self.materialize(case, file, mutate)
                # A sweep summary carries the cross-check, so a defect in
                # the sweep's metrics file must fail the summary too.
                target = next((p for p in paths if os.path.basename(p).startswith("BENCH_")),
                              paths[0])
                with self.assertRaises(check_schema.Invalid) as err:
                    check_schema.check_file(target)
                self.assertIn(fragment, str(err.exception))

    def test_unknown_extension_is_rejected(self):
        path = os.path.join(self.tmp, "notes.txt")
        write(path, "hello")
        with contextlib.redirect_stderr(io.StringIO()) as err:
            self.assertEqual(check_schema.main(["check_schema.py", path]), 1)
            self.assertEqual(check_schema.main(["check_schema.py"]), 2)
        self.assertIn("unknown artifact extension '.txt'", err.getvalue())


if __name__ == "__main__":
    unittest.main()
