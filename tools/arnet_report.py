#!/usr/bin/env python3
"""Render one self-contained HTML report from a bench-out/ run.

Usage: arnet_report.py --bench BENCH_JSON --slo SLO_JSONL --samples SAMPLES_JSONL
                       [--metrics METRICS_JSONL] [--title NAME] --out REPORT_HTML

Inputs are the artifacts a bench run writes under --out-dir:

  BENCH_*.json        arnet-bench-v1 per-cell summary (required)
  *_slo.jsonl         arnet-slo-v1 burn/alert log (required)
  *_samples.jsonl     arnet-sample-v1 tail-sampled traces (required)
  *_metrics.jsonl     arnet-obs-v1/v2 registry export (optional; enables the
                      capacity-knee section driven by cell.* gauges)

The output is a single HTML file with no external fetches: inline CSS, inline
SVG charts, and per-anomaly Chrome/Perfetto trace-event JSON embedded as
<script type="application/json"> blobs with a download button (open the
downloaded file in ui.perfetto.dev). A machine-readable manifest rides in
<script type="application/json" id="arnet-report-manifest"> with schema
"arnet-report-v1" — tools/check_schema.py validates it in CI.

stdlib only; deterministic given deterministic inputs (insertion-ordered
dicts, stable sorts, no timestamps).
"""
import argparse
import html
import json
import sys

MANIFEST_SCHEMA = "arnet-report-v1"
TOP_ANOMALIES = 20

CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif; margin: 2em auto;
       max-width: 70em; color: #1a1a2e; background: #fafafa; }
h1 { border-bottom: 2px solid #16213e; padding-bottom: .3em; }
h2 { margin-top: 2em; color: #16213e; }
table { border-collapse: collapse; margin: 1em 0; font-size: .9em; }
th, td { border: 1px solid #ccc; padding: .3em .6em; text-align: right; }
th { background: #16213e; color: #fff; }
td:first-child, th:first-child { text-align: left; }
.ok { color: #0a7a0a; } .alerting { color: #c0392b; font-weight: bold; }
.verdict-miss { color: #c0392b; } .verdict-drop { color: #d35400; }
.verdict-outlier { color: #8e44ad; } .verdict-reservoir { color: #0a7a0a; }
svg { background: #fff; border: 1px solid #ddd; margin: .5em 0; }
.legend span { margin-right: 1.2em; }
button { cursor: pointer; }
footer { margin-top: 3em; font-size: .8em; color: #888; }
"""

DOWNLOAD_JS = """
function downloadTrace(id, name) {
  var blob = new Blob([document.getElementById(id).textContent],
                      {type: 'application/json'});
  var a = document.createElement('a');
  a.href = URL.createObjectURL(blob);
  a.download = name;
  a.click();
  URL.revokeObjectURL(a.href);
}
"""


def esc(s):
    return html.escape(str(s), quote=True)


def load_jsonl(path):
    docs = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                docs.append(json.loads(line))
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {e}")
    return docs


def load_bench(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "arnet-bench-v1":
        raise ValueError(f"{path}: bad schema id: {doc.get('schema')!r}")
    return doc


# ----------------------------------------------------------------- charts

def svg_open(width, height):
    return (f'<svg viewBox="0 0 {width} {height}" width="{width}" '
            f'height="{height}" xmlns="http://www.w3.org/2000/svg">')


def polyline(points, color, width=2, dash=None):
    pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
    d = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{d}/>')


PALETTE = ["#16213e", "#c0392b", "#0a7a0a", "#8e44ad", "#d35400", "#2980b9",
           "#7f8c8d", "#27ae60"]


def line_chart(series, x_label, y_label, markers=(), width=640, height=300,
               y_ref=None):
    """series: [(label, color, dash, [(x, y), ...])]; markers: [(x, label)].
    Returns inline SVG with axes, labels, and optional y reference line."""
    pad_l, pad_r, pad_t, pad_b = 55, 15, 15, 35
    xs = [x for _, _, _, pts in series for x, _ in pts] + [x for x, _ in markers]
    ys = [y for _, _, _, pts in series for _, y in pts]
    if y_ref is not None:
        ys.append(y_ref)
    if not xs or not ys:
        return "<p>(no data)</p>"
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys + [0.0]), max(ys)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1
    iw, ih = width - pad_l - pad_r, height - pad_t - pad_b

    def px(x):
        return pad_l + (x - x0) / (x1 - x0) * iw

    def py(y):
        return pad_t + ih - (y - y0) / (y1 - y0) * ih

    out = [svg_open(width, height)]
    out.append(f'<line x1="{pad_l}" y1="{pad_t + ih}" x2="{pad_l + iw}" '
               f'y2="{pad_t + ih}" stroke="#999"/>')
    out.append(f'<line x1="{pad_l}" y1="{pad_t}" x2="{pad_l}" '
               f'y2="{pad_t + ih}" stroke="#999"/>')
    for frac in (0.0, 0.5, 1.0):
        yv = y0 + (y1 - y0) * frac
        out.append(f'<text x="{pad_l - 6}" y="{py(yv) + 4:.1f}" font-size="11" '
                   f'text-anchor="end" fill="#555">{yv:.3g}</text>')
        xv = x0 + (x1 - x0) * frac
        out.append(f'<text x="{px(xv):.1f}" y="{height - pad_b + 16}" '
                   f'font-size="11" text-anchor="middle" fill="#555">{xv:.4g}</text>')
    out.append(f'<text x="{pad_l + iw / 2:.1f}" y="{height - 4}" font-size="12" '
               f'text-anchor="middle" fill="#333">{esc(x_label)}</text>')
    out.append(f'<text x="12" y="{pad_t + ih / 2:.1f}" font-size="12" '
               f'text-anchor="middle" fill="#333" '
               f'transform="rotate(-90 12 {pad_t + ih / 2:.1f})">{esc(y_label)}</text>')
    if y_ref is not None and y0 <= y_ref <= y1:
        out.append(polyline([(x0, y_ref), (x1, y_ref)], "#999", 1, "4 3"))
    for x, _label in markers:
        out.append(polyline([(x, y0), (x, y1)], "#c0392b", 1, "2 2"))
    for _label, color, dash, pts in series:
        if pts:
            out.append(polyline([(px(x), py(y)) for x, y in pts], color, 2, dash))
    out.append("</svg>")
    legend = "".join(
        f'<span style="color:{color}">{"&#8212;" if not dash else "&#8943;"} '
        f'{esc(label)}</span>'
        for label, color, dash, pts in series if pts)
    return "".join(out) + f'<div class="legend">{legend}</div>'


# ---------------------------------------------------------------- sections

def split_cell_name(name):
    """'u050/least-outstanding/batch=on/...' -> (50.0, 'least-outstanding/...');
    other names -> (None, name)."""
    head, _, rest = name.partition("/")
    if head.startswith("u") and head[1:].isdigit() and rest:
        return float(head[1:]), rest
    return None, name


def capacity_section(bench, metrics):
    """Per-mode p99-vs-offered-users curves from cell.* gauges (preferred) or
    the bench summary's latency_ns.p99 when no metrics JSONL was given."""
    by_mode = {}
    if metrics:
        offered = {e: l["value"] for (n, e), l in metrics.items()
                   if n == "cell.offered_users"}
        p99 = {e: l["value"] for (n, e), l in metrics.items() if n == "cell.p99_ms"}
        for entity, users in offered.items():
            if entity not in p99:
                continue
            _, mode = split_cell_name(entity)
            by_mode.setdefault(mode, []).append((users, p99[entity]))
    else:
        for b in bench.get("benchmarks", []):
            users, mode = split_cell_name(b.get("name", ""))
            lat = b.get("latency_ns", {})
            if users is None or "p99" not in lat:
                continue
            by_mode.setdefault(mode, []).append((users, lat["p99"] / 1e6))
    series = []
    for i, (mode, pts) in enumerate(sorted(by_mode.items())):
        pts.sort()
        series.append((mode, PALETTE[i % len(PALETTE)], None, pts))
    if not series:
        return "<p>(no capacity-sweep cells in this run)</p>"
    chart = line_chart(series, "offered users", "p99 m2p (ms)", y_ref=75.0)
    return chart + "<p>Dashed line: the 75 ms motion-to-photon budget. The knee " \
                   "of each curve is the mode's capacity.</p>"


def burn_section(slo_docs):
    """One chart per objective that has burn samples; alert transitions are
    vertical markers. Objectives that never left 'ok' collapse to a row of
    the summary table only."""
    objectives = [d for d in slo_docs if d.get("kind") == "objective"]
    rows = []
    charts = []
    for obj in objectives:
        entity = obj["entity"]
        state = obj.get("state", "ok")
        cls = "ok" if state == "ok" else "alerting"
        good, miss = obj.get("good", 0), obj.get("miss", 0)
        total = good + miss
        rows.append(
            f"<tr><td>{esc(entity)}</td><td>{obj.get('objective', 0):.3g}</td>"
            f"<td>{obj.get('deadline_ms', 0):.4g}</td><td>{total}</td><td>{miss}</td>"
            f"<td>{obj.get('burn_fast', 0):.3g}</td><td>{obj.get('burn_slow', 0):.3g}</td>"
            f"<td class=\"{cls}\">{esc(state)}</td><td>{obj.get('episodes', 0)}</td></tr>")
        burns = [d for d in slo_docs
                 if d.get("kind") == "burn" and d.get("entity") == entity]
        alerts = [d for d in slo_docs
                  if d.get("kind") == "alert" and d.get("entity") == entity]
        if not alerts and obj.get("episodes", 0) == 0:
            continue  # healthy objective: table row only
        fast = [(b["t_ns"] / 1e9, b["fast"]) for b in burns]
        slow = [(b["t_ns"] / 1e9, b["slow"]) for b in burns]
        markers = [(a["t_ns"] / 1e9, a["state"]) for a in alerts]
        charts.append(
            f"<h3>{esc(entity)}</h3>" +
            line_chart([("fast burn", "#16213e", None, fast),
                        ("slow burn", "#2980b9", "5 3", slow)],
                       "sim time (s)", "burn rate", markers=markers))
    table = ("<table><tr><th>objective</th><th>target</th><th>deadline ms</th>"
             "<th>frames</th><th>miss</th><th>burn fast</th><th>burn slow</th>"
             "<th>state</th><th>episodes</th></tr>" + "".join(rows) + "</table>")
    return table + "".join(charts)


def perfetto_trace(frame, spans):
    """Chrome trace-event JSON for one retained frame: the frame itself as a
    duration slice plus every sampled span as an instant on its entity row."""
    entities = []
    for s in spans:
        if s.get("entity") not in entities:
            entities.append(s.get("entity"))
    events = []
    for tid, name in enumerate(entities):
        events.append({"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
                       "args": {"name": name or "?"}})
    events.append({
        "ph": "X", "pid": 1, "tid": 0, "name": f"frame {frame['trace']}",
        "ts": frame["t0_ns"] / 1e3,
        "dur": max(frame["t1_ns"] - frame["t0_ns"], 1) / 1e3,
        "args": {"verdict": frame["verdict"],
                 "latency_ms": frame["latency_ns"] / 1e6}})
    for s in spans:
        args = {"uid": s.get("uid", 0), "size": s.get("size", 0)}
        if s.get("reason"):
            args["reason"] = s["reason"]
        events.append({"ph": "i", "pid": 1,
                       "tid": entities.index(s.get("entity")), "s": "t",
                       "name": s.get("event", "?"), "ts": s["t_ns"] / 1e3,
                       "args": args})
    return {"traceEvents": events,
            "otherData": {"schema": "arnet-trace-v1",
                          "scope": frame.get("scope", ""),
                          "verdict": frame["verdict"]}}


def anomaly_section(sample_docs):
    """Top anomalous frames (miss > drop > outlier, then slowest first), each
    with its embedded Perfetto trace blob, plus the admission-anomaly notes."""
    frames = [d for d in sample_docs if d.get("kind") == "frame"]
    spans_by_frame = {}
    for d in sample_docs:
        if d.get("kind") == "span":
            spans_by_frame.setdefault((d.get("scope"), d.get("trace")), []).append(d)
    prio = {"miss": 0, "drop": 1, "outlier": 2}
    anomalies = sorted(
        (f for f in frames if f.get("verdict") in prio),
        key=lambda f: (prio[f["verdict"]], -f.get("latency_ns", 0),
                       f.get("scope", ""), f.get("trace", 0)))[:TOP_ANOMALIES]
    out = []
    blobs = []
    if anomalies:
        out.append("<table><tr><th>cell</th><th>trace</th><th>verdict</th>"
                   "<th>latency ms</th><th>spans</th><th>trace file</th></tr>")
        for i, f in enumerate(anomalies):
            spans = spans_by_frame.get((f.get("scope"), f.get("trace")), [])
            trace_doc = perfetto_trace(f, spans)
            blob_id = f"trace-{i}"
            fname = f"anomaly-{i}-trace-{f['trace']}.json"
            blobs.append(
                f'<script type="application/json" id="{blob_id}">'
                f'{json.dumps(trace_doc, sort_keys=True)}</script>')
            out.append(
                f"<tr><td>{esc(f.get('scope', ''))}</td><td>{f['trace']}</td>"
                f"<td class=\"verdict-{esc(f['verdict'])}\">{esc(f['verdict'])}</td>"
                f"<td>{f.get('latency_ns', 0) / 1e6:.2f}</td><td>{len(spans)}</td>"
                f"<td><button onclick=\"downloadTrace('{blob_id}', '{esc(fname)}')\">"
                f"download</button></td></tr>")
        out.append("</table><p>Open a downloaded trace in "
                   "<a href=\"https://ui.perfetto.dev\">ui.perfetto.dev</a> "
                   "(or chrome://tracing).</p>")
    else:
        out.append("<p>No anomalous frames were retained — every sampled frame "
                   "met its deadline.</p>")
    notes = [d for d in sample_docs if d.get("kind") == "note"]
    if notes:
        out.append(f"<h3>Admission anomalies ({len(notes)} notes)</h3>"
                   "<table><tr><th>cell</th><th>t (s)</th><th>session</th>"
                   "<th>decision</th></tr>")
        for n in notes[:50]:
            out.append(f"<tr><td>{esc(n.get('scope', ''))}</td>"
                       f"<td>{n.get('t_ns', 0) / 1e9:.2f}</td><td>{n.get('uid', 0)}</td>"
                       f"<td>{esc(n.get('reason', ''))}</td></tr>")
        out.append("</table>")
        if len(notes) > 50:
            out.append(f"<p>({len(notes) - 50} more notes in the samples JSONL)</p>")
    return "".join(out), blobs, len(anomalies)


def summary_section(bench, slo_docs, sample_docs):
    benches = bench.get("benchmarks", [])
    objectives = [d for d in slo_docs if d.get("kind") == "objective"]
    runs = [d for d in sample_docs if d.get("kind") == "run"]
    alerting = sum(1 for o in objectives if o.get("state") != "ok")
    episodes = sum(o.get("episodes", 0) for o in objectives)
    retained = sum(r.get("retained", 0) for r in runs)
    rejected = sum(r.get("budget_rejected", 0) for r in runs)
    rows = [
        ("cells", len(benches)),
        ("objectives tracked", len(objectives)),
        ("objectives alerting at end", alerting),
        ("alert episodes", episodes),
        ("frames sampled (retained)", retained),
        ("retentions rejected by span budget", rejected),
    ]
    return ("<table>" +
            "".join(f"<tr><td>{esc(k)}</td><td>{v}</td></tr>" for k, v in rows) +
            "</table>")


def load_metrics_map(path):
    out = {}
    for d in load_jsonl(path):
        if d.get("kind") == "meta":
            continue
        if d.get("name") and d.get("entity") is not None:
            out[(d["name"], d["entity"])] = d
    return out


def build_report(title, bench, metrics, slo_docs, sample_docs, inputs):
    anomalies_html, blobs, n_anomalies = anomaly_section(sample_docs)
    sections = [
        ("summary", "Summary", summary_section(bench, slo_docs, sample_docs)),
        ("capacity", "Capacity knees", capacity_section(bench, metrics)),
        ("burn", "SLO burn rates", burn_section(slo_docs)),
        ("anomalies", "Top anomalies", anomalies_html),
    ]
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "title": title,
        "suite": bench.get("suite", ""),
        "inputs": inputs,
        "sections": [sid for sid, _, _ in sections],
        "cells": len(bench.get("benchmarks", [])),
        "objectives": sum(1 for d in slo_docs if d.get("kind") == "objective"),
        "anomalies": n_anomalies,
    }
    nav = " | ".join(f'<a href="#{sid}">{esc(label)}</a>'
                     for sid, label, _ in sections)
    body = "".join(f'<section id="{sid}"><h2>{esc(label)}</h2>{content}</section>'
                   for sid, label, content in sections)
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
        f"<title>{esc(title)}</title><style>{CSS}</style>"
        f"<script>{DOWNLOAD_JS}</script></head><body>"
        f"<script type=\"application/json\" id=\"arnet-report-manifest\">"
        f"{json.dumps(manifest, sort_keys=True)}</script>"
        f"<h1>{esc(title)}</h1><nav>{nav}</nav>"
        f"{body}{''.join(blobs)}"
        f"<footer>generated by arnet_report.py from {esc(inputs['bench'])}"
        "</footer></body></html>\n")


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bench", required=True)
    ap.add_argument("--slo", required=True)
    ap.add_argument("--samples", required=True)
    ap.add_argument("--metrics", default=None)
    ap.add_argument("--title", default="arnet report")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv[1:])

    try:
        bench = load_bench(args.bench)
        slo_docs = load_jsonl(args.slo)
        sample_docs = load_jsonl(args.samples)
        metrics = load_metrics_map(args.metrics) if args.metrics else {}
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"arnet_report: {e}", file=sys.stderr)
        return 1
    if not slo_docs or slo_docs[0].get("schema") != "arnet-slo-v1":
        print(f"arnet_report: {args.slo}: not an arnet-slo-v1 file", file=sys.stderr)
        return 1
    if not sample_docs or sample_docs[0].get("schema") != "arnet-sample-v1":
        print(f"arnet_report: {args.samples}: not an arnet-sample-v1 file",
              file=sys.stderr)
        return 1

    inputs = {"bench": args.bench, "slo": args.slo, "samples": args.samples,
              "metrics": args.metrics or ""}
    doc = build_report(args.title, bench, metrics, slo_docs, sample_docs, inputs)
    try:
        with open(args.out, "w") as f:
            f.write(doc)
    except OSError as e:
        print(f"arnet_report: {e}", file=sys.stderr)
        return 1
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
