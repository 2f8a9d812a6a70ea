#!/usr/bin/env python3
"""Diff two windowed time-series files into a markdown report.

Usage: obs_report.py A B [--out report.md] [--top 20]

Both inputs are --obs-series JSONL (obs::TimeSeriesRecorder::WriteJsonl): a
meta header line then one line per replay window. The report diffs run
metadata field by field, total counter deltas, final gauge values, and hdr
histogram quantiles (count-weighted means over windows).

Pure reporting: always exits 0 on well-formed inputs. The performance gate is
tools/perfbench_ab.py; this tool is for humans comparing two runs' telemetry.
"""

import argparse
import json
import sys


def load_series(path):
    meta = {}
    windows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            if doc.get("type") == "meta":
                meta = doc.get("meta", {})
            elif doc.get("type") == "window":
                windows.append(doc)
    return meta, windows


def is_series(path):
    """True when the file's first line is a time-series meta header."""
    with open(path) as f:
        try:
            doc = json.loads(f.readline())
        except json.JSONDecodeError:
            return False
    return isinstance(doc, dict) and doc.get("type") == "meta"


def fmt(value):
    if value is None:
        return "--"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return "%.4g" % value
    return str(value)


def change(a, b):
    if a is None or b is None:
        return "--"
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)) or a == 0:
        return "" if a == b else "changed"
    return "%+.1f%%" % ((b - a) / a * 100.0)


def meta_section(lines, meta_a, meta_b):
    lines.append("## Run metadata")
    lines.append("")
    lines.append("| field | A | B |")
    lines.append("|---|---|---|")
    for key in sorted(set(meta_a) | set(meta_b)):
        a, b = meta_a.get(key), meta_b.get(key)
        marker = "" if a == b else " **(differs)**"
        lines.append("| %s | %s | %s%s |" % (key, fmt(a), fmt(b), marker))
    lines.append("")


def series_counter_totals(windows):
    totals = {}
    for window in windows:
        for name, delta in window.get("counters", {}).items():
            totals[name] = totals.get(name, 0) + delta
    return totals


def series_hdr_stats(windows):
    """Per-hdr-name: total count and count-weighted mean quantiles."""
    stats = {}
    for window in windows:
        for name, hdr in window.get("hdr", {}).items():
            count = hdr.get("count", 0)
            entry = stats.setdefault(name, {"count": 0, "p50": 0.0, "p99": 0.0})
            entry["count"] += count
            for q in ("p50", "p99"):
                entry[q] += hdr.get(q, 0.0) * count
    for entry in stats.values():
        if entry["count"] > 0:
            entry["p50"] /= entry["count"]
            entry["p99"] /= entry["count"]
    return stats


def report_series(path_a, path_b, top):
    meta_a, windows_a = load_series(path_a)
    meta_b, windows_b = load_series(path_b)
    lines = ["# Time-series diff", "", "A: `%s` (%d windows)" % (path_a, len(windows_a)),
             "B: `%s` (%d windows)" % (path_b, len(windows_b)), ""]
    meta_section(lines, meta_a, meta_b)

    totals_a = series_counter_totals(windows_a)
    totals_b = series_counter_totals(windows_b)
    names = sorted(set(totals_a) | set(totals_b),
                   key=lambda n: -abs(totals_b.get(n, 0) - totals_a.get(n, 0)))
    lines.append("## Counter totals (summed window deltas, top %d movers)" % top)
    lines.append("")
    lines.append("| counter | A | B | change |")
    lines.append("|---|---|---|---|")
    for name in names[:top]:
        a, b = totals_a.get(name), totals_b.get(name)
        lines.append("| %s | %s | %s | %s |" % (name, fmt(a), fmt(b), change(a, b)))
    if len(names) > top:
        lines.append("")
        lines.append("(%d counters unchanged or below the top-%d cut)" % (len(names) - top, top))
    lines.append("")

    gauges_a = windows_a[-1].get("gauges", {}) if windows_a else {}
    gauges_b = windows_b[-1].get("gauges", {}) if windows_b else {}
    if gauges_a or gauges_b:
        lines.append("## Final gauge values")
        lines.append("")
        lines.append("| gauge | A | B | change |")
        lines.append("|---|---|---|---|")
        for name in sorted(set(gauges_a) | set(gauges_b)):
            a, b = gauges_a.get(name), gauges_b.get(name)
            lines.append("| %s | %s | %s | %s |" % (name, fmt(a), fmt(b), change(a, b)))
        lines.append("")

    hdr_a = series_hdr_stats(windows_a)
    hdr_b = series_hdr_stats(windows_b)
    if hdr_a or hdr_b:
        lines.append("## Hdr histograms (count-weighted mean of window quantiles)")
        lines.append("")
        lines.append("| histogram | count A | count B | p50 A | p50 B | p99 A | p99 B |")
        lines.append("|---|---|---|---|---|---|---|")
        for name in sorted(set(hdr_a) | set(hdr_b)):
            a = hdr_a.get(name, {})
            b = hdr_b.get(name, {})
            lines.append("| %s | %s | %s | %s | %s | %s | %s |" % (
                name, fmt(a.get("count")), fmt(b.get("count")),
                fmt(a.get("p50")), fmt(b.get("p50")),
                fmt(a.get("p99")), fmt(b.get("p99"))))
        lines.append("")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--out", help="write markdown here instead of stdout")
    parser.add_argument("--top", type=int, default=20, help="counter movers to list")
    args = parser.parse_args()

    for path in (args.a, args.b):
        if not is_series(path):
            print("error: %s is not a time-series JSONL file (no meta header line)" % path,
                  file=sys.stderr)
            return 2
    lines = report_series(args.a, args.b, args.top)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print("wrote %s" % args.out)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
