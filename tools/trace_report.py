#!/usr/bin/env python3
"""Per-stage latency attribution from the observability plane's output.

Two input modes, combinable:

  --flight FILE   a flight-recorder bundle (--flight-record-out).  Its
                  exemplar ring holds the FULL critical path of the
                  slowest requests the run admitted — one row per
                  request with queue / sample / gather / forward /
                  reply milliseconds, plus the share of the total each
                  stage claims and which stage dominates.
  --jsonl FILE    a telemetry JSON-lines dump (--metrics-out).  The
                  last snapshot line carries the aggregate view: the
                  latency and queue-wait histograms (the coarse
                  queue-vs-compute split), the journal's drop count,
                  and the journal's lifecycle events, which are
                  replayed as a timeline.

Typical post-mortem workflow: the watchdog trips, the flight record
lands, and

    tools/trace_report.py --flight flight.json

answers "where did the slow requests spend their time" without
reattaching anything to the process.

Exit status: 0 on success, 1 when an input cannot be read or holds no
usable data.
"""

import argparse
import json
import sys

STAGES = ["queue", "sample", "gather", "forward", "reply"]


def fmt_ms(value):
    return "-" if value is None else f"{value:9.3f}"


def report_flight(path):
    try:
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
    except (OSError, ValueError) as err:
        print(f"trace_report: cannot read {path}: {err}", file=sys.stderr)
        return False

    print(f"flight record: {path}")
    print(f"  reason: {record.get('reason', '?')}  "
          f"trips: {len(record.get('trips', []))}  "
          f"suppressed: {record.get('suppressed_trips', 0)}")
    for trip in record.get("trips", []):
        print(f"    trip @ {trip.get('t_ns', 0) / 1e9:.3f}s  "
              f"{trip.get('reason', '?')}")

    exemplars = record.get("exemplars", {})
    slowest = exemplars.get("slowest", [])
    print(f"  exemplars: {exemplars.get('admitted', 0)} admitted of "
          f"{exemplars.get('offered', 0)} offered "
          f"(admission threshold {exemplars.get('threshold_ms', 0):.3f} ms)")
    if not slowest:
        print("  no exemplar traces retained")
    else:
        header = (f"  {'request':>8} {'total ms':>9} "
                  + " ".join(f"{s + ' ms':>9}" for s in STAGES)
                  + f"  {'dominant':<8} share")
        print()
        print(header)
        print("  " + "-" * (len(header) - 2))
        totals = {s: 0.0 for s in STAGES}
        attributed = 0
        for trace in sorted(slowest, key=lambda t: -t.get("total_ms", 0.0)):
            stages = trace.get("stages", {})
            values = {s: stages.get(f"{s}_ms") for s in STAGES}
            total = trace.get("total_ms", 0.0)
            known = {s: v for s, v in values.items() if v is not None}
            dominant, share = "?", 0.0
            if known and total > 0:
                dominant = max(known, key=known.get)
                share = known[dominant] / total
                for s, v in known.items():
                    totals[s] += v
                attributed += 1
            print(f"  {trace.get('request_id', '?'):>8} {total:9.3f} "
                  + " ".join(fmt_ms(values[s]) for s in STAGES)
                  + f"  {dominant:<8} {share:5.1%}")
        if attributed:
            grand = sum(totals.values())
            print()
            print("  mean share across exemplars: "
                  + "  ".join(f"{s} {totals[s] / grand:5.1%}" for s in STAGES
                              if grand > 0))

    hearts = record.get("heartbeats", [])
    if hearts:
        print()
        print(f"  {'thread':<24} {'age ms':>9} {'hint ms':>9} "
              f"{'beats':>7} state")
        for h in hearts:
            state = ("retired" if h.get("retired")
                     else "idle" if h.get("idle") else "busy")
            age = h.get("age_ms", -1.0)
            print(f"  {h.get('name', '?'):<24} "
                  f"{'never' if age < 0 else f'{age:9.1f}':>9} "
                  f"{h.get('interval_hint_ms', 0):9.1f} "
                  f"{h.get('beats', 0):>7} {state}")
    return True


def report_jsonl(path):
    snapshot = None
    events = []
    try:
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except ValueError as err:
                    print(f"trace_report: {path}:{line_no}: bad JSON line: "
                          f"{err}", file=sys.stderr)
                    return False
                if obj.get("type") == "snapshot":
                    snapshot = obj
                elif obj.get("type") == "event":
                    events.append(obj)
    except OSError as err:
        print(f"trace_report: cannot read {path}: {err}", file=sys.stderr)
        return False
    if snapshot is None:
        print(f"trace_report: {path} holds no snapshot line",
              file=sys.stderr)
        return False

    print(f"telemetry dump: {path} "
          f"(last snapshot reason: {snapshot.get('reason', '?')})")
    hists = snapshot.get("histograms", {})
    if hists:
        print(f"  {'histogram':<32} {'count':>8} {'mean ms':>9} "
              f"{'p50 ms':>9} {'p99 ms':>9} {'max ms':>9}")
        for name in sorted(hists):
            h = hists[name]
            print(f"  {name:<32} {h.get('count', 0):>8} "
                  f"{h.get('mean_ms', 0):9.3f} {h.get('p50_ms', 0):9.3f} "
                  f"{h.get('p99_ms', 0):9.3f} {h.get('max_ms', 0):9.3f}")
        lat = hists.get("serving.latency_ms")
        queue = hists.get("serving.queue_wait_ms")
        if lat and queue and lat.get("mean_ms", 0) > 0:
            queue_share = queue.get("mean_ms", 0) / lat["mean_ms"]
            print(f"  coarse split: queue {queue_share:5.1%} of mean latency, "
                  f"service {1 - queue_share:5.1%}")
    metrics = snapshot.get("metrics", {})
    if "journal.dropped_events" in metrics:
        print(f"  journal dropped {metrics['journal.dropped_events']:.0f} events")
    if events:
        print(f"  events ({len(events)}):")
        for event in events[-20:]:
            print(f"    @ {event.get('t_ns', 0) / 1e9:.3f}s  "
                  f"{event.get('kind', '?'):<16} {event.get('detail', '')}")
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--flight", action="append", default=[],
                        help="flight-recorder bundle(s) to report on")
    parser.add_argument("--jsonl", action="append", default=[],
                        help="telemetry JSON-lines dump(s) to report on")
    args = parser.parse_args()
    if not args.flight and not args.jsonl:
        parser.error("pass --flight FILE and/or --jsonl FILE")

    ok = True
    first = True
    for path in args.flight:
        if not first:
            print()
        first = False
        ok = report_flight(path) and ok
    for path in args.jsonl:
        if not first:
            print()
        first = False
        ok = report_jsonl(path) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
