#!/usr/bin/env python3
"""Command-line flag checks for example_hyscale_cli.

Usage: python3 tests/cli_flags.py path/to/example_hyscale_cli

Every mode parses its flags from one table.  This script holds that
table to its contract:
  * malformed values (non-numeric, trailing junk, negative counts,
    unknown spellings, missing values) exit 2 before any training;
  * bad telemetry flags (zero cadence, unwritable output) exit 2;
  * each mode's --help exits 0 with its exact usage text;
  * one tiny run per mode sets every flag its usage lists to a
    non-default valid value and exits 0, so a flag dropped from the
    table fails here as "unknown argument";
  * the documented sentinels (--slo-ms 0, --ttl-ms -1, --publish-every
    0, --rerank-rows 0, --cache-rows 0) are still accepted;
  * serve --precision int8 --cache-rows 0 runs (static int8 needs no
    device cache).
"""
import os
import re
import subprocess
import sys
import tempfile

HELP = {
    "train": """usage: {prog} [--dataset NAME] [--model gcn|sage|gat] [--platform gpu|fpga]
          [--accels K] [--epochs N] [--fanouts a,b,...] [--scale V]
          [--no-hybrid] [--no-drm] [--no-tfp] [--int8] [--trace FILE]
""",
    "serve": """usage: {prog} serve [--dataset NAME] [--model gcn|sage|gat] [--scale V]
          [--train-epochs N] [--checkpoint FILE] [--save-checkpoint FILE]
          [--fanouts a,b,...|--full] [--workers K] [--cache-rows R]
          [--precision fp32|int8] [--max-batch B] [--max-wait-ms MS] [--queue-cap Q]
          [--clients C] [--requests N] [--seeds-per-request S] [--seed X]
          [--metrics-out FILE|-] [--metrics-interval-ms MS]
          [--flight-record-out FILE|-]

telemetry: --metrics-out dumps registry snapshots + lifecycle events as
JSON lines (one final snapshot, or every --metrics-interval-ms; '-' =
stderr); --flight-record-out arms a liveness watchdog + flight
recorder that dumps a post-mortem JSON bundle (metrics, journal tail,
heartbeat ages, slowest-request traces) on a stall, an SLO breach, or
teardown.
""",
    "stream": """usage: {prog} stream [--dataset NAME] [--model gcn|sage|gat] [--scale V]
          [--train-epochs N] [--fanouts a,b,...|--full] [--workers K]
          [--cache-rows R] [--precision fp32|int8] [--cache-rerank on|off]
          [--clients C] [--requests N] [--seed X]
          [--updates U] [--update-threads T] [--publish-every P]
          [--vertex-add-frac F] [--feature-update-frac F]
          [--delete-frac F] [--vertex-delete-frac F] [--delete-recent-frac F]
          [--compact-edges E] [--compact-ratio R]
          [--slo-ms MS] [--ttl-ms MS] [--sweep-ms MS] [--rerank-rows R]
          [--metrics-out FILE|-] [--metrics-interval-ms MS]
          [--flight-record-out FILE|-]

lifecycle: --slo-ms bounds staleness (background publisher; 0 = caller-paced
via --publish-every), --ttl-ms retires streamed-in entities idle that long
(swept every --sweep-ms).
--rerank-rows re-ranks the device cache every R gathered rows regardless
of fold cadence.
""",
}

DATASET = ["--dataset", "ogbn-papers100M", "--scale", "256"]

BAD = [
    ["--fanouts", "5,x"],
    ["--fanouts", ","],
    ["--fanouts", "3,0"],
    ["--accels", "abc"],
    ["--accels", "0"],
    ["--scale", "-5"],
    ["--epochs", "1.5"],
    ["--model", "mlp"],
    ["--platform", "tpu"],
    ["--bogus"],
    ["serve", "--queue-cap", "-1"],
    ["serve", "--workers", "2x"],
    ["serve", "--workers"],
    ["serve", "--fanouts", "5,x"],
    ["serve", "--fanouts", ""],
    ["serve", "--max-wait-ms", "1ms"],
    ["serve", "--seed", "-1"],
    ["serve", "--precision", "fp16"],
    ["serve", "--cache-rows", "-8"],
    ["stream", "--updates", "-1"],
    ["stream", "--slo-ms", "5x"],
    ["stream", "--cache-rerank", "maybe"],
    # --trace (the simulated pipeline's Chrome trace) is training-only.
    ["serve", "--trace"],
    ["stream", "--trace"],
    # The two telemetry misconfigurations CI also smoke-tests.
    ["stream", "--updates", "16", "--requests", "4", "--metrics-out", "metrics.jsonl",
     "--metrics-interval-ms", "0"],
    ["stream", "--updates", "16", "--requests", "4", "--metrics-out",
     "/nonexistent-dir/metrics.jsonl"],
]

TRAIN_RUN = DATASET + [
    "--model", "gcn", "--platform", "gpu", "--accels", "2", "--epochs", "1",
    "--fanouts", "4,3", "--no-hybrid", "--no-drm", "--no-tfp", "--int8",
    "--trace", "trace.json",
]

SERVE_COMMON = DATASET + [
    "--model", "gcn", "--train-epochs", "0", "--checkpoint", "base.ckpt",
    "--full", "--fanouts", "3,2", "--workers", "2", "--cache-rows", "64",
    "--precision", "int8", "--max-batch", "4", "--max-wait-ms", "1.5",
    "--queue-cap", "64", "--clients", "1", "--requests", "2",
    "--seeds-per-request", "2", "--seed", "9", "--metrics-interval-ms", "50",
]

SERVE_RUN = ["serve"] + SERVE_COMMON + [
    "--save-checkpoint", "serve.ckpt", "--metrics-out", "serve.jsonl",
    "--flight-record-out", "serve_flight.json",
]

STREAM_RUN = ["stream"] + SERVE_COMMON + [
    "--save-checkpoint", "stream.ckpt", "--metrics-out", "stream.jsonl",
    "--flight-record-out", "stream_flight.json",
    "--updates", "32", "--update-threads", "2", "--publish-every", "8",
    "--vertex-add-frac", "0.1", "--feature-update-frac", "0.2",
    "--delete-frac", "0.1", "--vertex-delete-frac", "0.05",
    "--delete-recent-frac", "0.5", "--compact-edges", "64",
    "--compact-ratio", "0.5", "--slo-ms", "3",
    "--ttl-ms", "40", "--sweep-ms", "5", "--rerank-rows", "16", "--cache-rerank", "off",
]

SENTINEL_RUN = ["stream"] + DATASET + [
    "--train-epochs", "0", "--clients", "1", "--requests", "2", "--updates", "16",
    "--slo-ms", "0", "--ttl-ms", "-1", "--publish-every", "0", "--rerank-rows", "0",
    "--cache-rows", "0",
]

# Static int8 serving needs no cache: the store itself holds int8 rows.
INT8_UNCACHED_RUN = ["serve"] + DATASET + [
    "--model", "gcn", "--train-epochs", "0", "--checkpoint", "base.ckpt", "--clients", "1",
    "--requests", "2", "--precision", "int8", "--cache-rows", "0",
]

failures = []


def run(cli, args, cwd):
    return subprocess.run([cli] + args, cwd=cwd, capture_output=True, text=True, timeout=300)


def check(ok, what, proc=None):
    if ok:
        return
    detail = ""
    if proc is not None:
        detail = "\n  exit %d\n  stdout: %s\n  stderr: %s" % (
            proc.returncode, proc.stdout[-400:], proc.stderr[-400:])
    failures.append(what + detail)


def main():
    cli = os.path.abspath(sys.argv[1])
    with tempfile.TemporaryDirectory() as cwd:
        for args in BAD:
            proc = run(cli, args, cwd)
            check(proc.returncode == 2, "bad input %s should exit 2" % args, proc)
            check(not re.search(r"^(train )?epoch ", proc.stdout, re.M),
                  "bad input %s trained before failing" % args, proc)

        for mode, text in HELP.items():
            args = ([] if mode == "train" else [mode]) + ["--help"]
            proc = run(cli, args, cwd)
            check(proc.returncode == 0, "%s --help should exit 0" % mode, proc)
            check(proc.stdout == text.replace("{prog}", cli),
                  "%s --help text changed" % mode, proc)

        # Every flag a mode's usage lists must appear in its full run.
        for mode, full in (("train", TRAIN_RUN), ("serve", SERVE_RUN), ("stream", STREAM_RUN)):
            listed = set(re.findall(r"--[a-z][a-z0-9-]*", HELP[mode].split("\n\n")[0]))
            missing = sorted(listed - set(full))
            check(not missing, "%s run leaves flags unset: %s" % (mode, missing))

        base = ["serve"] + DATASET + ["--model", "gcn", "--requests", "2", "--clients", "1",
                                      "--save-checkpoint", "base.ckpt"]
        proc = run(cli, base, cwd)
        check(proc.returncode == 0, "checkpoint-producing serve run should exit 0", proc)
        for name, args in (("train", TRAIN_RUN), ("serve", SERVE_RUN), ("stream", STREAM_RUN),
                           ("stream sentinels", SENTINEL_RUN),
                           ("serve int8 without a cache", INT8_UNCACHED_RUN)):
            proc = run(cli, args, cwd)
            check(proc.returncode == 0, "%s run with every flag set should exit 0" % name, proc)

    for failure in failures:
        print("FAIL: " + failure)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
