#!/usr/bin/env python3
"""Diff fresh BENCH_*.json artifacts against bench/baseline/.

Two classes of fields (see bench/baseline/README.md):

* **Stable** — seed-deterministic op histograms, byte totals, grid shapes,
  task counts. Any drift is a regression: the script exits nonzero.
* **Timing** — bandwidths, latencies, iteration rates. These carry scheduler
  jitter and machine dependence, so they never gate; deltas beyond the warn
  threshold are surfaced in the report (and in $GITHUB_STEP_SUMMARY when
  set) so a perf regression is visible on every CI run without turning
  noise into red builds.

Usage: check_bench_deltas.py [--baseline-dir bench/baseline] [--run-dir .]
                             [--warn-pct 10]
"""

import argparse
import json
import os
import sys

WORKLOADS = ["ycsb", "daly", "extsort", "replay"]
WORKLOAD_STABLE = ["workload", "ranks", "seed", "ops", "bytes_read",
                   "bytes_written", "server_bytes", "server_objects"]

failures = []
report_lines = []


def note(line):
    report_lines.append(line)
    print(line)


def fail(line):
    failures.append(line)
    note("FAIL " + line)


def load_pair(baseline_dir, run_dir, name):
    base_path = os.path.join(baseline_dir, name)
    run_path = os.path.join(run_dir, name)
    if not os.path.exists(base_path):
        fail(f"{name}: missing baseline {base_path}")
        return None, None
    if not os.path.exists(run_path):
        fail(f"{name}: missing run artifact {run_path}")
        return None, None
    with open(base_path) as f:
        base = json.load(f)
    with open(run_path) as f:
        run = json.load(f)
    return base, run


def delta_pct(base, run):
    if base == 0:
        return None
    return (run - base) / base * 100.0


def timing_delta(name, field, base, run, warn_pct):
    d = delta_pct(base, run)
    if d is None:
        return
    mark = " **>warn**" if abs(d) > warn_pct else ""
    note(f"  {name} {field}: {base:.4g} -> {run:.4g} ({d:+.1f}%){mark}")


def check_workloads(args):
    for wl in WORKLOADS:
        base, run = load_pair(args.baseline_dir, args.run_dir,
                              f"BENCH_workload_{wl}.json")
        if base is None:
            continue
        if wl == "replay":
            # Replayed compute-op count mirrors the input trace's PhaseTimer
            # spans, which depend on nonzero-elapsed phase transitions; only
            # the byte-carrying ops are seed-stable.
            for d in (base, run):
                d.get("ops", {}).pop("compute", None)
        for k in WORKLOAD_STABLE:
            if base.get(k) != run.get(k):
                fail(f"workload {wl}: stable field '{k}' drifted\n"
                     f"    baseline: {base.get(k)}\n"
                     f"    run:      {run.get(k)}")


def check_substrate(args):
    base, run = load_pair(args.baseline_dir, args.run_dir,
                          "BENCH_substrate.json")
    if base is None:
        return
    base_by = {b["name"]: b for b in base.get("benchmarks", [])}
    run_by = {b["name"]: b for b in run.get("benchmarks", [])}
    missing = sorted(set(base_by) - set(run_by))
    added = sorted(set(run_by) - set(base_by))
    if missing:
        fail(f"substrate: benchmarks missing from run: {missing}")
    if added:
        note(f"  substrate: new benchmarks (update baseline): {added}")
    note("substrate timing deltas (warn-only):")
    for name in sorted(set(base_by) & set(run_by)):
        b, r = base_by[name], run_by[name]
        for field in ("real_time_ns", "items_per_second"):
            if field in b and field in r:
                timing_delta(name, field, b[field], r[field], args.warn_pct)


def check_ablation(args):
    base, run = load_pair(args.baseline_dir, args.run_dir,
                          "BENCH_ablation_iothreads.json")
    if base is None:
        return
    key = lambda c: (c["streams"], c["io_threads"])
    base_by = {key(c): c for c in base.get("cells", [])}
    run_by = {key(c): c for c in run.get("cells", [])}
    if sorted(base_by) != sorted(run_by):
        fail(f"ablation: grid shape drifted\n    baseline: {sorted(base_by)}\n"
             f"    run:      {sorted(run_by)}")
        return
    note("ablation timing deltas (warn-only):")
    for k in sorted(base_by):
        b, r = base_by[k], run_by[k]
        if b["tasks"] != r["tasks"]:
            fail(f"ablation {k}: task count drifted "
                 f"{b['tasks']} -> {r['tasks']} (chunking is deterministic)")
        cell = f"s{k[0]}xt{k[1]}"
        for field in ("write_bw_mb_s", "read_bw_mb_s", "residency_p99_us"):
            timing_delta(cell, field, b[field], r[field], args.warn_pct)


def check_sieving(args):
    base, run = load_pair(args.baseline_dir, args.run_dir,
                          "BENCH_ablation_sieving.json")
    if base is None:
        return
    key = lambda c: (c["op"], c["strategy"], c["extents"], c["extent_bytes"])
    base_by = {key(c): c for c in base.get("cells", [])}
    run_by = {key(c): c for c in run.get("cells", [])}
    if sorted(base_by) != sorted(run_by):
        fail(f"sieving: grid shape drifted\n    baseline: {sorted(base_by)}\n"
             f"    run:      {sorted(run_by)}")
        return
    note("sieving timing deltas (warn-only):")
    for k in sorted(base_by):
        b, r = base_by[k], run_by[k]
        # Round trips per pattern are the whole point of the ablation: naive
        # pays one per extent, a hull read one fetch, list I/O one message
        # per 4096-extent batch. Deterministic; and since the key carries
        # the path the driver took, a flip of the hull-or-list choice
        # drifts the grid shape and fails too.
        for field in ("wire_ops", "bytes"):
            if b[field] != r[field]:
                fail(f"sieving {k}: stable field '{field}' drifted "
                     f"{b[field]} -> {r[field]}")
        timing_delta("x".join(str(p) for p in k), "sim_s",
                     b["sim_s"], r["sim_s"], args.warn_pct)


def check_tenants(args):
    base, run = load_pair(args.baseline_dir, args.run_dir,
                          "BENCH_ablation_tenants.json")
    if base is None:
        return
    for k in ("clients", "tenants", "threads", "slots", "write_bytes"):
        if base.get(k) != run.get(k):
            fail(f"tenants: stable field '{k}' drifted "
                 f"{base.get(k)} -> {run.get(k)}")
    base_by = {t["tenant"]: t for t in base.get("per_tenant", [])}
    run_by = {t["tenant"]: t for t in run.get("per_tenant", [])}
    if sorted(base_by) != sorted(run_by):
        fail(f"tenants: tenant set drifted\n    baseline: {sorted(base_by)}\n"
             f"    run:      {sorted(run_by)}")
        return
    for name in sorted(base_by):
        b, r = base_by[name], run_by[name]
        # Quotas are generous by construction, so ops/objects/bytes are a
        # pure function of the client grid: any drift means an op was
        # dropped, double-charged, or mis-accounted.
        for field in ("ops", "objects", "bytes"):
            if b[field] != r[field]:
                fail(f"tenants {name}: stable field '{field}' drifted "
                     f"{b[field]} -> {r[field]}")
    note("tenants timing deltas (warn-only):")
    for field in ("p50_us", "p95_us", "p99_us"):
        timing_delta("tenants-global", field, base[field], run[field],
                     args.warn_pct)


def check_integrity(args):
    base, run = load_pair(args.baseline_dir, args.run_dir,
                          "BENCH_ablation_integrity.json")
    if base is None:
        return
    # The wire-CRC byte overhead is an exact protocol property: one frame per
    # rpc, 4 bytes per frame per direction (the connect pair carries the
    # feature-flags word and its echo instead of a CRC trailer).
    for k in ("rpcs", "frames_per_direction", "delta_sent_bytes",
              "delta_recv_bytes", "per_frame_sent", "per_frame_recv"):
        if base["overhead"].get(k) != run["overhead"].get(k):
            fail(f"integrity overhead: stable field '{k}' drifted "
                 f"{base['overhead'].get(k)} -> {run['overhead'].get(k)}")
    # Injected-fault counts depend on I/O-thread interleaving, so only the
    # contracts gate: the run ends intact, at least one damaged frame was
    # detected, and integrity errors never tore a connection down.
    corr = run.get("corruption", {})
    if corr.get("intact") is not True:
        fail("integrity corruption: run did not end intact")
    if corr.get("any_detected") is not True:
        fail("integrity corruption: no checksum mismatch was detected")
    if corr.get("reconnects") != 0:
        fail(f"integrity corruption: {corr.get('reconnects')} reconnect(s) — "
             "integrity errors must replay, not reconnect")
    for k in ("mismatched", "quarantined", "healed"):
        if base["scrub"].get(k) != run["scrub"].get(k):
            fail(f"integrity scrub: stable field '{k}' drifted "
                 f"{base['scrub'].get(k)} -> {run['scrub'].get(k)}")
    note("integrity timing deltas (warn-only):")
    timing_delta("integrity", "reread_wall_ratio",
                 base["overhead"]["reread_wall_ratio"],
                 run["overhead"]["reread_wall_ratio"], args.warn_pct)
    timing_delta("integrity", "corruption sim_s",
                 base["corruption"]["sim_s"], corr.get("sim_s", 0.0),
                 args.warn_pct)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline-dir", default="bench/baseline")
    ap.add_argument("--run-dir", default=".")
    ap.add_argument("--warn-pct", type=float, default=10.0)
    args = ap.parse_args()

    note("## Bench delta report")
    check_workloads(args)
    check_substrate(args)
    check_ablation(args)
    check_sieving(args)
    check_tenants(args)
    check_integrity(args)

    if failures:
        note(f"\n{len(failures)} stable-field failure(s).")
    else:
        note("\nAll stable fields match the committed baseline.")

    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as f:
            f.write("\n".join(report_lines) + "\n")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
