#!/usr/bin/env bash
# Bench-artifact schema check: every BENCH_*.json in the repo root must
# parse as JSON and carry the envelope the dashboards and diff scripts
# consume — a non-empty string "bench" and a non-empty "records" list
# of flat objects whose values are numbers or strings. Catches a bench
# silently emitting broken or empty artifacts before anyone diffs them.
#
#   scripts/check_bench_json.sh [file ...]   # default: ./BENCH_*.json

set -u
cd "$(dirname "$0")/.."

files=("$@")
if [ ${#files[@]} -eq 0 ]; then
  shopt -s nullglob
  files=(BENCH_*.json)
  shopt -u nullglob
fi
if [ ${#files[@]} -eq 0 ]; then
  echo "no BENCH_*.json artifacts found" >&2
  exit 1
fi

status=0
for f in "${files[@]}"; do
  if python3 - "$f" <<'EOF'
import json
import sys

path = sys.argv[1]
try:
    with open(path) as fh:
        doc = json.load(fh)
except (OSError, ValueError) as e:
    sys.exit(f"{path}: not valid JSON: {e}")

if not isinstance(doc, dict):
    sys.exit(f"{path}: top level must be an object")
bench = doc.get("bench")
if not isinstance(bench, str) or not bench:
    sys.exit(f"{path}: 'bench' must be a non-empty string")
records = doc.get("records")
if not isinstance(records, list) or not records:
    sys.exit(f"{path}: 'records' must be a non-empty list")
for i, rec in enumerate(records):
    if not isinstance(rec, dict) or not rec:
        sys.exit(f"{path}: records[{i}] must be a non-empty object")
    for key, value in rec.items():
        if not isinstance(value, (int, float, str)) or isinstance(value, bool):
            sys.exit(
                f"{path}: records[{i}][{key!r}] must be a number or "
                f"string, got {type(value).__name__}")

# Mixed read/write artifacts (bench_workload_driver --mixed-rw, the
# RCU gate of DESIGN.md §11) carry a fixed record set: one rw_config,
# exactly one rw_phase per phase name, one rw_summary with the gated
# ratio. Validate whenever any rw_* record is present.
rw = [r for r in records if str(r.get("record", "")).startswith("rw_")]
if rw:
    def only(kind):
        found = [r for r in rw if r.get("record") == kind]
        if len(found) != 1:
            sys.exit(f"{path}: expected exactly one {kind!r} record, "
                     f"got {len(found)}")
        return found[0]

    def require(rec, kind, fields):
        for f in fields:
            v = rec.get(f)
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                sys.exit(f"{path}: {kind} record needs numeric {f!r}")

    require(only("rw_config"), "rw_config",
            ("seed", "reader_threads", "k", "writer_window", "trials",
             "phase_duration_s", "writer_qps", "merge_threshold"))
    phases = {r.get("rw_phase"): r for r in rw
              if r.get("record") == "rw_phase"}
    if sorted(phases) != ["mixed", "read_only"]:
        sys.exit(f"{path}: rw_phase records must be exactly "
                 f"read_only + mixed, got {sorted(phases)}")
    for name, rec in phases.items():
        require(rec, f"rw_phase[{name}]",
                ("reads", "read_errors", "writes", "write_errors",
                 "p50_us", "p99_us", "p999_us", "read_qps",
                 "write_qps", "duration_s"))
    if phases["read_only"]["writes"] != 0:
        sys.exit(f"{path}: read_only rw_phase must record zero writes")
    summary = only("rw_summary")
    require(summary, "rw_summary", ("read_throughput_ratio", "merges"))

# Rebalance artifacts (bench_rebalance, the DESIGN.md §12 gate) carry
# a fixed record set: one config, one run per mode (off before on),
# one rebalance counter record, one summary with the gated fields.
if bench == "rebalance":
    def one(kind, **match):
        found = [r for r in records if r.get("record") == kind and
                 all(r.get(k) == v for k, v in match.items())]
        if len(found) != 1:
            sys.exit(f"{path}: expected exactly one {kind!r} record"
                     + (f" with {match}" if match else "")
                     + f", got {len(found)}")
        return found[0]

    def numeric(rec, kind, fields):
        for f in fields:
            v = rec.get(f)
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                sys.exit(f"{path}: {kind} record needs numeric {f!r}")

    numeric(one("config"), "config",
            ("seed", "keys", "dims", "ops", "zipf_s", "workers",
             "max_partitions", "bulk_load_partitions", "bucket_size",
             "min_ratio", "hardware_threads"))
    run_fields = ("completed", "errors", "truncated", "p50_us",
                  "p99_us", "p999_us", "throughput_qps", "duration_s")
    numeric(one("run", mode="off"), "run[off]", run_fields)
    numeric(one("run", mode="on"), "run[on]", run_fields)
    numeric(one("rebalance"), "rebalance",
            ("ticks", "splits", "merges", "migrations", "points_moved",
             "strands_reinserted", "partitions"))
    summary = one("summary")
    numeric(summary, "summary",
            ("throughput_ratio", "identical", "invariants_ok",
             "points_equal", "ratio_gated"))
    for flag in ("identical", "invariants_ok", "points_equal"):
        if summary[flag] != 1:
            sys.exit(f"{path}: summary {flag!r} is {summary[flag]}, "
                     f"expected 1")

print(f"{path}: ok ({bench}, {len(records)} records"
      + (f", {len(rw)} rw" if rw else "") + ")")
EOF
  then :; else status=1; fi
done
exit $status
