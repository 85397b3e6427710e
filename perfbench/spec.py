"""Declaration of the SemTree benchmark: workloads, metrics, bounds, and
the end-to-end metric each per-layer metric should move.

BENCHMARK.json at the repository root is generated from this module:

    python3 perfbench/run.py --write-benchmark-json
"""

import re

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 15

WORKLOADS = [
    {
        "name": "semantic-knn",
        "why": "Embed a Zipf-popular triple, then exact 10-NN through the "
        "engine cache over a 5-partition SemTree: the paper's path; "
        "fastmap on every op, semtree only on cache misses",
    },
    {
        "name": "skew-rebalance",
        "why": "Zipf-hot keys crowd one or two of 4 data partitions, the "
        "rebalancer splits them onto idle seats, then k-NN/range traffic: "
        "where semtree, partition skew and rebalance act",
    },
    {
        "name": "local-rw",
        "why": "Sequential KD-tree behind the engine with the cache off, "
        "3 closed-loop readers and 1 paced writer: measures kdtree/core "
        "and the engine's sequential-target path",
    },
]

END_TO_END = [
    {"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.25},
    {"name": "knn_p50_us", "unit": "us", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _m(name, unit, better):
    return {"name": name, "unit": unit, "better": better}


PER_LAYER = [
    _m("fastmap.embed_p50_us", "us", "lower"),
    _m("fastmap.embed_share", "ratio", "lower"),
    _m("engine.runone_p50_us", "us", "lower"),
    _m("engine.self_us", "us", "lower"),
    _m("engine.cache_hit_ratio", "ratio", "higher"),
    _m("engine.cache_insertions", "count", "lower"),
    _m("engine.cache_evictions", "count", "lower"),
    _m("semtree.knn_p50_us", "us", "lower"),
    _m("semtree.range_p50_us", "us", "lower"),
    _m("semtree.write_p50_us", "us", "lower"),
    _m("semtree.partitions_per_query", "count", "lower"),
    _m("semtree.truncated_frac", "ratio", "lower"),
    _m("cluster.msgs_per_op", "count", "lower"),
    _m("cluster.bytes_per_op", "bytes", "lower"),
    _m("cluster.remote_msgs_per_op", "count", "lower"),
    _m("cluster.forwards_per_op", "count", "lower"),
    _m("cluster.calls_per_op", "count", "lower"),
    _m("partition.dist_per_query", "count", "lower"),
    _m("partition.load_skew", "ratio", "lower"),
    _m("partition.routing_only", "count", "lower"),
    _m("rebalance.splits", "count", "lower"),
    _m("rebalance.merges", "count", "lower"),
    _m("rebalance.migrations", "count", "lower"),
    _m("rebalance.points_moved", "count", "lower"),
    _m("rebalance.tick_p50_us", "us", "lower"),
    _m("kdtree.knn_p50_us", "us", "lower"),
    _m("kdtree.points_examined_per_query", "count", "lower"),
    _m("kdtree.read_write_ratio", "ratio", "higher"),
    _m("op.throughput_qps", "1/s", "higher"),
    _m("op.p99_us", "us", "lower"),
    _m("op.range_p50_us", "us", "lower"),
    _m("op.write_p50_us", "us", "lower"),
    _m("trace.overhead_frac", "ratio", "lower"),
    _m("trace.op_self_share", "ratio", "lower"),
]

# Which end-to-end metrics each layer's metrics should move, and on
# which workloads. Every per-layer metric belongs to exactly one group.
LAYERS = [
    {"layer": "fastmap",
     "metrics": ["fastmap.embed_p50_us", "fastmap.embed_share"],
     "moves": ["p50_us", "knn_p50_us"],
     "on": ["semantic-knn"]},
    {"layer": "engine",
     "metrics": ["engine.runone_p50_us", "engine.self_us",
                 "engine.cache_hit_ratio", "engine.cache_insertions",
                 "engine.cache_evictions"],
     "moves": ["p50_us"],
     "on": ["semantic-knn", "local-rw"]},
    {"layer": "semtree",
     "metrics": ["semtree.knn_p50_us", "semtree.range_p50_us",
                 "semtree.write_p50_us", "semtree.partitions_per_query",
                 "semtree.truncated_frac"],
     "moves": ["knn_p50_us", "p50_us"],
     "on": ["skew-rebalance", "semantic-knn"]},
    {"layer": "cluster",
     "metrics": ["cluster.msgs_per_op", "cluster.bytes_per_op",
                 "cluster.remote_msgs_per_op", "cluster.forwards_per_op",
                 "cluster.calls_per_op"],
     "moves": ["p50_us"],
     "on": ["skew-rebalance", "semantic-knn"]},
    {"layer": "partition",
     "metrics": ["partition.dist_per_query", "partition.load_skew",
                 "partition.routing_only"],
     "moves": ["p50_us", "knn_p50_us"],
     "on": ["skew-rebalance"]},
    {"layer": "rebalance",
     "metrics": ["rebalance.splits", "rebalance.merges",
                 "rebalance.migrations", "rebalance.points_moved",
                 "rebalance.tick_p50_us"],
     "moves": ["p50_us"],
     "on": ["skew-rebalance"]},
    {"layer": "kdtree",
     "metrics": ["kdtree.knn_p50_us", "kdtree.points_examined_per_query",
                 "kdtree.read_write_ratio"],
     "moves": ["knn_p50_us", "p50_us"],
     "on": ["local-rw"]},
    {"layer": "op",
     "metrics": ["op.throughput_qps", "op.p99_us", "op.range_p50_us",
                 "op.write_p50_us"],
     "moves": ["p50_us"],
     "on": ["skew-rebalance", "local-rw"]},
    {"layer": "trace",
     "metrics": ["trace.overhead_frac", "trace.op_self_share"],
     "moves": [],
     "on": ["semantic-knn", "skew-rebalance", "local-rw"]},
]

MAX_BOUND = 0.25
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_name(name):
    """A metric or workload name: a letter or digit, then at most 63
    letters, digits, '_', '.' and '-'."""
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and _UNIT.fullmatch(unit) is not None


def benchmark_json():
    """The BENCHMARK.json document, key for key."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def problems(doc=None, layers=None):
    """Every rule of the declaration `doc` (default: this module's) and
    its layer map `layers` that does not hold, as readable strings."""
    doc = benchmark_json() if doc is None else doc
    layers = LAYERS if layers is None else layers
    out = []
    workloads = [w["name"] for w in doc["workloads"]]
    e2e = {m["name"]: m for m in doc["end_to_end"]}
    layer = {m["name"]: m for m in doc["per_layer"]}
    names = workloads + [m["name"] for m in doc["end_to_end"]] + \
        [m["name"] for m in doc["per_layer"]]
    for name in names:
        if not valid_name(name):
            out.append(f"invalid name {name!r}")
    if len(set(names)) != len(names):
        out.append("a name is used twice")
    for w in doc["workloads"]:
        if set(w) != {"name", "why"}:
            out.append(f"workload {w['name']}: keys must be name and why")
        if len(w["why"]) > 200 or "\n" in w["why"]:
            out.append(f"workload {w['name']}: why is not one short line")
    for m in doc["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"}:
            out.append(f"{m['name']}: end-to-end keys")
        if not 0 < m["bound"] <= MAX_BOUND:
            out.append(f"{m['name']}: bound {m['bound']} out of range")
    for m in doc["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            out.append(f"{m['name']}: per-layer keys")
    for m in list(e2e.values()) + list(layer.values()):
        if not valid_unit(m["unit"]):
            out.append(f"{m['name']}: invalid unit {m['unit']!r}")
        if m["better"] not in ("higher", "lower"):
            out.append(f"{m['name']}: better must be higher or lower")
    setup = e2e.get("setup_s")
    if setup is None or setup["unit"] != "s" or setup["better"] != "lower":
        out.append("setup_s must be declared in s, lower is better")
    elif any(m["bound"] > setup["bound"] for m in e2e.values()):
        out.append("setup_s must have the largest bound")
    if not 2 <= len(workloads) <= 8:
        out.append("2 to 8 workloads")
    if not 1 <= len(e2e) <= 16 or not 1 <= len(layer) <= 128:
        out.append("metric counts out of range")
    seen = []
    for group in layers:
        seen += group["metrics"]
        for name in group["metrics"]:
            if name not in layer:
                out.append(f"layer {group['layer']}: undeclared {name}")
        for name in group["moves"]:
            if name not in e2e:
                out.append(f"layer {group['layer']}: moves unknown {name}")
        for name in group["on"]:
            if name not in workloads:
                out.append(f"layer {group['layer']}: unknown workload {name}")
    if sorted(seen) != sorted(layer):
        out.append("every per-layer metric must be in exactly one layer")
    return out
