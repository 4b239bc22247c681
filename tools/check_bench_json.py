#!/usr/bin/env python3
"""Validate the JSON artifacts emitted by the rmt observability layer.

Understands the nine schemas the repository produces:
  * rmt.bench/1    — bench/ driver reports (obs::BenchReport);
  * rmt.analyze/1  — `rmt_cli analyze --json`;
  * rmt.run/1      — `rmt_cli run --json`;
  * rmt.validate/1 — `rmt_cli validate --json` (rmt::audit diagnostics);
  * rmt.request/1  — one query to the svc serving stack (the lines
                     tools/rmt_serve reads and `rmt_cli decide` implies);
  * rmt.response/1 — the matching answer lines (rmt_serve stdout,
                     `rmt_cli decide` output);
  * rmt.trace/1    — flight-recorder span dumps (obs/trace.hpp; rmt_serve
                     --trace-out, rmt_cli --trace-out, bench --trace-out).
                     JSONL: one header line, then one line per span. Parent
                     pointers must form a well-founded forest — every
                     parent resolves within the dump to a span of the same
                     trace, no cycles, and a child's [start_ns, end_ns]
                     interval nests inside its parent's. Join references
                     must resolve too (they may cross traces: a coalesced
                     request's join span points at the leader's compute
                     span). Resolution is enforced only when the header
                     says dropped == 0 — ring overwrite legitimately evicts
                     parents in long runs;
  * rmt.campaign/1 — JSONL campaign manifests (exec::Campaign --resume
                     checkpoints). Files ending in .jsonl are validated
                     line by line: at least one header, a consistent
                     campaign identity, and well-formed shard lines
                     (shard < of, begin <= end, single-line payload);
  * rmt.store/1    — `rmt_cli store dump` JSONL: one header line naming
                     the store generation and record/byte totals, then
                     one line per record (key, seq, value_len, 16-hex
                     checksum, live flag). The header's counts must agree
                     with the record lines, and live_records <= records.

JSONL files whose lines carry rmt.request/1 / rmt.response/1 schemas (a
captured serving transcript) are validated line by line against those
checkers, files whose lines carry rmt.trace/1 against the trace rules, and
files whose lines carry rmt.store/1 against the store-dump rules, instead
of the campaign rules.

Usage:
  check_bench_json.py [--require-phases] [--require-sim] FILE [FILE ...]
  check_bench_json.py --self-test

  --require-phases  fail unless metrics.phases has at least one entry
  --require-sim     fail unless the simulator counters (sim.runs > 0)
                    are present in metrics.counters
  --self-test       validate the checkers themselves against embedded
                    good/bad documents and exit

Exit code 0 if every file validates, 1 otherwise (problems on stderr).
Wired into ctest so a malformed artifact fails the build's test suite.
"""

import argparse
import json
import math
import os
import re
import sys

SCALAR = (str, int, float, bool)
HISTOGRAM_FIELDS = [
    "count", "total_us", "mean_us", "min_us", "p50_us", "p95_us", "p99_us", "max_us",
]
METRICS_SECTIONS = ["counters", "gauges", "phases", "histograms", "summaries"]
NETWORK_STAT_FIELDS = [
    "rounds", "honest_messages", "adversary_messages", "adversary_dropped",
    "honest_payload_bytes", "adversary_payload_bytes", "peak_round_messages",
    "quiet_rounds",
]


class Problems:
    def __init__(self, path):
        self.path = path
        self.items = []

    def add(self, msg):
        self.items.append(f"{self.path}: {msg}")


def check_histogram(h, where, problems):
    if not isinstance(h, dict):
        problems.add(f"{where}: not an object")
        return
    for field in HISTOGRAM_FIELDS:
        if not isinstance(h.get(field), (int, float)) or isinstance(h.get(field), bool):
            problems.add(f"{where}.{field}: missing or non-numeric")
    if all(isinstance(h.get(f), (int, float)) for f in ("p50_us", "p95_us", "p99_us", "max_us")):
        if not h["p50_us"] <= h["p95_us"] <= h["p99_us"] <= h["max_us"] * (1 + 1e-9):
            problems.add(f"{where}: percentiles not monotone "
                         f"(p50={h['p50_us']} p95={h['p95_us']} p99={h['p99_us']} max={h['max_us']})")
    if isinstance(h.get("count"), int) and h["count"] < 0:
        problems.add(f"{where}.count: negative")


def check_metrics(metrics, problems, require_phases, require_sim):
    if not isinstance(metrics, dict):
        problems.add("metrics: not an object")
        return
    for section in METRICS_SECTIONS:
        if not isinstance(metrics.get(section), dict):
            problems.add(f"metrics.{section}: missing or not an object")
    counters = metrics.get("counters", {})
    if isinstance(counters, dict):
        for name, v in counters.items():
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                problems.add(f"metrics.counters[{name}]: not a non-negative integer")
    for section in ("phases", "histograms"):
        entries = metrics.get(section, {})
        if isinstance(entries, dict):
            for name, h in entries.items():
                check_histogram(h, f"metrics.{section}[{name}]", problems)
    if require_phases and not metrics.get("phases"):
        problems.add("metrics.phases: empty (per-phase timings required; "
                     "was observability enabled in the producer?)")
    if require_sim:
        if not isinstance(counters, dict) or not counters.get("sim.runs"):
            problems.add("metrics.counters['sim.runs']: missing or zero "
                         "(simulator counters required)")


def check_bench(doc, problems, args):
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        problems.add("name: missing or empty")
    run = doc.get("run")
    if not isinstance(run, dict):
        problems.add("run: missing or not an object (the run anchors)")
    else:
        for field in ("start_unix_ms", "mono_anchor_ns"):
            if not _is_uint(run.get(field)):
                problems.add(f"run.{field}: missing or not a non-negative integer")
    columns = doc.get("columns")
    if not (isinstance(columns, list) and columns
            and all(isinstance(c, str) for c in columns)):
        problems.add("columns: must be a non-empty array of strings")
        columns = []
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.add("rows: must be a non-empty array")
        rows = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            problems.add(f"rows[{i}]: not an object")
            continue
        if columns and list(row.keys()) != columns:
            problems.add(f"rows[{i}]: keys {list(row.keys())} != columns {columns}")
        for key, v in row.items():
            if not isinstance(v, SCALAR):
                problems.add(f"rows[{i}][{key}]: non-scalar value")
    # Answer-identity columns are a hard gate, not a data point: a bench
    # that declares `identical` (e.g. bench_decider's seed-vs-optimized
    # witness comparison) asserts its optimized paths reproduce the seed
    # answers bit for bit. Any row that is not literally true fails.
    if "identical" in columns:
        for i, row in enumerate(rows):
            if isinstance(row, dict) and row.get("identical") is not True:
                problems.add(f"rows[{i}].identical: {row.get('identical')!r} "
                             f"(optimized answer diverged from seed)")
    # Budget columns are the same kind of gate: bench_trace_overhead's
    # `within_budget` asserts the measured tracing overhead stayed under
    # its hard per-row budget. Any row that is not literally true fails.
    if "within_budget" in columns:
        for i, row in enumerate(rows):
            if isinstance(row, dict) and row.get("within_budget") is not True:
                problems.add(f"rows[{i}].within_budget: {row.get('within_budget')!r} "
                             f"(measured overhead exceeded the hard budget)")
    # Throughput columns (`qps`, `qps_tcp`, `qps_direct`, ...) must be
    # usable numbers: a NaN, infinity, negative, or non-numeric cell means
    # the driver's timing loop broke (zero wall time, overflow) and the
    # artifact cannot be compared across runs. Timings are never *asserted*
    # beyond that — this is a sanity rule, not a perf gate.
    for col in columns:
        if col != "qps" and not col.startswith("qps_"):
            continue
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                continue
            v = row.get(col)
            if isinstance(v, bool) or not isinstance(v, (int, float)) \
                    or not math.isfinite(v) or v < 0:
                problems.add(f"rows[{i}].{col}: {v!r} "
                             f"(throughput must be a non-negative finite number)")
    # BENCH_store.json column rules: bench_store's rows compare cold
    # compute against the memory tier and the disk tier after a restart,
    # so the timing/speedup cells must be usable non-negative finite
    # numbers (the identical column is already gated above). A missing
    # column means the driver's schema drifted from the dashboard's.
    if name == "bench_store":
        required = ["workload", "cold_us", "mem_warm_us", "disk_warm_us",
                    "speedup_mem", "speedup_disk", "identical"]
        for col in required:
            if col not in columns:
                problems.add(f"columns: bench_store requires {col!r}")
        for col in ("cold_us", "mem_warm_us", "disk_warm_us",
                    "speedup_mem", "speedup_disk"):
            if col not in columns:
                continue
            for i, row in enumerate(rows):
                if not isinstance(row, dict):
                    continue
                v = row.get(col)
                if isinstance(v, bool) or not isinstance(v, (int, float)) \
                        or not math.isfinite(v) or v < 0:
                    problems.add(f"rows[{i}].{col}: {v!r} "
                                 f"(must be a non-negative finite number)")
    # BENCH_svc.json's heap footprint of a cached answer: a row that
    # measured one (accounted_b_per_entry > 0) may cost at most
    # MAX_HEAP_RATIO × its accounted key + value bytes — the gate
    # bench_svc_throughput also RMT_CHECKs — and must report the mean cost
    # of a put and of a hit (put_ns / get_ns > 0). Every cell must be a
    # usable non-negative finite number on every row.
    if "heap_b_per_entry" in columns:
        for col in ("accounted_b_per_entry", "put_ns", "get_ns"):
            if col not in columns:
                problems.add(f"columns: a footprint table requires {col!r}")
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                continue
            heap = row.get("heap_b_per_entry")
            accounted = row.get("accounted_b_per_entry")
            put_ns, get_ns = row.get("put_ns"), row.get("get_ns")
            if not all(_is_size(v) for v in (heap, accounted, put_ns, get_ns)):
                problems.add(f"rows[{i}]: heap_b_per_entry {heap!r} / accounted_b_per_entry "
                             f"{accounted!r} / put_ns {put_ns!r} / get_ns {get_ns!r} "
                             f"(must be non-negative finite numbers)")
            elif accounted > 0 and heap > MAX_HEAP_RATIO * accounted:
                problems.add(f"rows[{i}].heap_b_per_entry: {heap} exceeds "
                             f"{MAX_HEAP_RATIO} x accounted {accounted}")
            elif accounted > 0 and not (put_ns > 0 and get_ns > 0):
                problems.add(f"rows[{i}]: a footprint row must time its puts and hits "
                             f"(put_ns {put_ns!r}, get_ns {get_ns!r})")
    # BENCH_svc.json's io rows: the cost of turning instance text into an
    # Instance and its key, against the reference parser and the reference
    # serializer + key_of_text (the gate itself is `identical`, above). A
    # bench_svc table split into sections must carry its io columns and at
    # least one io row, and every io row reports a text size and four
    # positive ns/B cells. Timings are never compared with each other.
    if name == "bench_svc" and "section" in columns:
        for col in SVC_IO_COLUMNS:
            if col not in columns:
                problems.add(f"columns: bench_svc's io rows require {col!r}")
        io_rows = 0
        for i, row in enumerate(rows):
            if not isinstance(row, dict) or row.get("section") != "io":
                continue
            io_rows += 1
            for col in SVC_IO_COLUMNS:
                v = row.get(col)
                if not _is_size(v) or v <= 0:
                    problems.add(f"rows[{i}].{col}: {v!r} "
                                 f"(an io row must measure a positive finite number)")
        if io_rows == 0:
            problems.add("rows: bench_svc needs io rows (instance parse and key against "
                         "the references)")
    # BENCH_decider.json: one row per (instance, decider) with a timing
    # column per path; a missing column is schema drift.
    if name == "bench_decider":
        for col in ("decider", "reference_ms", "shipped_ms", "identical"):
            if col not in columns:
                problems.add(f"columns: bench_decider requires {col!r}")
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                continue
            decider = row.get("decider")
            if decider not in DECIDER_NAMES:
                problems.add(f"rows[{i}].decider: {decider!r} is not one of "
                             f"{sorted(DECIDER_NAMES)}")
            for col in ("reference_ms", "shipped_ms"):
                if col in row and not _is_size(row[col]):
                    problems.add(f"rows[{i}].{col}: {row[col]!r} "
                                 f"(must be a non-negative finite number)")
    # BENCH_net.json's framing row: the line framer's cost per byte. Every
    # ns_per_byte cell is a usable number, and a table with a `section`
    # column carries exactly one framing row that measured something.
    if name == "bench_net" and "ns_per_byte" in columns:
        framing = 0
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                continue
            v = row.get("ns_per_byte")
            if not _is_size(v):
                problems.add(f"rows[{i}].ns_per_byte: {v!r} "
                             f"(must be a non-negative finite number)")
            elif row.get("section") == "framing":
                framing += 1
                if v <= 0:
                    problems.add(f"rows[{i}].ns_per_byte: the framing row measured nothing")
        if "section" in columns and framing != 1:
            problems.add(f"rows: bench_net needs exactly one framing row, found {framing}")
    check_metrics(doc.get("metrics"), problems, args.require_phases, args.require_sim)


def _is_size(v):
    return (not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v)
            and v >= 0)


# The most heap a cached answer may cost per accounted byte
# (bench_svc_throughput's kMaxHeapRatio).
MAX_HEAP_RATIO = 0.75

# bench_svc's io rows: mean text size, then ns per text byte of the shipped
# parser, the reference parser, the streamed key and the reference key.
SVC_IO_COLUMNS = ("bytes_per_text", "parse_ns_per_b", "parse_ref_ns_per_b", "key_ns_per_b",
                  "key_ref_ns_per_b")

# bench_decider's rows: the four deciders, and the served `simulate` kind
# against each sim::make_strategy strategy.
SIM_STRATEGIES = ("silent", "value-flip", "random-lies", "phantom-world", "two-faced")
DECIDER_NAMES = frozenset(["rmt", "zpp", "two-cover", "analyze"] +
                          [f"simulate/{s}" for s in SIM_STRATEGIES])


def check_analyze(doc, problems, args):
    inst = doc.get("instance")
    if not isinstance(inst, dict):
        problems.add("instance: missing or not an object")
    else:
        for field in ("players", "channels", "dealer", "receiver", "maximal_sets"):
            if not isinstance(inst.get(field), int) or isinstance(inst.get(field), bool):
                problems.add(f"instance.{field}: missing or non-integer")
    for field in ("rmt_solvable", "zcpa_solvable", "full_knowledge_solvable"):
        if not isinstance(doc.get(field), bool):
            problems.add(f"{field}: missing or non-boolean")
    if "rmt_cut_witness" not in doc:
        problems.add("rmt_cut_witness: missing (null expected when solvable)")
    check_metrics(doc.get("metrics"), problems, args.require_phases, args.require_sim)


def check_run(doc, problems, args):
    for field in ("correct", "wrong"):
        if not isinstance(doc.get(field), bool):
            problems.add(f"{field}: missing or non-boolean")
    if "decision" not in doc:
        problems.add("decision: missing (null expected on abstention)")
    stats = doc.get("stats")
    if not isinstance(stats, dict):
        problems.add("stats: missing or not an object")
    else:
        for field in NETWORK_STAT_FIELDS:
            if not isinstance(stats.get(field), int) or isinstance(stats.get(field), bool):
                problems.add(f"stats.{field}: missing or non-integer")
    phases = doc.get("phases")
    if not isinstance(phases, dict):
        problems.add("phases: missing or not an object")
    elif args.require_phases and not phases:
        problems.add("phases: empty (per-run phase breakdown required)")
    check_metrics(doc.get("metrics"), problems, args.require_phases, args.require_sim)


def check_validate(doc, problems, args):
    inst = doc.get("instance")
    if not isinstance(inst, dict):
        problems.add("instance: missing or not an object")
    else:
        for field in ("players", "channels", "dealer", "receiver", "maximal_sets"):
            if not isinstance(inst.get(field), int) or isinstance(inst.get(field), bool):
                problems.add(f"instance.{field}: missing or non-integer")
    valid = doc.get("valid")
    if not isinstance(valid, bool):
        problems.add("valid: missing or non-boolean")
    diags = doc.get("diagnostics")
    if not isinstance(diags, list):
        problems.add("diagnostics: missing or not an array")
        diags = []
    for i, d in enumerate(diags):
        if not isinstance(d, dict):
            problems.add(f"diagnostics[{i}]: not an object")
            continue
        for field in ("component", "message"):
            if not isinstance(d.get(field), str) or not d.get(field):
                problems.add(f"diagnostics[{i}].{field}: missing or empty")
    if valid is True and diags:
        problems.add("diagnostics: non-empty although valid=true")
    if valid is False and not diags:
        problems.add("diagnostics: empty although valid=false")
    check_metrics(doc.get("metrics"), problems, args.require_phases, args.require_sim)


def _is_uint(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


# --- the svc wire protocol (rmt.request/1 / rmt.response/1) ------------------

# The four engine query kinds plus the "stats" / "trace" probes rmt_serve
# answers without consulting the engine.
REQUEST_KINDS = ["decide_rmt", "decide_zpp", "analyze", "simulate", "stats", "trace"]
RESPONSE_STATUSES = ["ok", "deadline_exceeded", "error"]
KEY_HEX_RE = re.compile(r"^[0-9a-f]{32}$")
# The caps src/svc/wire.hpp enforces: kMaxIdBytes, and kMaxCorruptedEntries,
# kMaxCorruptedId and kMaxRounds, which derive from io::kMaxParseNodes = 512.
MAX_PARSE_NODES = 512
MAX_ID_BYTES = 256
MAX_CORRUPTED_ENTRIES = MAX_PARSE_NODES
MAX_CORRUPTED_ID = MAX_PARSE_NODES - 1
MAX_ROUNDS = MAX_PARSE_NODES + 1
# The "engine" section of a stats probe's result (svc::Engine::Stats):
# exactly these fields, each a non-negative integer.
ENGINE_STAT_FIELDS = ["requests", "computed", "coalesced", "deadline_exceeded",
                      "errors", "disk_hits"]
# The "memo" section of a stats probe's result (svc::InstanceMemo::Stats).
MEMO_STAT_FIELDS = ["hits", "misses", "evictions", "bytes", "entries"]
# The TCP stats probe's "net" section (net::NetStats): every field is a
# non-negative integer, and these must be present.
NET_STAT_FIELDS = ["accepts", "active", "disconnects", "bytes_in", "bytes_out",
                   "lines_in", "responses_out", "shed", "slow_client_disconnects",
                   "frame_rejects", "inline_hits", "batches"]
NET_REQUIRED_FIELDS = ["inline_hits", "batches"]


def check_request(doc, problems, args):
    if not isinstance(doc.get("id"), str):
        problems.add("id: missing or not a string")
    elif len(doc["id"].encode("utf-8")) > MAX_ID_BYTES:
        problems.add(f"id: {len(doc['id'].encode('utf-8'))} bytes exceeds {MAX_ID_BYTES}")
    kind = doc.get("kind")
    if kind not in REQUEST_KINDS:
        problems.add(f"kind: {kind!r} not one of {REQUEST_KINDS}")
    if not isinstance(doc.get("instance"), str):
        problems.add("instance: missing or not a string (the embedded "
                     "rmt-instance v1 text)")
    elif kind not in ("stats", "trace") and "rmt-instance v1" not in doc["instance"]:
        problems.add("instance: does not contain an 'rmt-instance v1' header")
    if "deadline_ms" in doc and not _is_uint(doc["deadline_ms"]):
        problems.add("deadline_ms: not a non-negative integer")
    if "no_cache" in doc and not isinstance(doc["no_cache"], bool):
        problems.add("no_cache: not a boolean")
    params = doc.get("params")
    if params is not None:
        if not isinstance(params, dict):
            problems.add("params: not an object")
        else:
            for field in ("value", "seed", "max_rounds"):
                if field in params and not _is_uint(params[field]):
                    problems.add(f"params.{field}: not a non-negative integer")
            if _is_uint(params.get("max_rounds")) and params["max_rounds"] > MAX_ROUNDS:
                problems.add(f"params.max_rounds: {params['max_rounds']} exceeds {MAX_ROUNDS}")
            if "strategy" in params and not isinstance(params["strategy"], str):
                problems.add("params.strategy: not a string")
            corrupted = params.get("corrupted")
            if corrupted is not None and not (
                    isinstance(corrupted, list) and all(_is_uint(v) for v in corrupted)):
                problems.add("params.corrupted: not an array of node ids")
            elif corrupted is not None:
                if len(corrupted) > MAX_CORRUPTED_ENTRIES:
                    problems.add(f"params.corrupted: {len(corrupted)} entries exceed "
                                 f"{MAX_CORRUPTED_ENTRIES}")
                for v in corrupted:
                    if v > MAX_CORRUPTED_ID:
                        problems.add(f"params.corrupted: node id {v} exceeds "
                                     f"{MAX_CORRUPTED_ID}")


def check_response(doc, problems, args):
    if not isinstance(doc.get("id"), str):
        problems.add("id: missing or not a string")
    status = doc.get("status")
    if status not in RESPONSE_STATUSES:
        problems.add(f"status: {status!r} not one of {RESPONSE_STATUSES}")
    key = doc.get("key", "absent")
    if key == "absent":
        problems.add("key: missing (null expected when unknown)")
    elif key is not None and not (isinstance(key, str) and KEY_HEX_RE.match(key)):
        problems.add(f"key: {key!r} is neither null nor 32 lowercase hex chars")
    result = doc.get("result", "absent")
    if status == "ok":
        if not isinstance(result, dict):
            problems.add("result: missing or not an object although status is ok")
        elif result.get("kind") == "stats":
            engine = result.get("engine")
            if not isinstance(engine, dict):
                problems.add("result.engine: missing or not an object in a stats probe")
            else:
                for field in ENGINE_STAT_FIELDS:
                    if not _is_uint(engine.get(field)):
                        problems.add(f"result.engine.{field}: missing or not a "
                                     "non-negative integer")
                for field in sorted(set(engine) - set(ENGINE_STAT_FIELDS)):
                    problems.add(f"result.engine.{field}: unknown field")
            memo = result.get("memo")
            if not isinstance(memo, dict):
                problems.add("result.memo: missing or not an object in a stats probe")
            else:
                for field in MEMO_STAT_FIELDS:
                    if not _is_uint(memo.get(field)):
                        problems.add(f"result.memo.{field}: missing or not a "
                                     "non-negative integer")
            net = result.get("net")
            if net is not None:  # only the TCP server reports one
                if not isinstance(net, dict):
                    problems.add("result.net: not an object")
                else:
                    for field in NET_REQUIRED_FIELDS:
                        if field not in net:
                            problems.add(f"result.net.{field}: missing")
                    for field, value in net.items():
                        if not _is_uint(value):
                            problems.add(f"result.net.{field}: not a non-negative integer")
    elif result is not None:
        problems.add(f"result: must be null when status is {status!r}")
    error = doc.get("error", "absent")
    if status == "error":
        if not isinstance(error, str) or not error:
            problems.add("error: missing or empty although status is error")
    elif error is not None:
        problems.add(f"error: must be null when status is {status!r}")
    for field in ("cached", "coalesced"):
        if not isinstance(doc.get(field), bool):
            problems.add(f"{field}: missing or not a boolean")
    wall = doc.get("wall_us")
    if not isinstance(wall, (int, float)) or isinstance(wall, bool) or wall < 0:
        problems.add("wall_us: missing or not a non-negative number")
    trace_id = doc.get("trace_id", "absent")
    if trace_id == "absent":
        problems.add("trace_id: missing (null expected when tracing is off)")
    elif trace_id is not None and not (isinstance(trace_id, str)
                                       and SPAN_HEX_RE.match(trace_id)):
        problems.add(f"trace_id: {trace_id!r} is neither null nor 16 lowercase hex chars")


# --- the flight-recorder dump (rmt.trace/1 JSONL) ----------------------------

SPAN_HEX_RE = re.compile(r"^[0-9a-f]{16}$")
TRACE_HEADER_FIELDS = ["run_start_unix_ms", "mono_anchor_ns", "capacity",
                       "recorded", "dropped"]
SPAN_KINDS = ["span", "join"]


def _check_trace_span(doc, where, problems):
    """Per-line span checks; returns the decoded span or None."""
    ok = True
    for field in ("trace", "span"):
        v = doc.get(field)
        if not (isinstance(v, str) and SPAN_HEX_RE.match(v)):
            problems.add(f"{where}.{field}: {v!r} is not 16 lowercase hex chars")
            ok = False
    for field in ("parent", "join"):
        v = doc.get(field, "absent")
        if v == "absent":
            problems.add(f"{where}.{field}: missing (null expected for none)")
            ok = False
        elif v is not None and not (isinstance(v, str) and SPAN_HEX_RE.match(v)):
            problems.add(f"{where}.{field}: {v!r} is neither null nor 16 hex chars")
            ok = False
    if not isinstance(doc.get("name"), str) or not doc.get("name"):
        problems.add(f"{where}.name: missing or empty")
        ok = False
    kind = doc.get("kind")
    if kind not in SPAN_KINDS:
        problems.add(f"{where}.kind: {kind!r} not one of {SPAN_KINDS}")
        ok = False
    elif (kind == "join") != (doc.get("join") is not None):
        problems.add(f"{where}: kind {kind!r} inconsistent with join "
                     f"{doc.get('join')!r} (joins and only joins carry a target)")
    for field in ("start_ns", "end_ns"):
        if not _is_uint(doc.get(field)):
            problems.add(f"{where}.{field}: missing or not a non-negative integer")
            ok = False
    if ok and doc["end_ns"] < doc["start_ns"]:
        problems.add(f"{where}: end_ns {doc['end_ns']} < start_ns {doc['start_ns']}")
    if "attrs" in doc and not isinstance(doc["attrs"], str):
        problems.add(f"{where}.attrs: not a string")
    return doc if ok else None


def check_trace_lines(lines, problems):
    """Validate an rmt.trace/1 dump, given its decoded lines.

    Structure first (every line), then the parent-pointer forest: parents
    resolve in-trace with nested intervals and no cycles, joins resolve
    (possibly cross-trace). Resolution is only enforced when the header
    reports dropped == 0 — an overwritten ring legitimately loses parents.
    """
    header = None
    spans = []
    for i, doc in lines:
        where = f"line {i}"
        if not isinstance(doc, dict):
            problems.add(f"{where}: not an object")
            continue
        if doc.get("schema") != "rmt.trace/1":
            problems.add(f"{where}: schema is not rmt.trace/1")
            continue
        if "span" not in doc:  # header line
            if header is not None:
                problems.add(f"{where}: second header line")
                continue
            if spans:
                problems.add(f"{where}: header after span lines")
            header = doc
            for field in TRACE_HEADER_FIELDS:
                if not _is_uint(doc.get(field)):
                    problems.add(f"{where} (header).{field}: missing or not a "
                                 f"non-negative integer")
            if _is_uint(doc.get("recorded")) and _is_uint(doc.get("dropped")) \
                    and doc["dropped"] > doc["recorded"]:
                problems.add(f"{where} (header): dropped {doc['dropped']} > "
                             f"recorded {doc['recorded']}")
            continue
        span = _check_trace_span(doc, where, problems)
        if span is not None:
            spans.append((i, span))
    if header is None:
        problems.add("no rmt.trace/1 header line found")
        return
    if _is_uint(header.get("capacity")) and len(spans) > header["capacity"]:
        problems.add(f"{len(spans)} span lines exceed the header capacity "
                     f"{header['capacity']}")
    if _is_uint(header.get("recorded")) and _is_uint(header.get("dropped")) \
            and header["dropped"] == 0 \
            and len(lines) - 1 == len(spans) and len(spans) != header["recorded"]:
        problems.add(f"header says recorded={header['recorded']} dropped=0 "
                     f"but the dump carries {len(spans)} span lines")
    by_id = {}
    for i, span in spans:
        if span["span"] in by_id:
            problems.add(f"line {i}: duplicate span id {span['span']}")
        else:
            by_id[span["span"]] = (i, span)
    complete = _is_uint(header.get("dropped")) and header["dropped"] == 0
    for i, span in spans:
        parent = span.get("parent")
        if parent is not None and parent not in by_id and complete:
            problems.add(f"line {i}: parent {parent} does not resolve "
                         f"(and the header says dropped == 0)")
        join = span.get("join")
        if join is not None and join not in by_id and complete:
            problems.add(f"line {i}: join {join} does not resolve "
                         f"(and the header says dropped == 0)")
    for i, span in spans:
        parent = span.get("parent")
        target = by_id.get(parent) if parent is not None else None
        if target is None:
            continue
        pi, p = target
        if p["trace"] != span["trace"]:
            problems.add(f"line {i}: parent {parent} (line {pi}) belongs to "
                         f"trace {p['trace']}, child to {span['trace']}")
        if not (p["start_ns"] <= span["start_ns"] and span["end_ns"] <= p["end_ns"]):
            problems.add(
                f"line {i}: interval [{span['start_ns']}, {span['end_ns']}] not "
                f"inside parent's [{p['start_ns']}, {p['end_ns']}] (line {pi})")
    # Cycle detection over the parent forest (resolved edges only).
    state = {}  # span id -> 1 (on stack) | 2 (done)
    for sid in by_id:
        path = []
        cur = sid
        while cur is not None and cur in by_id and state.get(cur) != 2:
            if state.get(cur) == 1:
                problems.add(f"parent cycle through span {cur} "
                             f"(line {by_id[cur][0]})")
                break
            state[cur] = 1
            path.append(cur)
            cur = by_id[cur][1].get("parent")
        for s in path:
            state[s] = 2


def check_wire_lines(lines, problems):
    """Validate a serving transcript: every line a request or a response."""
    if not lines:
        problems.add("empty transcript")
        return
    args = argparse.Namespace(require_phases=False, require_sim=False)
    for i, doc in lines:
        where = f"line {i}"
        if not isinstance(doc, dict):
            problems.add(f"{where}: not an object")
            continue
        checker = WIRE_CHECKERS.get(doc.get("schema"))
        if checker is None:
            problems.add(f"{where}: schema {doc.get('schema')!r} is not a wire schema")
            continue
        sub = Problems(f"{problems.path}: {where}")
        checker(doc, sub, args)
        problems.items.extend(sub.items)


def check_campaign_lines(lines, problems):
    """Validate an rmt.campaign/1 JSONL manifest, given its decoded lines.

    Concatenated subset manifests are legal (several identical headers);
    what must never happen is two lines disagreeing on the campaign
    identity, or a shard line whose geometry is self-contradictory.
    """
    headers = 0
    identity = None  # (campaign, root_seed, total_units, shards)
    for i, doc in lines:
        where = f"line {i}"
        if not isinstance(doc, dict):
            problems.add(f"{where}: not an object")
            continue
        if doc.get("schema") != "rmt.campaign/1":
            problems.add(f"{where}: schema is not rmt.campaign/1")
            continue
        if not isinstance(doc.get("campaign"), str) or not doc.get("campaign"):
            problems.add(f"{where}: campaign: missing or empty")
            continue
        if "shard" not in doc:  # header line
            headers += 1
            for field in ("root_seed", "total_units", "shards"):
                if not _is_uint(doc.get(field)):
                    problems.add(f"{where} (header).{field}: missing or not a non-negative int")
            ident = (doc.get("campaign"), doc.get("root_seed"),
                     doc.get("total_units"), doc.get("shards"))
            if identity is None:
                identity = ident
            elif ident != identity:
                problems.add(f"{where} (header): identity {ident} != first header {identity}")
            continue
        for field in ("shard", "of", "begin", "end", "seed"):
            if not _is_uint(doc.get(field)):
                problems.add(f"{where}.{field}: missing or not a non-negative int")
        if identity is not None and doc["campaign"] != identity[0]:
            problems.add(f"{where}: campaign {doc['campaign']!r} != header {identity[0]!r}")
        if _is_uint(doc.get("shard")) and _is_uint(doc.get("of")) and doc["shard"] >= doc["of"]:
            problems.add(f"{where}: shard {doc['shard']} >= of {doc['of']}")
        if _is_uint(doc.get("begin")) and _is_uint(doc.get("end")) and doc["begin"] > doc["end"]:
            problems.add(f"{where}: begin {doc['begin']} > end {doc['end']}")
        wall = doc.get("wall_us")
        if not isinstance(wall, (int, float)) or isinstance(wall, bool) or wall < 0:
            problems.add(f"{where}.wall_us: missing or not a non-negative number")
        payload = doc.get("payload")
        if not isinstance(payload, str):
            problems.add(f"{where}.payload: missing or not a string")
        elif "\n" in payload:
            problems.add(f"{where}.payload: contains a newline")
    if headers == 0:
        problems.add("no rmt.campaign/1 header line found")


STORE_CHECKSUM_RE = re.compile(r"^[0-9a-f]{16}$")
STORE_HEADER_FIELDS = ["generation", "records", "live_records", "bytes", "valid_prefix"]
STORE_RECORD_FIELDS = ["key", "seq", "value_len", "checksum", "live"]


def check_store_lines(lines, problems):
    """Validate an rmt.store/1 dump (`rmt_cli store dump` JSONL).

    One header first, then one line per record. The header's counts are
    cross-checked against the record lines: a dump whose header claims
    more (or fewer) records than it carries came from a different log.
    """
    if not lines:
        problems.add("empty store dump")
        return
    header = None
    record_lines = 0
    live_lines = 0
    for i, doc in lines:
        where = f"line {i}"
        if not isinstance(doc, dict):
            problems.add(f"{where}: not an object")
            continue
        if doc.get("schema") != "rmt.store/1":
            problems.add(f"{where}: schema is not rmt.store/1")
            continue
        if "key" not in doc:  # header line
            if header is not None:
                problems.add(f"{where}: second header line")
                continue
            if record_lines:
                problems.add(f"{where}: header after record lines")
            header = doc
            for field in STORE_HEADER_FIELDS:
                if not _is_uint(doc.get(field)):
                    problems.add(f"{where} (header).{field}: missing or not a "
                                 f"non-negative integer")
            if not isinstance(doc.get("torn"), bool):
                problems.add(f"{where} (header).torn: missing or non-boolean")
            if _is_uint(doc.get("live_records")) and _is_uint(doc.get("records")) \
                    and doc["live_records"] > doc["records"]:
                problems.add(f"{where} (header): live_records "
                             f"{doc['live_records']} > records {doc['records']}")
            continue
        record_lines += 1
        for field in STORE_RECORD_FIELDS:
            if field not in doc:
                problems.add(f"{where}.{field}: missing")
        if not isinstance(doc.get("key"), str) or not doc.get("key"):
            problems.add(f"{where}.key: missing or empty")
        for field in ("seq", "value_len"):
            if field in doc and not _is_uint(doc.get(field)):
                problems.add(f"{where}.{field}: not a non-negative integer")
        checksum = doc.get("checksum")
        if checksum is not None and (not isinstance(checksum, str)
                                     or not STORE_CHECKSUM_RE.match(checksum)):
            problems.add(f"{where}.checksum: {checksum!r} (expected 16 hex digits)")
        live = doc.get("live")
        if live is not None and not isinstance(live, bool):
            problems.add(f"{where}.live: non-boolean")
        if live is True:
            live_lines += 1
    if header is None:
        problems.add("no rmt.store/1 header line found")
        return
    if _is_uint(header.get("records")) and record_lines != header["records"]:
        problems.add(f"header says records={header['records']} but the dump "
                     f"carries {record_lines} record lines")
    if _is_uint(header.get("live_records")) and live_lines != header["live_records"]:
        problems.add(f"header says live_records={header['live_records']} but "
                     f"{live_lines} record lines are live")


def read_jsonl(path, problems):
    try:
        with open(path, encoding="utf-8") as f:
            raw = f.readlines()
    except OSError as e:
        problems.add(f"unreadable: {e}")
        return []
    lines = []
    for i, text in enumerate(raw, start=1):
        if not text.strip():
            continue
        try:
            lines.append((i, json.loads(text)))
        except json.JSONDecodeError as e:
            problems.add(f"line {i}: invalid JSON: {e}")
    return lines


CHECKERS = {
    "rmt.bench/1": check_bench,
    "rmt.analyze/1": check_analyze,
    "rmt.run/1": check_run,
    "rmt.validate/1": check_validate,
    "rmt.request/1": check_request,
    "rmt.response/1": check_response,
}
WIRE_CHECKERS = {
    "rmt.request/1": check_request,
    "rmt.response/1": check_response,
}


def check_file(path, args):
    problems = Problems(path)
    if path.endswith(".jsonl"):
        lines = read_jsonl(path, problems)
        schemas = {doc.get("schema") for _, doc in lines if isinstance(doc, dict)}
        if schemas and schemas <= set(WIRE_CHECKERS):
            check_wire_lines(lines, problems)
        elif schemas == {"rmt.trace/1"}:
            check_trace_lines(lines, problems)
        elif schemas == {"rmt.store/1"}:
            check_store_lines(lines, problems)
        else:
            check_campaign_lines(lines, problems)
        return problems.items
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        problems.add(f"unreadable or invalid JSON: {e}")
        return problems.items
    if not isinstance(doc, dict):
        problems.add("top level is not an object")
        return problems.items
    schema = doc.get("schema")
    checker = CHECKERS.get(schema)
    if checker is None:
        problems.add(f"schema: unknown or missing ({schema!r}); "
                     f"expected one of {sorted(CHECKERS)}")
        return problems.items
    checker(doc, problems, args)
    return problems.items


DECIDER_COLUMNS = ["family", "n", "structure", "views", "decider", "reference_ms",
                   "shipped_ms", "speedup", "identical"]
DECIDER_ROW = {"family": "5-paths h4", "n": 22, "structure": "2-threshold",
               "views": "full", "decider": "rmt", "reference_ms": 7.6,
               "shipped_ms": 0.36, "speedup": 21.0, "identical": True}
SVC_FOOTPRINT_COLUMNS = ["section", "heap_b_per_entry", "accounted_b_per_entry",
                         "put_ns", "get_ns", "bytes_per_text", "parse_ns_per_b",
                         "parse_ref_ns_per_b", "key_ns_per_b", "key_ref_ns_per_b", "identical"]


def _svc_row(**cells):
    """One bench_svc row in column order; cells not given read 0 (true for
    `identical`)."""
    return {c: cells.get(c, c == "identical" or 0.0) for c in SVC_FOOTPRINT_COLUMNS}


SVC_FOOTPRINT_ROW = _svc_row(section="footprint", heap_b_per_entry=104.2,
                             accounted_b_per_entry=167.1, put_ns=1545.0, get_ns=802.0)
SVC_IO_ROW = _svc_row(section="io", bytes_per_text=2409.0, parse_ns_per_b=5.8,
                      parse_ref_ns_per_b=52.8, key_ns_per_b=3.0, key_ref_ns_per_b=5.2)
NET_COLUMNS = ["section", "clients", "qps_tcp", "ns_per_byte", "identical"]
NET_TCP_ROW = {"section": "tcp", "clients": 1, "qps_tcp": 21753.0, "ns_per_byte": 0.0,
               "identical": True}
NET_FRAMING_ROW = {"section": "framing", "clients": 0, "qps_tcp": 0.0, "ns_per_byte": 0.32,
                   "identical": True}


def _selftest_docs():
    metrics = {s: {} for s in METRICS_SECTIONS}
    hist = {f: 1 for f in HISTOGRAM_FIELDS}
    inst = {"players": 8, "channels": 9, "dealer": 0, "receiver": 7, "maximal_sets": 3}
    stats = {f: 0 for f in NETWORK_STAT_FIELDS}
    run = {"start_unix_ms": 1754600000000, "mono_anchor_ns": 123456789}
    good = [
        {"schema": "rmt.bench/1", "name": "b", "run": run, "columns": ["n"],
         "rows": [{"n": 4}], "metrics": metrics},
        {"schema": "rmt.bench/1", "name": "bench_decider", "run": run,
         "columns": DECIDER_COLUMNS,
         "rows": [dict(DECIDER_ROW, decider="rmt"), dict(DECIDER_ROW, decider="analyze"),
                  dict(DECIDER_ROW, decider="simulate/phantom-world")],
         "metrics": metrics},
        # bench_svc's footprint row, a row that measured none, and an io row.
        {"schema": "rmt.bench/1", "name": "bench_svc", "run": run,
         "columns": SVC_FOOTPRINT_COLUMNS,
         "rows": [SVC_FOOTPRINT_ROW, _svc_row(section="latency"), SVC_IO_ROW],
         "metrics": metrics},
        # bench_net with its tcp rows and its framing row.
        {"schema": "rmt.bench/1", "name": "bench_net", "run": run,
         "columns": NET_COLUMNS, "rows": [NET_TCP_ROW, NET_FRAMING_ROW],
         "metrics": metrics},
        {"schema": "rmt.bench/1", "name": "bench_trace", "run": run,
         "columns": ["row", "per_span_ns", "within_budget"],
         "rows": [{"row": "span-idle", "per_span_ns": 3.5, "within_budget": True}],
         "metrics": metrics},
        {"schema": "rmt.bench/1", "name": "bench_net", "run": run,
         "columns": ["clients", "qps_tcp", "qps_direct", "identical"],
         "rows": [{"clients": 1, "qps_tcp": 20587.2, "qps_direct": 114766.9,
                   "identical": True},
                  {"clients": 8, "qps_tcp": 0, "qps_direct": 111645.3,
                   "identical": True}],
         "metrics": metrics},
        {"schema": "rmt.bench/1", "name": "bench_store", "run": run,
         "columns": ["workload", "cold_us", "mem_warm_us", "disk_warm_us",
                     "speedup_mem", "speedup_disk", "identical"],
         "rows": [{"workload": "cycle-20", "cold_us": 470.8, "mem_warm_us": 12.5,
                   "disk_warm_us": 14.5, "speedup_mem": 37.7, "speedup_disk": 32.5,
                   "identical": True}],
         "metrics": metrics},
        {"schema": "rmt.analyze/1", "instance": inst, "rmt_solvable": True,
         "rmt_cut_witness": None, "zcpa_solvable": True,
         "full_knowledge_solvable": True, "metrics": metrics},
        {"schema": "rmt.run/1", "decision": 42, "correct": True, "wrong": False,
         "stats": stats, "phases": {"sim.route": hist}, "metrics": metrics},
        {"schema": "rmt.validate/1", "instance": inst, "valid": True,
         "diagnostics": [], "metrics": metrics},
        {"schema": "rmt.validate/1", "instance": inst, "valid": False,
         "diagnostics": [{"component": "graph", "message": "asymmetric adjacency"}],
         "metrics": metrics},
        {"schema": "rmt.request/1", "id": "q1", "kind": "decide_rmt",
         "instance": "rmt-instance v1\nnodes 3\n"},
        {"schema": "rmt.request/1", "id": "q2", "kind": "simulate",
         "instance": "rmt-instance v1\nnodes 3\n", "deadline_ms": 50,
         "no_cache": True,
         "params": {"value": 7, "corrupted": [1], "strategy": "silent",
                    "seed": 9, "max_rounds": 0}},
        {"schema": "rmt.request/1", "id": "st", "kind": "stats", "instance": ""},
        # At the wire caps: the longest id, the longest corrupted list, and
        # the largest node id and round bound accepted.
        {"schema": "rmt.request/1", "id": "q" * MAX_ID_BYTES, "kind": "simulate",
         "instance": "rmt-instance v1\nnodes 3\n",
         "params": {"corrupted": [MAX_CORRUPTED_ID] * MAX_CORRUPTED_ENTRIES,
                    "max_rounds": MAX_ROUNDS}},
        {"schema": "rmt.response/1", "id": "st", "status": "ok", "key": None,
         "result": {"kind": "stats", "engine": {f: 4 for f in ENGINE_STAT_FIELDS},
                    "cache": {}, "memo": {f: 3 for f in MEMO_STAT_FIELDS}},
         "error": None, "cached": False, "coalesced": False, "wall_us": 0.0,
         "trace_id": None},
        # The TCP server's stats probe adds its "net" section.
        {"schema": "rmt.response/1", "id": "st", "status": "ok", "key": None,
         "result": {"kind": "stats", "engine": {f: 4 for f in ENGINE_STAT_FIELDS},
                    "cache": {}, "memo": {f: 3 for f in MEMO_STAT_FIELDS},
                    "net": {f: 2 for f in NET_STAT_FIELDS}},
         "error": None, "cached": False, "coalesced": False, "wall_us": 0.0,
         "trace_id": None},
        {"schema": "rmt.response/1", "id": "q1", "status": "ok",
         "key": "bc6adf4f00f0be648b62687f484b0ff8", "result": {"solvable": True},
         "error": None, "cached": False, "coalesced": True, "wall_us": 12.5,
         "trace_id": "7f3a9c51d2e80b64"},
        {"schema": "rmt.response/1", "id": "q2", "status": "deadline_exceeded",
         "key": "bc6adf4f00f0be648b62687f484b0ff8", "result": None,
         "error": None, "cached": False, "coalesced": False, "wall_us": 0,
         "trace_id": None},
        {"schema": "rmt.response/1", "id": "", "status": "error", "key": None,
         "result": None, "error": "missing field 'kind'", "cached": False,
         "coalesced": False, "wall_us": 0.0, "trace_id": None},
    ]
    bad = [
        {"schema": "rmt.unknown/9"},
        {"schema": "rmt.bench/1", "name": "", "run": run, "columns": [], "rows": [],
         "metrics": metrics},
        # The run anchors are required: without them an artifact cannot be
        # aligned with the trace dump from the same process.
        {"schema": "rmt.bench/1", "name": "b", "columns": ["n"],
         "rows": [{"n": 4}], "metrics": metrics},
        {"schema": "rmt.bench/1", "name": "b", "run": {"start_unix_ms": -5},
         "columns": ["n"], "rows": [{"n": 4}], "metrics": metrics},
        # Identity gate: a declared `identical` column with any non-true
        # value (false, "yes", missing) is a divergence, not a style issue.
        {"schema": "rmt.bench/1", "name": "bench_decider", "run": run,
         "columns": DECIDER_COLUMNS,
         "rows": [DECIDER_ROW, dict(DECIDER_ROW, identical=False)],
         "metrics": metrics},
        {"schema": "rmt.bench/1", "name": "bench_decider", "run": run,
         "columns": DECIDER_COLUMNS,
         "rows": [dict(DECIDER_ROW, identical="yes")],
         "metrics": metrics},
        # bench_decider's schema is closed and its timings are sizes.
        {"schema": "rmt.bench/1", "name": "bench_decider", "run": run,
         "columns": ["decider", "identical"],
         "rows": [{"decider": "rmt", "identical": True}],
         "metrics": metrics},                                    # timing columns missing
        {"schema": "rmt.bench/1", "name": "bench_decider", "run": run,
         "columns": DECIDER_COLUMNS,
         "rows": [dict(DECIDER_ROW, shipped_ms=float("nan"))],
         "metrics": metrics},                                    # NaN timing
        # Footprint gate: a cached answer over its heap ratio (unencoded
        # entries measure ~1.4x), a cell that is not a usable number, an
        # untimed footprint row, or a table without the timing columns.
        {"schema": "rmt.bench/1", "name": "bench_svc", "run": run,
         "columns": SVC_FOOTPRINT_COLUMNS,
         "rows": [dict(SVC_FOOTPRINT_ROW, heap_b_per_entry=233.5), SVC_IO_ROW],
         "metrics": metrics},
        {"schema": "rmt.bench/1", "name": "bench_svc", "run": run,
         "columns": SVC_FOOTPRINT_COLUMNS,
         "rows": [dict(SVC_FOOTPRINT_ROW, heap_b_per_entry=-1.0), SVC_IO_ROW],
         "metrics": metrics},
        {"schema": "rmt.bench/1", "name": "bench_svc", "run": run,
         "columns": SVC_FOOTPRINT_COLUMNS,
         "rows": [dict(SVC_FOOTPRINT_ROW, get_ns=0.0), SVC_IO_ROW],
         "metrics": metrics},
        {"schema": "rmt.bench/1", "name": "bench_svc", "run": run,
         "columns": [c for c in SVC_FOOTPRINT_COLUMNS if c not in ("put_ns", "get_ns")],
         "rows": [{k: v for k, v in row.items() if k not in ("put_ns", "get_ns")}
                  for row in (SVC_FOOTPRINT_ROW, SVC_IO_ROW)],
         "metrics": metrics},
        # Io rows: a parser or key that diverged from the references, a
        # row that measured nothing or a NaN, a table without io rows, and
        # one without an io column.
        {"schema": "rmt.bench/1", "name": "bench_svc", "run": run,
         "columns": SVC_FOOTPRINT_COLUMNS,
         "rows": [SVC_FOOTPRINT_ROW, dict(SVC_IO_ROW, identical=False)],
         "metrics": metrics},
        {"schema": "rmt.bench/1", "name": "bench_svc", "run": run,
         "columns": SVC_FOOTPRINT_COLUMNS,
         "rows": [SVC_FOOTPRINT_ROW, dict(SVC_IO_ROW, parse_ns_per_b=0.0)],
         "metrics": metrics},
        {"schema": "rmt.bench/1", "name": "bench_svc", "run": run,
         "columns": SVC_FOOTPRINT_COLUMNS,
         "rows": [SVC_FOOTPRINT_ROW, dict(SVC_IO_ROW, key_ns_per_b=float("nan"))],
         "metrics": metrics},
        {"schema": "rmt.bench/1", "name": "bench_svc", "run": run,
         "columns": SVC_FOOTPRINT_COLUMNS,
         "rows": [SVC_FOOTPRINT_ROW],
         "metrics": metrics},
        {"schema": "rmt.bench/1", "name": "bench_svc", "run": run,
         "columns": [c for c in SVC_FOOTPRINT_COLUMNS if c != "key_ref_ns_per_b"],
         "rows": [{k: v for k, v in row.items() if k != "key_ref_ns_per_b"}
                  for row in (SVC_FOOTPRINT_ROW, SVC_IO_ROW)],
         "metrics": metrics},
        # bench_decider's deciders are a closed vocabulary.
        {"schema": "rmt.bench/1", "name": "bench_decider", "run": run,
         "columns": DECIDER_COLUMNS,
         "rows": [dict(DECIDER_ROW, decider="simulate/bogus")],
         "metrics": metrics},
        # bench_net's framing row: missing, duplicated, unmeasured or NaN.
        {"schema": "rmt.bench/1", "name": "bench_net", "run": run,
         "columns": NET_COLUMNS, "rows": [NET_TCP_ROW],
         "metrics": metrics},
        {"schema": "rmt.bench/1", "name": "bench_net", "run": run,
         "columns": NET_COLUMNS, "rows": [NET_TCP_ROW, NET_FRAMING_ROW, NET_FRAMING_ROW],
         "metrics": metrics},
        {"schema": "rmt.bench/1", "name": "bench_net", "run": run,
         "columns": NET_COLUMNS, "rows": [NET_TCP_ROW, dict(NET_FRAMING_ROW, ns_per_byte=0.0)],
         "metrics": metrics},
        {"schema": "rmt.bench/1", "name": "bench_net", "run": run,
         "columns": NET_COLUMNS,
         "rows": [NET_TCP_ROW, dict(NET_FRAMING_ROW, ns_per_byte=float("nan"))],
         "metrics": metrics},
        # Budget gate: within_budget is hard-checked the same way.
        {"schema": "rmt.bench/1", "name": "bench_trace", "run": run,
         "columns": ["row", "within_budget"],
         "rows": [{"row": "span-idle", "within_budget": False}],
         "metrics": metrics},
        # Throughput sanity: qps / qps_* cells must be non-negative finite
        # numbers — a negative, NaN, or textual rate is a broken timing loop.
        {"schema": "rmt.bench/1", "name": "bench_net", "run": run,
         "columns": ["clients", "qps_tcp", "identical"],
         "rows": [{"clients": 1, "qps_tcp": -3.0, "identical": True}],
         "metrics": metrics},
        {"schema": "rmt.bench/1", "name": "bench_net", "run": run,
         "columns": ["clients", "qps_tcp", "identical"],
         "rows": [{"clients": 1, "qps_tcp": float("nan"), "identical": True}],
         "metrics": metrics},
        {"schema": "rmt.bench/1", "name": "bench_net", "run": run,
         "columns": ["clients", "qps_tcp", "identical"],
         "rows": [{"clients": 1, "qps_tcp": "fast", "identical": True}],
         "metrics": metrics},
        # bench_store column rules: the schema is closed (a missing column
        # is dashboard drift) and every timing/speedup cell must be a
        # usable non-negative finite number.
        {"schema": "rmt.bench/1", "name": "bench_store", "run": run,
         "columns": ["workload", "identical"],
         "rows": [{"workload": "cycle-20", "identical": True}],
         "metrics": metrics},                                    # columns missing
        {"schema": "rmt.bench/1", "name": "bench_store", "run": run,
         "columns": ["workload", "cold_us", "mem_warm_us", "disk_warm_us",
                     "speedup_mem", "speedup_disk", "identical"],
         "rows": [{"workload": "cycle-20", "cold_us": -1.0, "mem_warm_us": 12.5,
                   "disk_warm_us": 14.5, "speedup_mem": 37.7, "speedup_disk": 32.5,
                   "identical": True}],
         "metrics": metrics},                                    # negative timing
        {"schema": "rmt.bench/1", "name": "bench_store", "run": run,
         "columns": ["workload", "cold_us", "mem_warm_us", "disk_warm_us",
                     "speedup_mem", "speedup_disk", "identical"],
         "rows": [{"workload": "cycle-20", "cold_us": 470.8, "mem_warm_us": 12.5,
                   "disk_warm_us": 14.5, "speedup_mem": 37.7,
                   "speedup_disk": float("inf"), "identical": True}],
         "metrics": metrics},                                    # infinite speedup
        {"schema": "rmt.analyze/1", "instance": {"players": "eight"},
         "rmt_solvable": "yes", "metrics": metrics},
        {"schema": "rmt.run/1", "correct": True, "wrong": False,
         "stats": {"rounds": -1.5}, "phases": {}, "metrics": metrics},
        {"schema": "rmt.validate/1", "instance": inst, "valid": True,
         "diagnostics": [{"component": "graph", "message": "stale"}],
         "metrics": metrics},
        {"schema": "rmt.validate/1", "instance": inst, "valid": False,
         "diagnostics": [], "metrics": metrics},
        {"schema": "rmt.validate/1", "instance": inst, "valid": False,
         "diagnostics": [{"component": "", "message": "x"}], "metrics": metrics},
        {"schema": "rmt.request/1", "kind": "decide_rmt",
         "instance": "rmt-instance v1\n"},                       # id missing
        {"schema": "rmt.request/1", "id": "q", "kind": "warp",
         "instance": "rmt-instance v1\n"},                       # unknown kind
        {"schema": "rmt.request/1", "id": "q", "kind": "decide_rmt",
         "instance": "not an instance"},                         # no v1 header
        {"schema": "rmt.request/1", "id": "q", "kind": "decide_rmt",
         "instance": "rmt-instance v1\n", "deadline_ms": -5},    # negative deadline
        {"schema": "rmt.request/1", "id": "q", "kind": "simulate",
         "instance": "rmt-instance v1\n",
         "params": {"corrupted": "1,2"}},                        # corrupted not a list
        {"schema": "rmt.request/1", "id": "q", "kind": "simulate",
         "instance": "rmt-instance v1\n",
         "params": {"corrupted": [1, MAX_CORRUPTED_ID + 1]}},    # id one past the cap
        {"schema": "rmt.request/1", "id": "q", "kind": "simulate",
         "instance": "rmt-instance v1\n",
         "params": {"max_rounds": MAX_ROUNDS + 1}},              # rounds one past the cap
        {"schema": "rmt.request/1", "id": "q" * (MAX_ID_BYTES + 1), "kind": "decide_rmt",
         "instance": "rmt-instance v1\n"},                       # id one past the cap
        {"schema": "rmt.request/1", "id": "q", "kind": "simulate",
         "instance": "rmt-instance v1\n",
         "params": {"corrupted": [1] * (MAX_CORRUPTED_ENTRIES + 1)}},  # list one past
        {"schema": "rmt.response/1", "id": "st", "status": "ok", "key": None,
         "result": {"kind": "stats", "engine": {f: 0 for f in ENGINE_STAT_FIELDS},
                    "cache": {}},
         "error": None, "cached": False, "coalesced": False, "wall_us": 0,
         "trace_id": None},                                      # stats without memo
        {"schema": "rmt.response/1", "id": "st", "status": "ok", "key": None,
         "result": {"kind": "stats", "engine": {f: 0 for f in ENGINE_STAT_FIELDS},
                    "memo": dict({f: 0 for f in MEMO_STAT_FIELDS}, hits=-1)},
         "error": None, "cached": False, "coalesced": False, "wall_us": 0,
         "trace_id": None},                                      # negative memo count
        {"schema": "rmt.response/1", "id": "st", "status": "ok", "key": None,
         "result": {"kind": "stats", "engine": {f: 0 for f in ENGINE_STAT_FIELDS},
                    "memo": dict({f: 0 for f in MEMO_STAT_FIELDS}, bytes=1.5)},
         "error": None, "cached": False, "coalesced": False, "wall_us": 0,
         "trace_id": None},                                      # non-integer memo bytes
    ] + [
        {"schema": "rmt.response/1", "id": "st", "status": "ok", "key": None,
         "result": {"kind": "stats", "engine": engine, "cache": {},
                    "memo": {f: 0 for f in MEMO_STAT_FIELDS}},
         "error": None, "cached": False, "coalesced": False, "wall_us": 0,
         "trace_id": None}
        for engine in (
            {f: 0 for f in ENGINE_STAT_FIELDS if f != "computed"},  # a field missing
            # The cross-batch join's counter, gone from Engine::Stats.
            dict({f: 0 for f in ENGINE_STAT_FIELDS}, inflight_joins=0),
        )
    ] + [
        {"schema": "rmt.response/1", "id": "st", "status": "ok", "key": None,
         "result": {"kind": "stats", "engine": {f: 0 for f in ENGINE_STAT_FIELDS},
                    "memo": {f: 0 for f in MEMO_STAT_FIELDS}, "net": net},
         "error": None, "cached": False, "coalesced": False, "wall_us": 0,
         "trace_id": None}
        for net in (
            [0] * len(NET_STAT_FIELDS),                          # net not an object
            {f: 0 for f in NET_STAT_FIELDS if f != "inline_hits"},  # no inline_hits
            {f: 0 for f in NET_STAT_FIELDS if f != "batches"},   # no batches
            dict({f: 0 for f in NET_STAT_FIELDS}, batches=-1),   # negative count
            dict({f: 0 for f in NET_STAT_FIELDS}, shed=2.5),     # non-integer count
        )
    ] + [
        {"schema": "rmt.response/1", "id": "q", "status": "late", "key": None,
         "result": None, "error": None, "cached": False, "coalesced": False,
         "wall_us": 0},                                          # unknown status
        {"schema": "rmt.response/1", "id": "q", "status": "ok", "key": "XYZ",
         "result": {}, "error": None, "cached": False, "coalesced": False,
         "wall_us": 1},                                          # malformed key
        {"schema": "rmt.response/1", "id": "q", "status": "ok", "key": None,
         "result": None, "error": None, "cached": False, "coalesced": False,
         "wall_us": 1},                                          # ok without result
        {"schema": "rmt.response/1", "id": "q", "status": "error", "key": None,
         "result": {"x": 1}, "error": "boom", "cached": False,
         "coalesced": False, "wall_us": 1},                      # result on error
        {"schema": "rmt.response/1", "id": "q", "status": "error", "key": None,
         "result": None, "error": None, "cached": False, "coalesced": False,
         "wall_us": 1},                                          # error without message
        {"schema": "rmt.response/1", "id": "q", "status": "ok", "key": None,
         "result": {}, "error": None, "cached": "no", "coalesced": False,
         "wall_us": -2},                                         # bad cached/wall_us
        {"schema": "rmt.response/1", "id": "q", "status": "ok", "key": None,
         "result": {}, "error": None, "cached": False, "coalesced": False,
         "wall_us": 1},                                          # trace_id missing
        {"schema": "rmt.response/1", "id": "q", "status": "ok", "key": None,
         "result": {}, "error": None, "cached": False, "coalesced": False,
         "wall_us": 1, "trace_id": "XYZ"},                       # malformed trace_id
    ]
    return good, bad


def _selftest_manifests():
    """Campaign manifests are JSONL, so their fixtures are line lists:
    (lineno, decoded doc), exactly what check_campaign_lines consumes."""
    header = {"schema": "rmt.campaign/1", "campaign": "sweep",
              "root_seed": 4242, "total_units": 10, "shards": 2}
    shard0 = {"schema": "rmt.campaign/1", "campaign": "sweep", "shard": 0,
              "of": 2, "begin": 0, "end": 5, "seed": 7, "wall_us": 12.5,
              "payload": "[1,2,3]"}
    shard1 = dict(shard0, shard=1, begin=5, end=10)
    good = [
        [(1, header), (2, shard0), (3, shard1)],
        # Concatenated subset manifests: duplicate identical headers are fine.
        [(1, header), (2, shard0), (3, header), (4, shard1)],
        # Header only (resume file from a run killed before any checkpoint).
        [(1, header)],
    ]
    bad = [
        [],                                                     # empty file
        [(1, shard0)],                                          # no header
        [(1, header), (2, dict(shard0, shard=2))],              # shard >= of
        [(1, header), (2, dict(shard0, begin=9, end=3))],       # begin > end
        [(1, header), (2, dict(shard0, campaign="other"))],     # identity drift
        [(1, header), (2, dict(header, root_seed=1))],          # header disagreement
        [(1, header), (2, dict(shard0, payload=["not", "a", "string"]))],
        [(1, header), (2, dict(shard0, payload="torn\nline"))],
        [(1, header), (2, dict(shard0, wall_us="fast"))],
        [(1, dict(header, schema="rmt.bench/1"))],              # wrong schema
    ]
    return good, bad


def _selftest_traces():
    """Trace dumps are JSONL, so fixtures are (lineno, doc) line lists."""
    def hx(n):
        return f"{n:016x}"

    def span(trace, sid, parent=None, name="svc.request", kind="span",
             join=None, start=0, end=100):
        return {"schema": "rmt.trace/1", "trace": hx(trace), "span": hx(sid),
                "parent": None if parent is None else hx(parent), "name": name,
                "kind": kind, "join": None if join is None else hx(join),
                "start_ns": start, "end_ns": end, "attrs": ""}

    header = {"schema": "rmt.trace/1", "run_start_unix_ms": 1754600000000,
              "mono_anchor_ns": 123, "capacity": 4096, "recorded": 4, "dropped": 0}
    root = span(1, 2)
    child = span(1, 3, parent=2, name="svc.compute", start=10, end=90)
    # A coalesced request: its own root, plus a join referencing the other
    # trace's compute span — legal cross-trace.
    root2 = span(4, 5, start=5, end=95)
    join2 = span(4, 6, parent=5, name="svc.join", kind="join", join=3,
                 start=5, end=80)
    good = [
        [(1, header), (2, root), (3, child), (4, root2), (5, join2)],
        # Empty ring: a header alone is a valid dump.
        [(1, dict(header, recorded=0))],
        # dropped > 0 relaxes resolution: an evicted parent is tolerated.
        [(1, dict(header, dropped=2)), (2, span(1, 9, parent=8))],
    ]
    bad = [
        [],                                                  # no header
        [(1, root)],                                         # span, no header
        [(1, header), (2, header)],                          # second header
        [(1, root), (2, header)],                            # header after spans
        [(1, dict(header, dropped=9))],                      # dropped > recorded
        [(1, header), (2, root), (3, root)],                 # duplicate span id
        [(1, header), (2, span(1, 9, parent=8))],            # unresolved parent
        [(1, header), (2, root),
         (3, span(4, 6, parent=None, kind="join", join=77))],  # unresolved join
        [(1, header), (2, span(1, 2, parent=3)),
         (3, span(1, 3, parent=2))],                         # parent cycle
        [(1, header), (2, root),
         (3, span(1, 3, parent=2, start=10, end=150))],      # child exceeds parent
        [(1, header), (2, root),
         (3, span(7, 3, parent=2, start=10, end=90))],       # cross-trace parent
        [(1, header), (2, span(1, 3, kind="join"))],         # join without target
        [(1, header), (2, span(1, 3, join=2)), (3, root)],   # target without join kind
        [(1, header), (2, span(1, 3, start=50, end=20))],    # end < start
        [(1, header), (2, dict(root, span="XYZ"))],          # malformed span id
        [(1, header), (2, dict(root, name=""))],             # empty name
        [(1, header), (2, dict(root, kind="event"))],        # unknown kind
    ]
    return good, bad


def _selftest_stores():
    """Store dumps are JSONL, so fixtures are (lineno, doc) line lists."""
    header = {"schema": "rmt.store/1", "generation": 1, "records": 2,
              "live_records": 1, "bytes": 345, "valid_prefix": 345, "torn": False}
    rec_dead = {"schema": "rmt.store/1", "key": "aa|decide_rmt", "seq": 0,
                "value_len": 86, "checksum": "7f3a9c51d2e80b64", "live": False}
    rec_live = dict(rec_dead, seq=1, checksum="0123456789abcdef", live=True)
    good = [
        [(1, header), (2, rec_dead), (3, rec_live)],
        # Empty store: a header alone is a valid dump.
        [(1, {"schema": "rmt.store/1", "generation": 0, "records": 0,
              "live_records": 0, "bytes": 50, "valid_prefix": 50, "torn": False})],
        # A torn log is still dumpable — the flag reports it.
        [(1, dict(header, records=1, live_records=1, torn=True)), (2, rec_live)],
    ]
    bad = [
        [],                                                   # empty dump
        [(1, rec_live)],                                      # no header
        [(1, header), (2, rec_dead), (3, header)],            # second header
        [(1, rec_dead), (2, header), (3, rec_live)],          # header after records
        [(1, dict(header, records=2, live_records=3))],       # live > total
        [(1, dict(header, torn="no")), (2, rec_dead), (3, rec_live)],
        [(1, header), (2, rec_dead)],                         # count mismatch
        [(1, header), (2, rec_dead), (3, dict(rec_live, live=False))],  # live mismatch
        [(1, header), (2, rec_dead), (3, dict(rec_live, key=""))],
        [(1, header), (2, rec_dead), (3, dict(rec_live, seq=-4))],
        [(1, header), (2, rec_dead), (3, dict(rec_live, checksum="XYZ"))],
        [(1, dict(header, schema="rmt.bench/1")), (2, rec_dead), (3, rec_live)],
    ]
    return good, bad


def _wire_cap_drift():
    """Where the caps above disagree with the C++ headers they mirror.

    Only in a source checkout (the headers sit beside tools/); an installed
    checker has nothing to compare against.
    """
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    io_hpp = os.path.join(root, "src", "io", "serialize.hpp")
    wire_hpp = os.path.join(root, "src", "svc", "wire.hpp")
    if not (os.path.isfile(io_hpp) and os.path.isfile(wire_hpp)):
        return []
    with open(io_hpp, encoding="utf-8") as f:
        m = re.search(r"kMaxParseNodes\s*=\s*(\d+)", f.read())
    with open(wire_hpp, encoding="utf-8") as f:
        wire = f.read()
    drift = []
    if not m or int(m.group(1)) != MAX_PARSE_NODES:
        drift.append(f"src/io/serialize.hpp: kMaxParseNodes is not {MAX_PARSE_NODES}")
    for name, expr in (("kMaxIdBytes", str(MAX_ID_BYTES)),
                       ("kMaxCorruptedEntries", "io::kMaxParseNodes"),
                       ("kMaxCorruptedId", "io::kMaxParseNodes - 1"),
                       ("kMaxRounds", "io::kMaxParseNodes + 1")):
        if not re.search(rf"\b{name}\s*=\s*{re.escape(expr)};", wire):
            drift.append(f"src/svc/wire.hpp: {name} is no longer {expr}")
    return drift


def self_test():
    args = argparse.Namespace(require_phases=False, require_sim=False)

    def problems_for(doc):
        problems = Problems("<self-test>")
        checker = CHECKERS.get(doc.get("schema"))
        if checker is None:
            problems.add("schema: unknown")
        else:
            checker(doc, problems, args)
        return problems.items

    good, bad = _selftest_docs()
    failures = []
    for i, doc in enumerate(good):
        items = problems_for(doc)
        if items:
            failures.append(f"good[{i}] ({doc['schema']}): unexpectedly rejected: {items}")
    for i, doc in enumerate(bad):
        if not problems_for(doc):
            failures.append(f"bad[{i}] ({doc['schema']}): unexpectedly accepted")

    def manifest_problems(lines):
        problems = Problems("<self-test>")
        check_campaign_lines(lines, problems)
        return problems.items

    good_m, bad_m = _selftest_manifests()
    for i, lines in enumerate(good_m):
        items = manifest_problems(lines)
        if items:
            failures.append(f"good manifest[{i}]: unexpectedly rejected: {items}")
    for i, lines in enumerate(bad_m):
        if not manifest_problems(lines):
            failures.append(f"bad manifest[{i}]: unexpectedly accepted")

    # Wire transcripts (request/response JSONL) go through check_wire_lines.
    def transcript_problems(lines):
        problems = Problems("<self-test>")
        check_wire_lines(lines, problems)
        return problems.items

    req = {"schema": "rmt.request/1", "id": "q", "kind": "analyze",
           "instance": "rmt-instance v1\nnodes 3\n"}
    resp = {"schema": "rmt.response/1", "id": "q", "status": "ok",
            "key": "bc6adf4f00f0be648b62687f484b0ff8", "result": {},
            "error": None, "cached": False, "coalesced": False, "wall_us": 1,
            "trace_id": None}
    good_t = [[(1, req), (2, resp)], [(1, resp)]]
    bad_t = [
        [],                                          # empty transcript
        [(1, dict(resp, schema="rmt.bench/1"))],     # not a wire schema
        [(1, req), (2, dict(resp, status="late"))],  # bad line reported with lineno
    ]
    for i, lines in enumerate(good_t):
        items = transcript_problems(lines)
        if items:
            failures.append(f"good transcript[{i}]: unexpectedly rejected: {items}")
    for i, lines in enumerate(bad_t):
        if not transcript_problems(lines):
            failures.append(f"bad transcript[{i}]: unexpectedly accepted")

    # Flight-recorder dumps go through check_trace_lines.
    def trace_problems(lines):
        problems = Problems("<self-test>")
        check_trace_lines(lines, problems)
        return problems.items

    good_tr, bad_tr = _selftest_traces()
    for i, lines in enumerate(good_tr):
        items = trace_problems(lines)
        if items:
            failures.append(f"good trace[{i}]: unexpectedly rejected: {items}")
    for i, lines in enumerate(bad_tr):
        if not trace_problems(lines):
            failures.append(f"bad trace[{i}]: unexpectedly accepted")

    # Store dumps go through check_store_lines.
    def store_problems(lines):
        problems = Problems("<self-test>")
        check_store_lines(lines, problems)
        return problems.items

    good_s, bad_s = _selftest_stores()
    for i, lines in enumerate(good_s):
        items = store_problems(lines)
        if items:
            failures.append(f"good store[{i}]: unexpectedly rejected: {items}")
    for i, lines in enumerate(bad_s):
        if not store_problems(lines):
            failures.append(f"bad store[{i}]: unexpectedly accepted")

    failures += _wire_cap_drift()

    for f in failures:
        print(f"self-test: {f}", file=sys.stderr)
    total = (len(good) + len(bad) + len(good_m) + len(bad_m) + len(good_t) + len(bad_t)
             + len(good_tr) + len(bad_tr) + len(good_s) + len(bad_s))
    print(f"self-test: {total} documents, {len(failures)} failures")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--require-phases", action="store_true")
    parser.add_argument("--require-sim", action="store_true")
    parser.add_argument("--self-test", action="store_true",
                        help="validate the checkers against embedded documents")
    parser.add_argument("files", nargs="*", metavar="FILE")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.files:
        parser.error("at least one FILE is required (or use --self-test)")

    failures = 0
    for path in args.files:
        items = check_file(path, args)
        if items:
            failures += 1
            for item in items:
                print(item, file=sys.stderr)
        else:
            print(f"{path}: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
