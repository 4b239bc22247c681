#!/usr/bin/env python3
"""End-to-end test of the JSONL serving stack (tools/rmt_serve).

Pipes a scripted rmt.request/1 stream into an rmt_serve process and
asserts the serving semantics from the outside:

  * four duplicate decide requests in one batch share ONE computation
    (exactly one response has coalesced=false; the engine's `computed`
    counter confirms it) and answer byte-identical results;
  * a repeated cacheable request comes back cached=true with the same
    bytes;
  * deadline_ms=0 is rejected with status "deadline_exceeded" without
    wedging the server — the retry right after succeeds;
  * a malformed line gets an "error" response (id "" when unreadable)
    while the rest of the stream is answered normally;
  * a fault-free `simulate` on a 20-cycle with the receiver opposite the
    dealer (ad hoc views, trivial structure: no RMT-cut) decides the
    dealer's value with "correct":true, although 18 other subjects report
    before both arcs have delivered;
  * the final "stats" probe reports the exact engine/cache/memo counters
    the script implies — including the exact cache byte total derived from
    the response keys/results, and memo misses equal to the distinct
    parseable instance texts plus the lines whose instance fails to parse
    (those are never stored), every other request line being a memo hit;
  * every decide response carries a distinct 16-hex trace_id; probe and
    unreadable-line responses carry null;
  * the final "trace" probe returns the flight recorder, and the span
    forest proves the coalescing causality: one svc.request root per
    engine request, exactly ONE svc.compute subtree for the four
    duplicates, and three svc.join spans referencing the leader's compute
    span — with each response's trace_id resolving to its root span;
  * every response line validates against the rmt.response/1 schema, and
    the trace probe's dump against the rmt.trace/1 forest rules, via
    tools/check_bench_json.py (when --checker is given);
  * stdio_hostile_lines — a line of 100 000 nested '[' (it used to
    overflow the JSON parser's stack) and a line one byte over the 4 MiB
    request cap each get an "error" response with id "" (the oversized
    line is refused unread, so its id is not salvaged); simulate params
    past the wire caps — a `corrupted` id of 2^32-1 (it used to allocate
    a 1 GiB NodeSet), one of 99999999999 (it used to be truncated to
    another node) and a `max_rounds` of 10^7 (it used to hold a worker for
    a second) and a `corrupted` list of 513 entries (ids are capped, so a
    longer list must repeat one) — each get an "error" naming the field and
    the value sent; a 100 000-byte id gets an "error" naming the id cap,
    answered with id "" so the hostile id is never echoed; a line with a
    raw NUL byte gets the framer's NUL error with id ""; a stats probe
    whose id holds a raw U+0001 gets the JSON parser's control-byte error
    with id "" (it used to be answered "ok", echoing the byte); a CRLF blank line
    ("\r") flushes like a blank line and gets no answer; and every
    hostile line is followed by a request answered exactly as a fresh
    server answers it. On stdio a 64 MiB line also gets the oversized
    error, the server's VmHWM (read from /proc before stdin closes) rises
    by less than 32 MiB across it — the framer discards an endless line
    instead of buffering it — and a final line without '\n' is still
    answered.
    tcp_hostile_lines repeats the shared lines over TCP, where the first
    of those requests goes through the one engine batch and the other
    nine are cache hits the event loop answers itself
    (net.inline_hits == 9, net.batches == 1, engine.requests == 10).

Persistence (`--store-dir`) is exercised in BOTH transports:

  * store_restart — a server is SIGKILLed mid-serve (no shutdown hook may
    run) after answering three distinct requests with a store attached; a
    restarted server over the same directory answers the same requests
    byte-identically with cached=true, engine.computed==0 and
    engine.disk_hits==3 — the warm-start contract: a crash costs zero
    recomputation;
  * store_merge_divergence — two servers populate two stores with the
    same request, then ONE value byte in the source store is flipped with
    its record checksum recomputed (so the record still loads as
    perfectly valid); `rmt_cli store merge` must refuse with exit 3 and a
    MERGE FAILED diagnosis, leaving the destination byte-for-byte
    untouched, while the untampered control merge exits 0. Needs --cli.

TCP mode (`rmt_serve --port 0`) is exercised by a socket harness on top of
the same assertions:

  * tcp_parity_faults — 64 concurrent clients with injected transport
    faults (split writes mid-line, dribbled bytes, duplicated lines,
    half-open disconnects) each receive answers whose deterministic
    segment (status/key/result/error) is byte-identical to the stdio-mode
    answer for the same request, in request order, with zero sheds and
    zero leaked connections in the final net.* stats, and exact memo
    counters: one miss per distinct instance text, every repeat a hit;
  * tcp_coalesce — the same key sent from two different sockets lands in
    ONE engine batch (a blank line from either connection flushes) and
    shares one computation: engine.computed==1, engine.coalesced==1, and
    the trace probe shows one svc.compute with an svc.join referencing it
    plus net.write spans joined to each response's svc.request root;
  * tcp_shed — admission control: past --max-inflight-conn the server
    answers "overloaded" errors immediately (net.shed counts them) and
    keeps both the order and the connection intact;
  * tcp_slow_client — a client that never reads is disconnected once its
    write queue passes --write-hard-cap, while a healthy client on the
    same server keeps getting answers;
  * tcp_drain — SIGTERM flushes in-flight work, closes cleanly, exit 0.

Usage: serve_e2e.py --server PATH [--cli PATH] [--checker PATH] [--jobs N]
                    [--mode {all,stdio,tcp}]
Exit code 0 on success; failures are printed and exit 1.

Wired into ctest as `serve_e2e` (and the release CI job runs --mode tcp
explicitly).
"""

import argparse
import json
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time

INSTANCE_A = ("rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\n"
              "dealer 0\nreceiver 2\ncorruptible 1\n")
INSTANCE_B = ("rmt-instance v1\nnodes 6\nedge 0 1\nedge 1 2\nedge 2 5\n"
              "edge 0 3\nedge 3 4\nedge 4 5\ndealer 0\nreceiver 5\n"
              "corruptible 1\ncorruptible 3\nknowledge k-hop 2\n")
MAX_REQUEST_BYTES = 4 << 20  # svc::wire::kMaxRequestBytes
MAX_ID_BYTES = 256           # svc::wire::kMaxIdBytes
MAX_CORRUPTED_ENTRIES = 512  # svc::wire::kMaxCorruptedEntries
MAX_CORRUPTED_ID = 511       # svc::wire::kMaxCorruptedId
MAX_ROUNDS = 513             # svc::wire::kMaxRounds
BAD_INSTANCE = "rmt-instance v1\nnodes 2\nedge 0 5\n"  # fails to parse
CYCLE_20 = ("rmt-instance v1\nnodes 20\n"
            + "".join(f"edge {v} {(v + 1) % 20}\n" for v in range(20))
            + "dealer 0\nreceiver 10\n")
MEMO_KEY_BYTES = 16  # svc::InstanceMemo charges text + sizeof(InstanceKey)


def request(rid, instance, **extra):
    doc = {"schema": "rmt.request/1", "id": rid, "kind": "decide_rmt",
           "instance": instance}
    doc.update(extra)
    return json.dumps(doc)


def build_input():
    lines = []
    # Batch 1: four duplicates, no_cache so the cache cannot pre-empt the
    # coalescing path. A blank line flushes the batch.
    for i in range(1, 5):
        lines.append(request(f"dup{i}", INSTANCE_A, no_cache=True))
    lines.append("")
    # Cache population + hit on a distinct instance.
    lines.append(request("warm", INSTANCE_B))
    lines.append("")
    lines.append(request("hit", INSTANCE_B))
    lines.append("")
    # Deadline 0 is deterministically already expired; the retry that
    # follows proves the server did not wedge.
    lines.append(request("late", INSTANCE_A, deadline_ms=0))
    lines.append("")
    lines.append(request("retry", INSTANCE_A))
    lines.append("")
    # No RMT-cut, so the receiver must decide (Thm 5).
    lines.append(request("sim20", CYCLE_20, kind="simulate",
                         params={"value": 7, "strategy": "silent", "seed": 1}))
    lines.append("")
    # A line that is not even JSON still yields a response.
    lines.append("this is not a request")
    lines.append("")
    # An instance that fails to parse, twice: never memoized, so both are
    # memo misses, and neither reaches the engine.
    lines.append(request("badinst1", BAD_INSTANCE))
    lines.append(request("badinst2", BAD_INSTANCE))
    lines.append("")
    # Probes (each flushes anything pending first; neither reaches the
    # engine, so the request counters above stay exact).
    lines.append(json.dumps({"schema": "rmt.request/1", "id": "st",
                             "kind": "stats", "instance": ""}))
    lines.append("")
    lines.append(json.dumps({"schema": "rmt.request/1", "id": "tr",
                             "kind": "trace", "instance": ""}))
    return "\n".join(lines) + "\n"


def hostile_lines():
    """(line, id, error check) per hostile line, each answered "error" —
    or, with id None, a blank line that gets no answer."""
    big = json.dumps({"schema": "rmt.request/1", "id": "big", "kind": "decide_rmt",
                      "instance": INSTANCE_A})
    big = big[:-1] + " " * (MAX_REQUEST_BYTES + 1 - len(big)) + "}"

    def simulate(rid, **params):
        return request(rid, INSTANCE_A, kind="simulate",
                       params={"strategy": "silent", **params})

    def cap(field, value, limit):
        return f"rmt.request/1: 'params.{field}' {value} exceeds {limit}"

    return [
        ("[" * 100000, "",
         lambda e: e.startswith("json::parse: nesting deeper than")),
        (big, "",
         lambda e: e == f"rmt.request/1: line exceeds {MAX_REQUEST_BYTES} bytes "
                        f"(got {MAX_REQUEST_BYTES + 1})"),
        (simulate("c32", corrupted=[2**32 - 1]), "c32",
         lambda e: e == cap("corrupted", f"node id {2**32 - 1}", MAX_CORRUPTED_ID)),
        (simulate("c64", corrupted=[99999999999]), "c64",
         lambda e: e == cap("corrupted", "node id 99999999999", MAX_CORRUPTED_ID)),
        (simulate("rounds", max_rounds=10**7), "rounds",
         lambda e: e == cap("max_rounds", 10**7, MAX_ROUNDS)),
        # An id is echoed into its answer, so an over-cap one never is.
        (request("i" * 100000, INSTANCE_B), "",
         lambda e: e == f"rmt.request/1: 'id' exceeds {MAX_ID_BYTES} bytes (got 100000)"),
        (simulate("many", corrupted=[1] * (MAX_CORRUPTED_ENTRIES + 1)), "many",
         lambda e: e == f"rmt.request/1: 'params.corrupted' has {MAX_CORRUPTED_ENTRIES + 1} "
                        f"entries, more than {MAX_CORRUPTED_ENTRIES}"),
        # JSON requires control bytes escaped inside strings: a raw one in
        # the id is a parse error, so that id is never echoed.
        (CTRL_LINE, "",
         lambda e: e == "json::parse: unescaped control byte in string at offset "
                        f"{CTRL_LINE.index(chr(1))}"),
        # Both transports frame lines alike: a raw NUL is refused unread.
        (NUL_LINE, "",
         lambda e: e == f"rmt.request/1: line contains a NUL byte ({len(NUL_LINE)} bytes)"),
        ("\r", None, None),
    ]


# A stats probe whose id holds a raw U+0001 (json.dumps would escape it).
CTRL_LINE = '{"schema":"rmt.request/1","id":"a\x01b","kind":"stats"}'
# A request whose id holds a raw NUL byte (json.dumps would escape it).
NUL_LINE = ('{"schema":"rmt.request/1","id":"n\x00ul","kind":"decide_rmt","instance":'
            + json.dumps(INSTANCE_B) + "}")
HUGE_LINE_BYTES = 64 << 20
VMHWM_CAP_KB = 32 << 10


def answer_count(cases):
    """Answers a hostile stream gets: the error (none for a blank line)
    and the request after each line."""
    return sum(1 if rid is None else 2 for _, rid, _ in cases)


def check_hostile_answers(got, want, expect, cases):
    """`got` alternates hostile-line errors (none for a blank line) and
    answers to the request after each."""
    expected = answer_count(cases)
    expect(len(got) == expected, f"expected {expected} responses, got {len(got)}")
    if len(got) != expected:
        return
    at = 0
    for k, (_, rid, error_ok) in enumerate(cases):
        if rid is not None:
            bad = got[at]
            at += 1
            expect(bad["id"] == rid and bad["status"] == "error"
                   and error_ok(bad["error"] or ""),
                   f"hostile line {k} answered {bad['id']!r} {bad['status']} {bad['error']!r}")
        answer = got[at]
        at += 1
        expect(answer["id"] == f"after{k}" and answer["status"] == "ok",
               f"request after hostile line {k}: {answer['id']!r} {answer['status']}")
        expect(all(answer[f] == want[f] for f in ("status", "key", "result", "error")),
               f"the request after hostile line {k} was answered differently")


def hostile_stream(cases):
    """Each hostile line, a blank line (unless it is one), then a request
    and its flush."""
    parts = []
    for k, (line, rid, _) in enumerate(cases):
        parts += [line] + ([""] if rid is not None else []) + [request(f"after{k}", INSTANCE_B), ""]
    return parts


def vm_hwm_kb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise AssertionError(f"no VmHWM in /proc/{pid}/status")


def stdio_hostile_lines(server, jobs, failures):
    def expect(cond, msg):
        if not cond:
            failures.append(f"stdio_hostile_lines: {msg}")

    want = run_server(server, jobs, request("after", INSTANCE_B) + "\n")[0]
    cases = hostile_lines()
    # stdio only: a 64 MiB line (None below), streamed in 1 MiB writes.
    cases.append((None, "",
                  lambda e: e == f"rmt.request/1: line exceeds {MAX_REQUEST_BYTES} bytes "
                                 f"(got {HUGE_LINE_BYTES})"))
    proc = subprocess.Popen([server, "--jobs", str(jobs)], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    lines = []
    reader = threading.Thread(target=lambda: lines.extend(proc.stdout))
    reader.start()

    def send(parts, answers):
        """Write `parts` (None: the 64 MiB line), then wait for `answers`."""
        for part in parts:
            if part is None:
                for _ in range(HUGE_LINE_BYTES >> 20):
                    proc.stdin.write(b"[" * (1 << 20))
                proc.stdin.write(b"\n")
            else:
                proc.stdin.write(part.encode() + b"\n")
        proc.stdin.flush()
        deadline = time.monotonic() + 90
        while len(lines) < answers and time.monotonic() < deadline and proc.poll() is None:
            time.sleep(0.01)

    try:
        # The peak is read before and after the 64 MiB line: buffering it
        # whole would raise VmHWM by 64 MiB or more. A rise, not a level,
        # holds sanitizer builds (shadow memory, quarantine) to the same cap.
        stream = hostile_stream(cases)
        split = len(hostile_stream(cases[:-1]))
        send(stream[:split], answer_count(cases[:-1]))
        before = vm_hwm_kb(proc.pid)
        send(stream[split:], answer_count(cases))
        after = vm_hwm_kb(proc.pid)
        expect(after - before < VMHWM_CAP_KB,
               f"VmHWM rose {before} -> {after} kB across a 64 MiB line (cap {VMHWM_CAP_KB} kB)")
        # The last line has no terminator and is still answered.
        proc.stdin.write(request("last", INSTANCE_B).encode())
        proc.stdin.close()
        expect(proc.wait(timeout=90) == 0, "rmt_serve exited non-zero")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reader.join()
    got = [json.loads(line) for line in lines if line.strip()]
    expect(len(got) >= 1 and got[-1]["id"] == "last"
           and all(got[-1][f] == want[f] for f in ("status", "key", "result", "error")),
           "a final line without '\\n' was not answered as a fresh server answers it")
    check_hostile_answers(got[:-1], want, expect, cases)


def tcp_hostile_lines(server, jobs, failures):
    def expect(cond, msg):
        if not cond:
            failures.append(f"tcp_hostile_lines: {msg}")

    want = run_server(server, jobs, request("after", INSTANCE_B) + "\n")[0]
    with TcpServer(server, jobs) as srv:
        client = TcpClient(srv.port)
        got = []
        cases = hostile_lines()
        for part in hostile_stream(cases):
            client.send_line(part)
            if part == "":  # one line, then a flush: one answer
                line = client.recv_line()
                if line is None:
                    failures.append("tcp_hostile_lines: EOF before all responses")
                    return
                got.append(json.loads(line))
        check_hostile_answers(got, want, expect, cases)
        # The four simulate lines resolve INSTANCE_A through the memo before
        # their params are rejected; the deep, oversized, long-id, control
        # byte and NUL lines never get that far. INSTANCE_A then INSTANCE_B:
        # two misses, the rest hits (one "after" request per case).
        stats = client.probe("stats", "st")["result"]
        memo = stats["memo"]
        after = len(cases)
        expect(memo["misses"] == 2 and memo["hits"] == 4 + after - 2,
               f"memo hits/misses {memo['hits']}/{memo['misses']} != {4 + after - 2}/2")
        # after0 misses and its blank line submits the one batch; the other
        # after-requests are cache hits answered on the loop thread. The
        # blank lines after the error lines, and the CRLF one, submit nothing.
        net, engine = stats["net"], stats["engine"]
        expect(net["inline_hits"] == after - 1 and net["batches"] == 1,
               f"net inline_hits/batches {net['inline_hits']}/{net['batches']} "
               f"!= {after - 1}/1")
        expect(engine["requests"] == after,
               f"engine.requests={engine['requests']} != {after}")
        client.close()
        expect(srv.terminate() == 0, "server exit code != 0 after SIGTERM")


def run_server(server, jobs, text):
    proc = subprocess.run([server, "--jobs", str(jobs)], input=text,
                          capture_output=True, text=True, timeout=90)
    if proc.returncode != 0:
        raise AssertionError(f"rmt_serve exited {proc.returncode}: {proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


def check(responses, failures):
    def expect(cond, msg):
        if not cond:
            failures.append(msg)

    by_id = {}
    for r in responses:
        expect(r.get("schema") == "rmt.response/1",
               f"bad schema in response: {r.get('schema')!r}")
        by_id.setdefault(r.get("id"), []).append(r)

    # Coalescing: one computation, four identical answers.
    dups = [by_id.get(f"dup{i}", [None])[0] for i in range(1, 5)]
    expect(all(d is not None for d in dups), "missing dup responses")
    if all(dups):
        expect(all(d["status"] == "ok" for d in dups), "dup status not ok")
        results = {json.dumps(d["result"], sort_keys=True) for d in dups}
        expect(len(results) == 1, f"dup results diverged: {len(results)} variants")
        keys = {d["key"] for d in dups}
        expect(len(keys) == 1, "dup keys diverged")
        owners = [d for d in dups if not d["coalesced"]]
        expect(len(owners) == 1,
               f"expected exactly 1 non-coalesced dup, got {len(owners)}")

    # Caching: the second ask for INSTANCE_B is a byte-identical hit.
    warm, hit = by_id.get("warm", [None])[0], by_id.get("hit", [None])[0]
    expect(warm and warm["status"] == "ok" and not warm["cached"],
           "warm request not a fresh ok")
    expect(hit and hit["status"] == "ok" and hit["cached"], "hit request not cached")
    if warm and hit:
        expect(hit["result"] == warm["result"], "cached bytes diverged")

    # Deadline: rejected, result null, and the server kept serving.
    late, retry = by_id.get("late", [None])[0], by_id.get("retry", [None])[0]
    expect(late and late["status"] == "deadline_exceeded",
           f"late status: {late and late['status']}")
    expect(late and late["result"] is None, "late result not null")
    expect(retry and retry["status"] == "ok", "retry after deadline failed")

    # The 20-cycle simulate decides the dealer's value.
    sim20 = by_id.get("sim20", [None])[0]
    expect(sim20 and sim20["status"] == "ok" and sim20["result"]["decision"] == 7
           and sim20["result"]["correct"] is True,
           f"sim20 did not decide the dealer's value: {sim20 and sim20['result']}")

    # Malformed line: an error response with the empty id.
    bad = by_id.get("", [None])[0]
    expect(bad and bad["status"] == "error" and bad["error"],
           "malformed line did not yield an error response")
    # An unparseable instance: the parser's message, the same both times.
    badinst = [by_id.get(f"badinst{i}", [None])[0] for i in (1, 2)]
    expect(all(b and b["status"] == "error" and
               b["error"].startswith("instance parse error") for b in badinst),
           f"unparseable instance not rejected by the parser: {badinst}")
    if all(badinst):
        expect(badinst[0]["error"] == badinst[1]["error"],
               "a repeated unparseable instance was answered differently")

    # Stats: the exact counters the scripted stream implies.
    st = by_id.get("st", [None])[0]
    expect(st and st["status"] == "ok", "stats probe failed")
    if st:
        engine = st["result"]["engine"]
        cache = st["result"]["cache"]
        expect(engine["requests"] == 9, f"engine.requests={engine['requests']} != 9")
        expect(engine["computed"] == 4, f"engine.computed={engine['computed']} != 4 "
               "(dups must share one computation)")
        expect(engine["coalesced"] == 3, f"engine.coalesced={engine['coalesced']} != 3")
        expect(engine["deadline_exceeded"] == 1,
               f"engine.deadline_exceeded={engine['deadline_exceeded']} != 1")
        expect(engine["errors"] == 0, f"engine.errors={engine['errors']} != 0")
        expect(cache["hits"] == 1, f"cache.hits={cache['hits']} != 1")
        expect(cache["misses"] == 3, f"cache.misses={cache['misses']} != 3")
        expect(cache["entries"] == 3, f"cache.entries={cache['entries']} != 3")
        # The memo saw INSTANCE_A (dup1-4, late, retry), INSTANCE_B (warm,
        # hit) and CYCLE_20 (sim20): one miss per text, the rest hits.
        # BAD_INSTANCE missed twice and was never stored; the non-JSON line
        # never reached it.
        memo = st["result"]["memo"]
        want_memo = {"hits": 6, "misses": 3 + 2, "evictions": 0, "entries": 3,
                     "bytes": len(INSTANCE_A) + len(INSTANCE_B) + len(CYCLE_20)
                              + 3 * MEMO_KEY_BYTES}
        for field, value in want_memo.items():
            expect(memo[field] == value, f"memo.{field}={memo[field]} != {value}")
        # Exact byte accounting: the three entries are warm's, retry's and
        # sim20's. Each costs its composite cache key ("<instance-key>|<kind>",
        # plus the simulate parameters for sim20) plus the compact
        # serialized result — svc::ResultCache charges key.size() +
        # value.size(), and the server stores results as the same compact
        # JSON it answers with.
        if warm and retry and sim20:
            res = sim20["result"]
            sim_key = (f"|corrupt={res['corrupted']};max_rounds=0;seed={res['seed']}"
                       f";strategy={res['strategy']};value={res['value']}")
            expected_bytes = sum(
                len(r["key"]) + 1 + len(kind) + len(extra) +
                len(json.dumps(r["result"], separators=(",", ":")))
                for r, kind, extra in ((warm, "decide_rmt", ""), (retry, "decide_rmt", ""),
                                       (sim20, "simulate", sim_key)))
            expect(cache["bytes"] == expected_bytes,
                   f"cache.bytes={cache['bytes']} != {expected_bytes} "
                   "(composite keys + stored result bytes)")

    # Trace ids: every request that reached the engine got its own trace;
    # probe and unreadable-line responses carry null.
    tids = {}
    for rid in [f"dup{i}" for i in range(1, 5)] + ["warm", "hit", "late", "retry", "sim20"]:
        r = by_id.get(rid, [None])[0]
        tid = r.get("trace_id") if r else None
        expect(isinstance(tid, str) and re.fullmatch(r"[0-9a-f]{16}", tid),
               f"{rid}: trace_id {tid!r} is not 16 hex digits")
        if isinstance(tid, str):
            tids[rid] = tid
    expect(len(set(tids.values())) == len(tids), "decide trace_ids not distinct")
    for rid in ("", "badinst1", "badinst2", "st", "tr"):
        r = by_id.get(rid, [None])[0]
        expect(r is not None and r.get("trace_id") is None,
               f"{rid or 'malformed'}: trace_id should be null")


def check_trace(responses, failures):
    """Assert the coalescing causality from the trace probe's span forest;
    returns the dump as rmt.trace/1 lines for the schema check."""
    def expect(cond, msg):
        if not cond:
            failures.append(msg)

    by_id = {r.get("id"): r for r in responses}
    tr = by_id.get("tr")
    expect(tr and tr.get("status") == "ok" and tr["result"]["kind"] == "trace",
           "trace probe failed")
    if not (tr and tr.get("status") == "ok"):
        return None
    header, spans = tr["result"]["header"], tr["result"]["spans"]
    expect(header["dropped"] == 0, "flight recorder dropped spans mid-test")

    tid = lambda rid: by_id[rid].get("trace_id")
    engine_ids = [f"dup{i}" for i in range(1, 5)] + ["warm", "hit", "late", "retry", "sim20"]

    # One svc.request root per engine request, each on its response's trace.
    roots = {s["trace"]: s for s in spans if s["name"] == "svc.request"}
    expect(len([s for s in spans if s["name"] == "svc.request"]) == 9,
           "expected 9 svc.request root spans")
    expect(all(s["parent"] is None for s in roots.values()),
           "svc.request spans must be trace roots")
    expect(set(roots) == {tid(r) for r in engine_ids},
           "svc.request traces do not match the response trace_ids")

    # The four duplicates share ONE compute subtree: the leader's trace
    # carries the only svc.compute among them, hanging off the leader's
    # root; the three followers each record an svc.join referencing it.
    computes = [s for s in spans if s["name"] == "svc.compute"]
    expect(len(computes) == 4, f"expected 4 svc.compute spans (dup leader, "
           f"warm, retry, sim20), got {len(computes)}")
    dup_traces = {tid(f"dup{i}") for i in range(1, 5)}
    dup_computes = [s for s in computes if s["trace"] in dup_traces]
    expect(len(dup_computes) == 1,
           f"expected exactly 1 svc.compute among the dups, got {len(dup_computes)}")
    leader = next(r for r in (by_id[f"dup{i}"] for i in range(1, 5))
                  if not r["coalesced"])
    joins = [s for s in spans if s["name"] == "svc.join"]
    expect(len(joins) == 3, f"expected 3 svc.join spans, got {len(joins)}")
    if dup_computes:
        compute = dup_computes[0]
        expect(compute["trace"] == leader["trace_id"],
               "the dup compute span is not on the leader's trace")
        expect(compute["parent"] == roots[leader["trace_id"]]["span"],
               "the dup compute span does not hang off the leader's root")
        expect({j["trace"] for j in joins} == dup_traces - {leader["trace_id"]},
               "svc.join spans are not one per follower dup")
        for j in joins:
            expect(j["kind"] == "join" and j["join"] == compute["span"],
                   f"join span {j['span']} does not reference the leader's "
                   "compute span")
            expect(j["parent"] == roots[j["trace"]]["span"],
                   f"join span {j['span']} does not hang off its own root")

    # Root attrs carry the serving verdicts the responses claimed.
    attr_expect = [(leader["id"], "cache=bypass", "coalesced=false"),
                   ("hit", "cache=hit", "status=ok"),
                   ("late", "status=deadline_exceeded", "bytes=0"),
                   ("retry", "cache=miss", "coalesced=false")]
    for rid, *needles in attr_expect:
        attrs = roots.get(tid(rid), {}).get("attrs", "")
        for needle in needles:
            expect(needle in attrs, f"{rid}: root attrs {attrs!r} lack {needle!r}")
    follower = next(r for r in (by_id[f"dup{i}"] for i in range(1, 5))
                    if r["coalesced"])
    attrs = roots.get(follower["trace_id"], {}).get("attrs", "")
    for needle in ("join=batch", "coalesced=true"):
        expect(needle in attrs,
               f"{follower['id']}: root attrs {attrs!r} lack {needle!r}")

    return [json.dumps(header)] + [json.dumps(s) for s in spans]


def schema_check(checker, lines, what, failures):
    with tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False) as f:
        for line in lines:
            f.write(line + "\n")
        path = f.name
    proc = subprocess.run([sys.executable, checker, path],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        failures.append(f"check_bench_json rejected the {what}:\n{proc.stderr}")


# --------------------------------------------------------------------------
# Persistence scenarios (rmt_serve --store-dir; see src/store/)
# --------------------------------------------------------------------------

def fnv1a64(data):
    """FNV-1a-64 over bytes — must match src/store/format.hpp."""
    h = 0xCBF29CE484222325
    for c in data:
        h ^= c
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def tamper_store_value(path):
    """Flip one value byte of the first record in a store.log AND recompute
    that record's checksum, so the record still loads as perfectly valid —
    only a byte-level comparison against another store can catch it."""
    with open(path, "rb") as f:
        data = bytearray(f.read())
    off = data.index(b"\n") + 1  # first record starts after the identity line
    key_len, value_len = struct.unpack_from("<II", data, off)
    (seq,) = struct.unpack_from("<Q", data, off + 8)
    if value_len == 0:
        raise AssertionError("tamper target record has an empty value")
    key = bytes(data[off + 24:off + 24 + key_len])
    voff = off + 24 + key_len
    data[voff] ^= 0x01
    value = bytes(data[voff:voff + value_len])
    checksum = fnv1a64(struct.pack("<IIQ", key_len, value_len, seq) + key + value)
    struct.pack_into("<Q", data, off + 16, checksum)
    with open(path, "wb") as f:
        f.write(data)


STORE_KEYS = 3  # distinct instances persisted per store_restart run


def store_restart(server, jobs, failures, mode):
    """SIGKILL mid-serve -> restart -> byte-identical answers, computed==0."""
    tag = f"store_restart[{mode}]"

    def expect(cond, msg):
        if not cond:
            failures.append(f"{tag}: {msg}")

    with tempfile.TemporaryDirectory(prefix="rmt_e2e_store_") as tmp:
        sdir = os.path.join(tmp, "store")
        flags = ["--store-dir", sdir]
        first = {}

        # First life: answer three distinct requests (each write-through to
        # disk), then SIGKILL — no drain, no flush hook, nothing graceful.
        if mode == "stdio":
            proc = subprocess.Popen([server, "--jobs", str(jobs), *flags],
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL, text=True)
            try:
                for k in range(STORE_KEYS):
                    proc.stdin.write(request(f"w{k}", VARIANTS[k]) + "\n\n")
                proc.stdin.flush()
                for _ in range(STORE_KEYS):
                    doc = json.loads(proc.stdout.readline())
                    first[doc["id"]] = doc
            finally:
                proc.kill()
                proc.wait()
        else:
            with TcpServer(server, jobs, flags) as srv:
                client = TcpClient(srv.port)
                for k in range(STORE_KEYS):
                    client.request(f"w{k}", VARIANTS[k])
                    client.send_line("")
                for _ in range(STORE_KEYS):
                    doc = json.loads(client.recv_line())
                    first[doc["id"]] = doc
                client.close()
                srv.proc.kill()
                srv.proc.wait()
        expect(len(first) == STORE_KEYS
               and all(d["status"] == "ok" for d in first.values()),
               "first life did not answer every request ok")
        if len(first) != STORE_KEYS:
            return

        # Second life over the same directory: every answer must come off
        # disk — cached, byte-identical, zero recomputation.
        docs = {}
        if mode == "stdio":
            lines = []
            for k in range(STORE_KEYS):
                lines.append(request(f"w{k}", VARIANTS[k]))
                lines.append("")
            lines.append(json.dumps({"schema": "rmt.request/1", "id": "st",
                                     "kind": "stats", "instance": ""}))
            out = subprocess.run([server, "--jobs", str(jobs), *flags],
                                 input="\n".join(lines) + "\n",
                                 capture_output=True, text=True, timeout=90)
            expect(out.returncode == 0,
                   f"restarted server exited {out.returncode}: {out.stderr}")
            for raw in out.stdout.splitlines():
                if raw.strip():
                    doc = json.loads(raw)
                    docs[doc["id"]] = doc
        else:
            with TcpServer(server, jobs, flags) as srv:
                client = TcpClient(srv.port)
                for k in range(STORE_KEYS):
                    client.request(f"w{k}", VARIANTS[k])
                    client.send_line("")
                for _ in range(STORE_KEYS):
                    doc = json.loads(client.recv_line())
                    docs[doc["id"]] = doc
                docs["st"] = client.probe("stats", "st")
                client.close()
                expect(srv.terminate() == 0, "restarted server exit != 0")

        for k in range(STORE_KEYS):
            doc = docs.get(f"w{k}")
            expect(doc is not None and doc["status"] == "ok",
                   f"w{k}: restarted answer missing or not ok")
            if not doc:
                continue
            expect(doc["cached"] is True, f"w{k}: restarted answer not cached")
            expect(doc["result"] == first[f"w{k}"]["result"],
                   f"w{k}: restarted result diverged from the pre-crash bytes")
        st = docs.get("st")
        expect(st is not None and st["status"] == "ok", "stats probe failed")
        if st:
            engine, store = st["result"]["engine"], st["result"].get("store")
            expect(engine["computed"] == 0,
                   f"engine.computed={engine['computed']} != 0 "
                   "(restart recomputed instead of serving from disk)")
            expect(engine["disk_hits"] == STORE_KEYS,
                   f"engine.disk_hits={engine['disk_hits']} != {STORE_KEYS}")
            expect(store is not None and store["hits"] == STORE_KEYS,
                   f"store.hits={store and store['hits']} != {STORE_KEYS}")
            expect(store is not None and store["records"] == STORE_KEYS
                   and store["repairs"] == 0,
                   "store inventory wrong after the crash "
                   f"(records={store and store['records']}, "
                   f"repairs={store and store['repairs']})")


def populate_store(server, jobs, sdir, mode):
    """One server life that persists INSTANCE_B's answer into `sdir`."""
    if mode == "stdio":
        out = subprocess.run([server, "--jobs", str(jobs), "--store-dir", sdir],
                             input=request("seed", INSTANCE_B) + "\n\n",
                             capture_output=True, text=True, timeout=90)
        if out.returncode != 0:
            raise AssertionError(f"populate run exited {out.returncode}: {out.stderr}")
    else:
        with TcpServer(server, jobs, ["--store-dir", sdir]) as srv:
            client = TcpClient(srv.port)
            client.request("seed", INSTANCE_B)
            client.send_line("")
            doc = json.loads(client.recv_line())
            if doc["status"] != "ok":
                raise AssertionError(f"populate request failed: {doc}")
            client.close()
            if srv.terminate() != 0:
                raise AssertionError("populate server exit != 0")


def store_merge_divergence(server, jobs, cli, failures, mode):
    """Merging a tampered store fails loudly and modifies nothing."""
    tag = f"store_merge_divergence[{mode}]"

    def expect(cond, msg):
        if not cond:
            failures.append(f"{tag}: {msg}")

    with tempfile.TemporaryDirectory(prefix="rmt_e2e_merge_") as tmp:
        dst = os.path.join(tmp, "a")
        src = os.path.join(tmp, "b")
        populate_store(server, jobs, dst, mode)
        populate_store(server, jobs, src, mode)
        dst_log = os.path.join(dst, "store.log")
        with open(dst_log, "rb") as f:
            dst_before = f.read()

        # Control: two stores grown from the same request hold identical
        # records — the merge folds to zero appends and exits 0.
        ok = subprocess.run([cli, "store", "merge", dst, src],
                            capture_output=True, text=True, timeout=60)
        expect(ok.returncode == 0,
               f"equal-store merge exited {ok.returncode}: {ok.stderr}")

        # One flipped value byte with a recomputed checksum: the record is
        # valid in isolation, so only the merge's byte comparison is left
        # to notice the two stores now disagree about a shared key.
        tamper_store_value(os.path.join(src, "store.log"))
        bad = subprocess.run([cli, "store", "merge", dst, src],
                            capture_output=True, text=True, timeout=60)
        expect(bad.returncode == 3,
               f"tampered merge exited {bad.returncode}, expected 3")
        expect("MERGE FAILED:" in bad.stderr and "divergence" in bad.stderr,
               f"tampered merge stderr lacks the diagnosis: {bad.stderr!r}")
        with open(dst_log, "rb") as f:
            expect(f.read() == dst_before,
                   "destination store modified by a refused merge")


# --------------------------------------------------------------------------
# TCP harness
# --------------------------------------------------------------------------

PORT_RE = re.compile(r"rmt_serve: listening on 127\.0\.0\.1:(\d+)")


def path_instance(n):
    """A structurally distinct n-node path instance (distinct cache key)."""
    lines = ["rmt-instance v1", f"nodes {n}"]
    lines += [f"edge {i} {i + 1}" for i in range(n - 1)]
    lines += ["dealer 0", f"receiver {n - 1}", "corruptible 1"]
    return "\n".join(lines) + "\n"


VARIANTS = [path_instance(n) for n in range(3, 9)]


def det_segment(raw_line):
    """The deterministic slice of a response line: status/key/result/error.

    Everything before it (schema, id) and after it (cached, coalesced,
    wall_us, trace_id) legitimately varies between stdio and TCP runs;
    this segment must be byte-identical for the same request.
    """
    start = raw_line.index('"status":')
    end = raw_line.index(',"cached":')
    return raw_line[start:end]


class TcpServer:
    """Context manager around `rmt_serve --port 0 <flags>`."""

    def __init__(self, server, jobs, flags=()):
        self.cmd = [server, "--port", "0", "--jobs", str(jobs), *flags]
        self.proc = None
        self.port = None

    def __enter__(self):
        self.proc = subprocess.Popen(self.cmd, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True)
        line = self.proc.stderr.readline()
        m = PORT_RE.search(line)
        if not m:
            self.proc.kill()
            self.proc.wait()
            raise AssertionError(f"rmt_serve did not announce a port: {line!r}")
        self.port = int(m.group(1))
        return self

    def terminate(self, timeout=30):
        """SIGTERM the server and return its exit code (graceful drain)."""
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stderr.close()


class TcpClient:
    """Minimal blocking JSONL client with raw-byte access for fault injection."""

    def __init__(self, port, rcvbuf=0, timeout=60):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if rcvbuf:
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(timeout)
        self.sock.connect(("127.0.0.1", port))
        self.buf = b""

    def send_raw(self, data):
        self.sock.sendall(data)

    def send_line(self, line):
        self.sock.sendall(line.encode() + b"\n")

    def recv_line(self):
        """One decoded line, or None on clean EOF."""
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def request(self, rid, instance, **extra):
        self.send_line(request(rid, instance, **extra))

    def probe(self, kind, rid):
        self.send_line(json.dumps({"schema": "rmt.request/1", "id": rid,
                                   "kind": kind, "instance": ""}))
        line = self.recv_line()
        if line is None:
            raise AssertionError(f"EOF while waiting for the {kind} probe")
        return json.loads(line)

    def shutdown_write(self):
        self.sock.shutdown(socket.SHUT_WR)

    def close(self):
        self.sock.close()


def stdio_reference_segments(server, jobs):
    """Map variant index -> deterministic response segment from a stdio run."""
    lines = []
    for k in range(len(VARIANTS)):
        lines.append(request(f"v{k}", VARIANTS[k]))
        lines.append("")
    text = "\n".join(lines) + "\n"
    proc = subprocess.run([server, "--jobs", str(jobs)], input=text,
                          capture_output=True, text=True, timeout=90)
    if proc.returncode != 0:
        raise AssertionError(f"stdio reference run exited {proc.returncode}: "
                             f"{proc.stderr}")
    segments = {}
    for raw in proc.stdout.splitlines():
        if not raw.strip():
            continue
        rid = json.loads(raw)["id"]
        segments[int(rid[1:])] = det_segment(raw)
    if set(segments) != set(range(len(VARIANTS))):
        raise AssertionError("stdio reference run missed variants")
    return segments


def tcp_parity_faults(server, jobs, checker, failures):
    """64 concurrent faulted clients; byte-identity with stdio answers."""
    def expect(cond, msg):
        if not cond:
            failures.append(f"tcp_parity_faults: {msg}")

    ref = stdio_reference_segments(server, jobs)
    n_clients, per_client = 64, 3
    raw_responses = []
    raw_lock = threading.Lock()
    errors = []

    def run_client(c, port):
        try:
            client = TcpClient(port)
            variants = [(c + j) % len(VARIANTS) for j in range(per_client)]
            reqs = [request(f"c{c}_{j}", VARIANTS[v])
                    for j, v in enumerate(variants)]
            fault = c % 4
            expected = list(zip([f"c{c}_{j}" for j in range(per_client)],
                                variants))
            if fault == 0:
                # Split writes: one send ending mid-way through the second
                # request line, the rest (plus the flush) in a second send.
                payload = ("\n".join(reqs) + "\n\n").encode()
                cut = len(reqs[0]) + 1 + len(reqs[1]) // 2
                client.send_raw(payload[:cut])
                time.sleep(0.01)
                client.send_raw(payload[cut:])
            elif fault == 1:
                # Dribbled bytes: the whole payload in 7-byte chunks.
                payload = ("\n".join(reqs) + "\n\n").encode()
                for off in range(0, len(payload), 7):
                    client.send_raw(payload[off:off + 7])
            elif fault == 2:
                # Duplicated line: the first request is sent twice; the
                # server must answer it twice, in order.
                payload = "\n".join([reqs[0]] + reqs) + "\n\n"
                client.send_raw(payload.encode())
                expected = [expected[0]] + expected
            else:
                # Half-open: send everything, then shut down the write side
                # before reading a single response.
                client.send_raw(("\n".join(reqs) + "\n\n").encode())
                client.shutdown_write()

            for rid, variant in expected:
                raw = client.recv_line()
                if raw is None:
                    errors.append(f"client {c}: EOF before response {rid}")
                    return
                doc = json.loads(raw)
                if doc["id"] != rid:
                    errors.append(f"client {c}: got id {doc['id']!r}, "
                                  f"expected {rid!r} (order broken)")
                    return
                if det_segment(raw) != ref[variant]:
                    errors.append(f"client {c}: response {rid} diverged from "
                                  "the stdio answer for the same instance")
                    return
                with raw_lock:
                    raw_responses.append(raw)
            if fault == 3 and client.recv_line() is not None:
                errors.append(f"client {c}: no EOF after half-open close")
            client.close()
        except Exception as e:  # noqa: BLE001 - collected per-thread
            errors.append(f"client {c}: {type(e).__name__}: {e}")

    with TcpServer(server, jobs, ["--batch-wait-ms", "2"]) as srv:
        threads = [threading.Thread(target=run_client, args=(c, srv.port))
                   for c in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for e in errors:
            failures.append(f"tcp_parity_faults: {e}")

        # The control connection is the 65th accept; wait for the 64 client
        # conns to be reaped so active==1 proves nothing wedged or leaked.
        control = TcpClient(srv.port)
        deadline = time.monotonic() + 10
        net = None
        while time.monotonic() < deadline:
            net = control.probe("stats", "st")["result"]["net"]
            if net["active"] == 1:
                break
            time.sleep(0.05)
        expect(net is not None and net["accepts"] == n_clients + 1,
               f"net.accepts={net and net['accepts']} != {n_clients + 1}")
        expect(net is not None and net["active"] == 1,
               f"net.active={net and net['active']} != 1 (leaked connections)")
        expect(net is not None and net["shed"] == 0,
               f"net.shed={net and net['shed']} != 0")
        expect(net is not None and net["slow_client_disconnects"] == 0,
               "unexpected slow-client disconnects")
        # The probe's own response is not yet counted in the snapshot it
        # carries, so the floor is exactly the client-request total.
        dup_extra = len([c for c in range(n_clients) if c % 4 == 2])
        want = n_clients * per_client + dup_extra
        expect(net is not None and net["responses_out"] >= want,
               f"net.responses_out={net and net['responses_out']} < {want}")
        # One event loop parses every line: the first sight of each variant
        # misses, every later request hits (probes never reach the memo).
        memo = control.probe("stats", "st2")["result"]["memo"]
        expect(memo["misses"] == len(VARIANTS) and memo["hits"] == want - len(VARIANTS),
               f"memo hits/misses {memo['hits']}/{memo['misses']} != "
               f"{want - len(VARIANTS)}/{len(VARIANTS)}")
        expect(memo["entries"] == len(VARIANTS), f"memo.entries={memo['entries']}")
        control.close()
        expect(srv.terminate() == 0, "server exit code != 0 after SIGTERM")

    expect(len(raw_responses) == want,
           f"collected {len(raw_responses)} parity responses, expected {want}")
    if checker:
        schema_check(checker, raw_responses, "TCP parity responses", failures)


def tcp_coalesce(server, jobs, checker, failures):
    """One key from two sockets -> one computation, with trace evidence."""
    def expect(cond, msg):
        if not cond:
            failures.append(f"tcp_coalesce: {msg}")

    with TcpServer(server, jobs, ["--batch-wait-ms", "60000"]) as srv:
        a, b = TcpClient(srv.port), TcpClient(srv.port)
        a.request("a1", INSTANCE_A, no_cache=True)
        # No blank line yet: a1 sits in the shared pending batch. Give the
        # server time to admit it before the second socket joins the batch.
        time.sleep(0.3)
        b.request("b1", INSTANCE_A, no_cache=True)
        time.sleep(0.1)
        b.send_line("")  # a blank from EITHER conn flushes the shared batch

        ra = json.loads(a.recv_line())
        rb = json.loads(b.recv_line())
        expect(ra["id"] == "a1" and rb["id"] == "b1", "ids scrambled")
        expect(ra["status"] == "ok" and rb["status"] == "ok", "status not ok")
        expect(ra["key"] == rb["key"], "same instance produced different keys")
        expect({ra["coalesced"], rb["coalesced"]} == {True, False},
               "expected exactly one coalesced follower across the sockets")

        probe = b.probe("stats", "st")
        st = probe["result"]
        expect(st["engine"]["requests"] == 2, "engine.requests != 2")
        expect(st["engine"]["computed"] == 1,
               f"engine.computed={st['engine']['computed']} != 1 "
               "(cross-socket batch did not share the computation)")
        expect(st["engine"]["coalesced"] == 1, "engine.coalesced != 1")
        expect(st["net"]["accepts"] == 2, "net.accepts != 2")

        tr = b.probe("trace", "tr")
        spans = tr["result"]["spans"]
        dup_traces = {ra["trace_id"], rb["trace_id"]}
        computes = [s for s in spans if s["name"] == "svc.compute"
                    and s["trace"] in dup_traces]
        expect(len(computes) == 1,
               f"expected 1 svc.compute across both sockets, got {len(computes)}")
        joins = [s for s in spans if s["name"] == "svc.join"]
        expect(len(joins) == 1 and computes
               and joins[0]["join"] == computes[0]["span"],
               "svc.join does not reference the shared compute span")

        # net.write spans prove the transport joined each response to its
        # svc.request root.
        roots = {s["span"]: s for s in spans if s["name"] == "svc.request"}
        writes = [s for s in spans if s["name"] == "net.write"
                  and s["join"] in roots]
        expect(len(writes) >= 2,
               f"expected >=2 net.write spans joined to svc.request roots, "
               f"got {len(writes)}")
        for w in writes:
            expect(w["kind"] == "join", "net.write span is not a join")

        if checker:
            dump = [json.dumps(tr["result"]["header"])]
            dump += [json.dumps(s) for s in spans]
            schema_check(checker, dump, "TCP trace probe dump", failures)
            # The TCP stats probe's net section, inline_hits and batches included.
            schema_check(checker, [json.dumps(probe)], "TCP stats probe", failures)
        a.close()
        b.close()
        expect(srv.terminate() == 0, "server exit code != 0 after SIGTERM")


def tcp_shed(server, jobs, failures):
    """Admission control: overloaded errors past the per-conn budget."""
    def expect(cond, msg):
        if not cond:
            failures.append(f"tcp_shed: {msg}")

    flags = ["--batch-wait-ms", "60000", "--max-inflight-conn", "1"]
    with TcpServer(server, jobs, flags) as srv:
        client = TcpClient(srv.port)
        payload = "\n".join(request(f"q{i}", INSTANCE_A) for i in range(5))
        client.send_raw((payload + "\n\n").encode())
        docs = []
        for _ in range(5):
            line = client.recv_line()
            if line is None:
                failures.append("tcp_shed: EOF before all 5 responses")
                return
            docs.append(json.loads(line))
        expect([d["id"] for d in docs] == [f"q{i}" for i in range(5)],
               "shed responses out of order")
        expect(docs[0]["status"] == "ok", "admitted request not ok")
        for d in docs[1:]:
            expect(d["status"] == "error" and "overloaded" in (d["error"] or ""),
                   f"{d['id']}: expected an overloaded error, got "
                   f"{d['status']}/{d['error']!r}")
        net = client.probe("stats", "st")["result"]["net"]
        expect(net["shed"] == 4, f"net.shed={net['shed']} != 4")
        client.close()
        expect(srv.terminate() == 0, "server exit code != 0 after SIGTERM")


def tcp_slow_client(server, jobs, failures):
    """A never-reading client is disconnected; a healthy one keeps working."""
    def expect(cond, msg):
        if not cond:
            failures.append(f"tcp_slow_client: {msg}")

    flags = ["--so-sndbuf", "4096", "--write-budget", "1024",
             "--write-hard-cap", "4096"]
    with TcpServer(server, jobs, flags) as srv:
        slow = TcpClient(srv.port, rcvbuf=4096)
        # Pipeline answered-but-unread work until the server's write queue
        # blows past the hard cap. The whole burst goes out in one write, so
        # the server's first recv(2) already holds more answers than the
        # cap: the queue passes it whatever the budget does to later reads.
        # Sent line by line, reads could pause with the queue between the
        # budget and the cap, and the client would never be dropped. The
        # send fails once the server resets the connection — that is the
        # success condition.
        burst = "".join(request(f"s{i}", INSTANCE_A) + "\n\n" for i in range(400))
        try:
            slow.send_raw(burst.encode())
        except OSError:
            pass

        healthy = TcpClient(srv.port)
        deadline = time.monotonic() + 15
        net = None
        while time.monotonic() < deadline:
            net = healthy.probe("stats", f"h{int(time.monotonic() * 1000)}")
            net = net["result"]["net"]
            if net["slow_client_disconnects"] >= 1:
                break
            time.sleep(0.05)
        expect(net is not None and net["slow_client_disconnects"] >= 1,
               "slow client was never disconnected")
        healthy.request("ok1", INSTANCE_B)
        healthy.send_line("")
        doc = json.loads(healthy.recv_line())
        expect(doc["id"] == "ok1" and doc["status"] == "ok",
               "healthy client starved while the slow client was shed")
        slow.close()
        healthy.close()
        expect(srv.terminate() == 0, "server exit code != 0 after SIGTERM")


def tcp_drain(server, jobs, failures):
    """SIGTERM mid-batch: the in-flight answer is flushed, then clean EOF."""
    def expect(cond, msg):
        if not cond:
            failures.append(f"tcp_drain: {msg}")

    with TcpServer(server, jobs, ["--batch-wait-ms", "60000"]) as srv:
        client = TcpClient(srv.port)
        client.request("d1", INSTANCE_A)
        time.sleep(0.3)  # let the request reach the pending batch
        # Drain flushes the pending batch even though no blank line arrived.
        srv.proc.send_signal(signal.SIGTERM)
        raw = client.recv_line()
        expect(raw is not None, "no response during graceful drain")
        if raw is not None:
            doc = json.loads(raw)
            expect(doc["id"] == "d1" and doc["status"] == "ok",
                   "drained response wrong")
        expect(client.recv_line() is None, "expected EOF after drain")
        client.close()
        code = srv.proc.wait(timeout=30)
        expect(code == 0, f"server exit code {code} != 0 after drain")


def run_scenarios(scenarios, failures):
    for name, fn in scenarios:
        before = len(failures)
        try:
            fn()
        except Exception as e:  # noqa: BLE001 - a scenario must not kill the rest
            failures.append(f"{name}: {type(e).__name__}: {e}")
        status = "ok" if len(failures) == before else "FAIL"
        print(f"serve_e2e: {name}: {status}")


def run_tcp(server, jobs, checker, cli, failures):
    scenarios = [("tcp_parity_faults",
                  lambda: tcp_parity_faults(server, jobs, checker, failures)),
                 ("tcp_coalesce",
                  lambda: tcp_coalesce(server, jobs, checker, failures)),
                 ("tcp_shed", lambda: tcp_shed(server, jobs, failures)),
                 ("tcp_hostile_lines",
                  lambda: tcp_hostile_lines(server, jobs, failures)),
                 ("tcp_slow_client",
                  lambda: tcp_slow_client(server, jobs, failures)),
                 ("tcp_drain", lambda: tcp_drain(server, jobs, failures)),
                 ("store_restart[tcp]",
                  lambda: store_restart(server, jobs, failures, "tcp"))]
    if cli:
        scenarios.append(
            ("store_merge_divergence[tcp]",
             lambda: store_merge_divergence(server, jobs, cli, failures, "tcp")))
    run_scenarios(scenarios, failures)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--server", required=True, help="path to the rmt_serve binary")
    parser.add_argument("--cli", help="path to the rmt_cli binary "
                        "(enables the store merge-divergence scenarios)")
    parser.add_argument("--checker", help="path to check_bench_json.py")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--mode", choices=["all", "stdio", "tcp"], default="all")
    args = parser.parse_args()

    failures = []
    responses = []
    if args.mode in ("all", "stdio"):
        responses = run_server(args.server, args.jobs, build_input())
        check(responses, failures)
        trace_lines = check_trace(responses, failures)
        if args.checker:
            schema_check(args.checker, [json.dumps(r) for r in responses],
                         "response stream", failures)
            if trace_lines:
                schema_check(args.checker, trace_lines, "trace probe dump",
                             failures)
        scenarios = [("stdio_hostile_lines",
                      lambda: stdio_hostile_lines(args.server, args.jobs, failures)),
                     ("store_restart[stdio]",
                      lambda: store_restart(args.server, args.jobs, failures,
                                            "stdio"))]
        if args.cli:
            scenarios.append(
                ("store_merge_divergence[stdio]",
                 lambda: store_merge_divergence(args.server, args.jobs,
                                                args.cli, failures, "stdio")))
        run_scenarios(scenarios, failures)
    if args.mode in ("all", "tcp"):
        run_tcp(args.server, args.jobs, args.checker, args.cli, failures)

    for f in failures:
        print(f"serve_e2e: FAIL: {f}", file=sys.stderr)
    print(f"serve_e2e: {len(responses)} responses, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
