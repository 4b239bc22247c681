#!/usr/bin/env python3
"""Project-specific static linter for the rmt library.

Machine-enforces the conventions the code review would otherwise have to
catch by hand (wired into ctest as lint_project / lint_selftest):

  pragma-once       every header uses #pragma once as its include guard
  header-namespace  no `using namespace` at any scope in a header
  banned-token      src/ may not use rand() (Rng is seeded and forkable),
                    raw assert() (RMT_REQUIRE/RMT_CHECK throw and carry
                    messages), or iostream writes (the library reports via
                    return values and exceptions; printing is for tools/)
  thread-spawn      raw std::thread / std::jthread / std::async only inside
                    src/exec/ (everything else goes through rmt::exec's
                    ThreadPool so determinism, stats, and TSan coverage are
                    centralised); tests/ may spawn threads to race the pool
  rng-discipline    raw standard RNG engines (std::mt19937 & friends,
                    std::random_device, srand) only inside src/util/rng.hpp;
                    every other random stream goes through rmt::Rng so seeds
                    stay splitmix64-derived and every campaign cell,
                    propcheck coordinate and fuzz finding is reproducible.
                    Applies to ALL linted dirs — tests and tools included
                    (an unreproducible test failure is as bad as one in src/)
  entry-require     each registered public API entry point contains an
                    RMT_REQUIRE precondition (or an RMT_AUDIT_VALIDATE deep
                    hook) in its body
  phase-registry    the RMT_OBS_SCOPE phase names used across src/ form a
                    closed vocabulary: exactly the names listed in
                    src/obs/phase_names.hpp (both directions checked)
  svc-metric-registry
                    every "svc.*" / "cache.*" metric-name string literal in
                    C++ sources appears in src/svc/metric_names.hpp, and
                    every registered name keeps an instrumentation site in
                    src/ (both directions, mirroring phase-registry).
                    Phase names ("svc.batch", "svc.compute") belong to the
                    phase registry and span names ("svc.request", "svc.join")
                    to the span registry; both are exempt here.
  span-registry     the trace span names used across src/ form a closed
                    vocabulary: every RMT_TRACE_SPAN name must come from
                    src/obs/phase_names.hpp (the macro is RMT_OBS_SCOPE's
                    sibling), every RMT_TRACE_NAME literal must appear in
                    src/obs/span_names.hpp or the phase registry, and every
                    span-registry entry keeps an RMT_TRACE_NAME site in src/
                    (both directions, mirroring phase-registry)
  socket-discipline raw BSD socket / poll / epoll calls (socket, accept,
                    bind, listen, connect, recv, send, setsockopt, ...)
                    only inside src/net/ — every other layer, tests and
                    benches included, talks through net::Server /
                    net::Client so framing, backpressure, and the net.*
                    counters cannot be bypassed (member calls like
                    client.connect(...) are fine; it is the free functions
                    that are fenced)
  net-metric-registry
                    every "net.*" metric-name string literal in C++
                    sources appears in src/net/metric_names.hpp, and every
                    registered name keeps an instrumentation site in src/
                    (both directions, mirroring svc-metric-registry). Span
                    names ("net.conn", "net.read", "net.write") belong to
                    the span registry and are exempt here.
  io-discipline     raw POSIX file io (::open, ::write, pread, pwrite,
                    fsync, ftruncate, rename, unlink, mkdir, ...) only
                    inside src/store/ — the store owns durability, so its
                    append/fsync/rename discipline, torn-tail repair, and
                    store.* accounting cannot be bypassed by another layer
                    scribbling on the log. The crash handler's async-
                    signal-safe dump and the event loop's self-pipe are
                    grandfathered per line with a '// lint:raw-io-allowed'
                    marker carrying its justification. Common identifiers
                    (open/write/rename) trip only when ::-qualified —
                    member functions and std::filesystem stay legitimate;
                    the rare POSIX names (pread, fsync, ftruncate, ...)
                    trip bare too.
  store-metric-registry
                    every "store.*" metric-name string literal in C++
                    sources appears in src/store/metric_names.hpp, and
                    every registered name keeps an instrumentation site in
                    src/ (both directions, mirroring svc/net-metric-
                    registry). The store phase names ("store.load",
                    "store.append", "store.compact") belong to the phase
                    registry and are exempt here.

Usage:
  rmt_lint.py [--repo DIR]   lint the repository (default: the linter's
                             parent repo checkout)
  rmt_lint.py --self-test    run the rules against embedded good/bad
                             fixtures instead of the repository

Exit code 0 when clean, 1 on violations (reported one per line on stderr).
"""

import argparse
import pathlib
import re
import sys

# --- rule configuration ------------------------------------------------------

BANNED_TOKENS = [
    (re.compile(r"\brand\s*\("), "rand() — use util/rng.hpp (seeded, forkable)"),
    (re.compile(r"\bassert\s*\("), "assert() — use RMT_REQUIRE/RMT_CHECK (util/check.hpp)"),
    (re.compile(r"std::cout\b"), "std::cout — the library must not write to stdout"),
    (re.compile(r"std::cerr\b"), "std::cerr — the library must not write to stderr"),
]

# Public API entry points that must keep a precondition (RMT_REQUIRE) or a
# deep-audit hook (RMT_AUDIT_VALIDATE) in their body. Listed explicitly so
# removing a guard is a reviewed decision, not an accident.
ENTRY_POINTS = [
    ("src/analysis/rmt_cut.cpp", "find_rmt_cut"),
    ("src/analysis/zpp_cut.cpp", "find_rmt_zpp_cut"),
    ("src/analysis/feasibility.cpp", "find_two_cover_cut"),
    ("src/protocols/runner.cpp", "run_rmt"),
    ("src/protocols/runner.cpp", "run_broadcast"),
    ("src/sim/network.cpp", "Network::Network"),
    ("src/graph/graph.cpp", "Graph::add_edge"),
    ("src/knowledge/view.cpp", "ViewFunction::set_view"),
    ("src/knowledge/local_knowledge.cpp", "derive_local_knowledge"),
    ("src/instance/instance.cpp", "Instance::Instance"),
]

PHASE_REGISTRY_FILE = "src/obs/phase_names.hpp"
OBS_SCOPE_RE = re.compile(r'RMT_OBS_SCOPE\(\s*"([^"]+)"\s*\)')
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\b")


def strip_line_comments(text):
    """Drop // comments so doc examples don't trip token rules."""
    return "\n".join(line.split("//", 1)[0] for line in text.splitlines())


# --- rules -------------------------------------------------------------------
# Each rule takes (relpath, text) and yields "relpath:line: rule: message".


def check_pragma_once(relpath, text):
    if not relpath.endswith(".hpp"):
        return
    if "#pragma once" not in text:
        yield f"{relpath}:1: pragma-once: header lacks '#pragma once'"


def check_header_namespace(relpath, text):
    if not relpath.endswith(".hpp"):
        return
    for i, line in enumerate(strip_line_comments(text).splitlines(), 1):
        if USING_NAMESPACE_RE.match(line):
            yield f"{relpath}:{i}: header-namespace: 'using namespace' in a header"


def check_banned_tokens(relpath, text):
    if not relpath.startswith("src/"):
        return
    for i, line in enumerate(strip_line_comments(text).splitlines(), 1):
        for pattern, why in BANNED_TOKENS:
            if pattern.search(line):
                yield f"{relpath}:{i}: banned-token: {why}"


THREAD_SPAWN_RE = re.compile(r"std::(?:thread|jthread|async)\b")


def check_thread_spawn(relpath, text):
    # tests/ may spawn raw threads (e.g. to race the pool from outside);
    # everyone else must go through src/exec/.
    if relpath.startswith("src/exec/") or relpath.startswith("tests/"):
        return
    for i, line in enumerate(strip_line_comments(text).splitlines(), 1):
        if THREAD_SPAWN_RE.search(line):
            yield (f"{relpath}:{i}: thread-spawn: raw std::thread/jthread/async "
                   f"outside src/exec/ — use exec::ThreadPool")


RNG_DISCIPLINE_RE = re.compile(
    r"std::(?:mt19937(?:_64)?|minstd_rand0?|random_device|default_random_engine"
    r"|knuth_b|ranlux\w+)\b|\bsrand\s*\(")
RNG_ALLOWED_FILES = {"src/util/rng.hpp"}


def check_rng_discipline(relpath, text):
    # Unlike banned-token this rule covers *every* linted dir: a test or
    # tool seeding its own std::mt19937 (or worse, std::random_device)
    # produces failures that no recorded seed can replay.
    if relpath in RNG_ALLOWED_FILES:
        return
    for i, line in enumerate(strip_line_comments(text).splitlines(), 1):
        if RNG_DISCIPLINE_RE.search(line):
            yield (f"{relpath}:{i}: rng-discipline: raw standard RNG engine/seeding "
                   f"outside src/util/rng.hpp — use rmt::Rng (splitmix64-derived seeds)")


# Free-function calls into the BSD socket / poll layer. The lookbehind
# rejects member access (client.recv(...)), pointers (sock->send(...)),
# qualified names (std::bind(...)) and longer identifiers (resend(...)),
# so only the raw C API trips the rule.
SOCKET_DISCIPLINE_RE = re.compile(
    r"(?<![\w.:>])(?:socket|accept4?|bind|listen|connect|recv|recvfrom|recvmsg"
    r"|send|sendto|sendmsg|poll|ppoll|epoll_[a-z0-9_]+|select|setsockopt"
    r"|getsockopt|getsockname|inet_pton|inet_ntop)\s*\(")


def check_socket_discipline(relpath, text):
    # src/net/ owns every socket: the transport's framing, admission,
    # backpressure, and net.* accounting must be impossible to bypass by
    # opening a raw fd elsewhere (tests and benches drive the server
    # through net::Client for the same reason).
    if relpath.startswith("src/net/"):
        return
    for i, line in enumerate(strip_line_comments(text).splitlines(), 1):
        if SOCKET_DISCIPLINE_RE.search(line):
            yield (f"{relpath}:{i}: socket-discipline: raw socket/poll call "
                   f"outside src/net/ — use net::Server / net::Client")


# Raw POSIX file io. Two tiers: names that are common C++ identifiers
# (open, write, rename — member functions, std::filesystem) trip only in
# their ::-qualified form, which is how every raw call site in this tree
# is spelled; the unmistakably-POSIX names trip bare as well. The
# lookbehind rejects members (file.open), pointers (f->write), qualified
# names (std::rename — the char before :: is a word char, the char before
# the bare name is ':'), and longer identifiers (reopen, pwrite_all).
IO_DISCIPLINE_RE = re.compile(
    r"(?<![\w.:>])(?:"
    r"::\s*(?:open|openat|creat|write|pread|pwrite|fsync|fdatasync"
    r"|ftruncate|rename|unlink|mkdir|rmdir)"
    r"|(?:openat|creat|pread|pwrite|fsync|fdatasync|ftruncate|unlink"
    r"|mkdir|rmdir)"
    r")\s*\(")
RAW_IO_ALLOWED_MARK = "lint:raw-io-allowed"


def check_io_discipline(relpath, text):
    # src/store/ owns every durable byte: the identity header, O_APPEND
    # append discipline, fsync points, and tmp+rename compaction are
    # invariants of one file, not conventions spread across layers. A raw
    # write/rename elsewhere could tear the log in ways scan_bytes was
    # never taught to repair. Grandfathered sites (the crash handler's
    # async-signal-safe dump, the event loop's self-pipe) carry a
    # lint:raw-io-allowed marker on the offending line.
    if relpath.startswith("src/store/"):
        return
    raw_lines = text.splitlines()
    for i, line in enumerate(strip_line_comments(text).splitlines(), 1):
        if IO_DISCIPLINE_RE.search(line):
            if RAW_IO_ALLOWED_MARK in raw_lines[i - 1]:
                continue
            yield (f"{relpath}:{i}: io-discipline: raw POSIX file io outside "
                   f"src/store/ — go through store::Store, or justify the line "
                   f"with '// {RAW_IO_ALLOWED_MARK}: why'")


def function_body(text, name):
    """The brace-balanced body of the first definition of `name`, or None.

    Good enough for the entry registry: finds `name` followed (possibly
    across lines) by an argument list and an opening brace, then matches
    braces textually. The sources are clang-format-clean, which keeps this
    reliable without a real parser.
    """
    # Match e.g. "find_rmt_cut(" or "Network::Network(" at a non-word boundary.
    sig = re.compile(r"(?<![\w:])" + re.escape(name) + r"\s*\(")
    m = sig.search(text)
    if not m:
        return None
    depth = 0
    start = None
    for pos in range(m.end() - 1, len(text)):
        c = text[pos]
        if c == "{":
            if start is None:
                start = pos
            depth += 1
        elif c == "}":
            depth -= 1
            if start is not None and depth == 0:
                return text[start : pos + 1]
        elif c == ";" and start is None:
            return None  # declaration only
    return None


def check_entry_requires(repo, findings):
    for relpath, name in ENTRY_POINTS:
        path = repo / relpath
        if not path.is_file():
            findings.append(f"{relpath}:1: entry-require: registered file is missing")
            continue
        body = function_body(path.read_text(encoding="utf-8"), name)
        if body is None:
            findings.append(
                f"{relpath}:1: entry-require: cannot find a definition of '{name}'")
        elif "RMT_REQUIRE" not in body and "RMT_AUDIT_VALIDATE" not in body:
            findings.append(
                f"{relpath}:1: entry-require: '{name}' has neither RMT_REQUIRE "
                f"nor RMT_AUDIT_VALIDATE")


def parse_phase_registry(text):
    """Names listed between the lint:phase-registry markers, or None."""
    m = re.search(r"lint:phase-registry-begin(.*?)lint:phase-registry-end", text, re.S)
    if not m:
        return None
    return set(re.findall(r'"([^"]+)"', m.group(1)))


def check_phase_registry(repo, sources, findings):
    registry_path = repo / PHASE_REGISTRY_FILE
    if not registry_path.is_file():
        findings.append(f"{PHASE_REGISTRY_FILE}:1: phase-registry: registry file is missing")
        return
    registry = parse_phase_registry(registry_path.read_text(encoding="utf-8"))
    if registry is None:
        findings.append(
            f"{PHASE_REGISTRY_FILE}:1: phase-registry: lint:phase-registry markers not found")
        return
    used = {}  # name -> first "file:line"
    for relpath, text in sources:
        if not relpath.startswith("src/"):
            continue
        for i, line in enumerate(strip_line_comments(text).splitlines(), 1):
            for name in OBS_SCOPE_RE.findall(line):
                used.setdefault(name, f"{relpath}:{i}")
    for name, where in sorted(used.items()):
        if name.startswith("test."):
            findings.append(
                f"{where}: phase-registry: prefix 'test.' is reserved for unit tests, "
                f"not library code ('{name}')")
        elif name not in registry:
            findings.append(
                f"{where}: phase-registry: phase '{name}' is not in {PHASE_REGISTRY_FILE}")
    for name in sorted(registry - set(used)):
        findings.append(
            f"{PHASE_REGISTRY_FILE}:1: phase-registry: registered phase '{name}' "
            f"has no RMT_OBS_SCOPE site left")


SPAN_REGISTRY_FILE = "src/obs/span_names.hpp"
TRACE_SPAN_RE = re.compile(r'RMT_TRACE_SPAN\(\s*"([^"]+)"\s*\)')
TRACE_NAME_RE = re.compile(r'RMT_TRACE_NAME\(\s*"([^"]+)"\s*\)')


def parse_span_registry(text):
    """Names listed between the lint:span-registry markers, or None."""
    m = re.search(r"lint:span-registry-begin(.*?)lint:span-registry-end", text, re.S)
    if not m:
        return None
    return set(re.findall(r'"([^"]+)"', m.group(1)))


def span_findings(span_registry, phase_names, sources):
    """The both-direction span-name check as a pure function (self-tested).

    RMT_TRACE_SPAN is RMT_OBS_SCOPE's sibling, so its names must come from
    the phase registry (the runtime audit enforces the same). RMT_TRACE_NAME
    marks a free-standing span-name literal; it may use a phase name or a
    span-registry name. Every span-registry entry must keep an
    RMT_TRACE_NAME site in src/. `sources` excludes the registry file.
    """
    findings = []
    span_used = {}   # RMT_TRACE_SPAN name -> first "file:line"
    name_used = {}   # RMT_TRACE_NAME name -> first "file:line"
    name_in_src = set()
    for relpath, text in sources:
        if not relpath.startswith("src/"):
            continue
        for i, line in enumerate(strip_line_comments(text).splitlines(), 1):
            for name in TRACE_SPAN_RE.findall(line):
                span_used.setdefault(name, f"{relpath}:{i}")
            for name in TRACE_NAME_RE.findall(line):
                name_used.setdefault(name, f"{relpath}:{i}")
                name_in_src.add(name)
    for name, where in sorted(span_used.items()):
        if name.startswith("test."):
            findings.append(
                f"{where}: span-registry: prefix 'test.' is reserved for unit tests, "
                f"not library code ('{name}')")
        elif name not in phase_names:
            findings.append(
                f"{where}: span-registry: RMT_TRACE_SPAN name '{name}' is not in "
                f"{PHASE_REGISTRY_FILE}")
    for name, where in sorted(name_used.items()):
        if name not in span_registry and name not in phase_names:
            findings.append(
                f"{where}: span-registry: span name '{name}' is in neither "
                f"{SPAN_REGISTRY_FILE} nor {PHASE_REGISTRY_FILE}")
    for name in sorted(span_registry - name_in_src):
        findings.append(
            f"{SPAN_REGISTRY_FILE}:1: span-registry: registered span name "
            f"'{name}' has no RMT_TRACE_NAME site left in src/")
    return findings


def check_span_registry(repo, sources, findings):
    registry_path = repo / SPAN_REGISTRY_FILE
    if not registry_path.is_file():
        findings.append(f"{SPAN_REGISTRY_FILE}:1: span-registry: registry file is missing")
        return
    registry = parse_span_registry(registry_path.read_text(encoding="utf-8"))
    if registry is None:
        findings.append(f"{SPAN_REGISTRY_FILE}:1: span-registry: "
                        f"lint:span-registry markers not found")
        return
    phase_path = repo / PHASE_REGISTRY_FILE
    phase_names = set()
    if phase_path.is_file():
        phase_names = parse_phase_registry(phase_path.read_text(encoding="utf-8")) or set()
    scanned = [(relpath, text) for relpath, text in sources
               if relpath != SPAN_REGISTRY_FILE]
    findings.extend(span_findings(registry, phase_names, scanned))


SVC_METRIC_REGISTRY_FILE = "src/svc/metric_names.hpp"
SVC_METRIC_LITERAL_RE = re.compile(r'"((?:svc|cache)\.[A-Za-z0-9_.]+)"')


def parse_svc_metric_registry(text):
    """Names listed between the lint:svc-metric-registry markers, or None."""
    m = re.search(r"lint:svc-metric-registry-begin(.*?)lint:svc-metric-registry-end",
                  text, re.S)
    if not m:
        return None
    return set(re.findall(r'"([^"]+)"', m.group(1)))


def svc_metric_findings(registry, phase_names, sources):
    """The both-direction registry check as a pure function (self-tested).

    `sources` excludes the registry file itself; `phase_names` (phase and
    span names alike) are exempt — the phase/span registry rules own them.
    """
    findings = []
    used = {}  # name -> first "file:line"
    used_in_src = set()
    for relpath, text in sources:
        for i, line in enumerate(strip_line_comments(text).splitlines(), 1):
            for name in SVC_METRIC_LITERAL_RE.findall(line):
                used.setdefault(name, f"{relpath}:{i}")
                if relpath.startswith("src/"):
                    used_in_src.add(name)
    for name, where in sorted(used.items()):
        if name in phase_names:
            continue
        if name not in registry:
            findings.append(
                f"{where}: svc-metric-registry: metric '{name}' is not in "
                f"{SVC_METRIC_REGISTRY_FILE}")
    for name in sorted(registry - used_in_src):
        findings.append(
            f"{SVC_METRIC_REGISTRY_FILE}:1: svc-metric-registry: registered metric "
            f"'{name}' has no instrumentation site left in src/")
    return findings


def check_svc_metric_registry(repo, sources, findings):
    registry_path = repo / SVC_METRIC_REGISTRY_FILE
    if not registry_path.is_file():
        findings.append(
            f"{SVC_METRIC_REGISTRY_FILE}:1: svc-metric-registry: registry file is missing")
        return
    registry = parse_svc_metric_registry(registry_path.read_text(encoding="utf-8"))
    if registry is None:
        findings.append(f"{SVC_METRIC_REGISTRY_FILE}:1: svc-metric-registry: "
                        f"lint:svc-metric-registry markers not found")
        return
    phase_path = repo / PHASE_REGISTRY_FILE
    phase_names = set()
    if phase_path.is_file():
        phase_names = parse_phase_registry(phase_path.read_text(encoding="utf-8")) or set()
    span_path = repo / SPAN_REGISTRY_FILE
    if span_path.is_file():
        phase_names |= parse_span_registry(span_path.read_text(encoding="utf-8")) or set()
    scanned = [(relpath, text) for relpath, text in sources
               if relpath not in (SVC_METRIC_REGISTRY_FILE, SPAN_REGISTRY_FILE)]
    findings.extend(svc_metric_findings(registry, phase_names, scanned))


NET_METRIC_REGISTRY_FILE = "src/net/metric_names.hpp"
NET_METRIC_LITERAL_RE = re.compile(r'"(net\.[A-Za-z0-9_.]+)"')


def parse_net_metric_registry(text):
    """Names listed between the lint:net-metric-registry markers, or None."""
    m = re.search(r"lint:net-metric-registry-begin(.*?)lint:net-metric-registry-end",
                  text, re.S)
    if not m:
        return None
    return set(re.findall(r'"([^"]+)"', m.group(1)))


def net_metric_findings(registry, span_names, sources):
    """The both-direction net-metric check as a pure function (self-tested).

    `sources` excludes the registry file itself; `span_names` (the span and
    phase vocabularies) are exempt — "net.conn" / "net.read" / "net.write"
    are trace spans owned by the span-registry rule, not metrics.
    """
    findings = []
    used = {}  # name -> first "file:line"
    used_in_src = set()
    for relpath, text in sources:
        for i, line in enumerate(strip_line_comments(text).splitlines(), 1):
            for name in NET_METRIC_LITERAL_RE.findall(line):
                used.setdefault(name, f"{relpath}:{i}")
                if relpath.startswith("src/"):
                    used_in_src.add(name)
    for name, where in sorted(used.items()):
        if name in span_names:
            continue
        if name not in registry:
            findings.append(
                f"{where}: net-metric-registry: metric '{name}' is not in "
                f"{NET_METRIC_REGISTRY_FILE}")
    for name in sorted(registry - used_in_src):
        findings.append(
            f"{NET_METRIC_REGISTRY_FILE}:1: net-metric-registry: registered metric "
            f"'{name}' has no instrumentation site left in src/")
    return findings


def check_net_metric_registry(repo, sources, findings):
    registry_path = repo / NET_METRIC_REGISTRY_FILE
    if not registry_path.is_file():
        findings.append(
            f"{NET_METRIC_REGISTRY_FILE}:1: net-metric-registry: registry file is missing")
        return
    registry = parse_net_metric_registry(registry_path.read_text(encoding="utf-8"))
    if registry is None:
        findings.append(f"{NET_METRIC_REGISTRY_FILE}:1: net-metric-registry: "
                        f"lint:net-metric-registry markers not found")
        return
    span_names = set()
    phase_path = repo / PHASE_REGISTRY_FILE
    if phase_path.is_file():
        span_names |= parse_phase_registry(phase_path.read_text(encoding="utf-8")) or set()
    span_path = repo / SPAN_REGISTRY_FILE
    if span_path.is_file():
        span_names |= parse_span_registry(span_path.read_text(encoding="utf-8")) or set()
    scanned = [(relpath, text) for relpath, text in sources
               if relpath not in (NET_METRIC_REGISTRY_FILE, SPAN_REGISTRY_FILE)]
    findings.extend(net_metric_findings(registry, span_names, scanned))


STORE_METRIC_REGISTRY_FILE = "src/store/metric_names.hpp"
STORE_METRIC_LITERAL_RE = re.compile(r'"(store\.[A-Za-z0-9_.]+)"')


def parse_store_metric_registry(text):
    """Names listed between the lint:store-metric-registry markers, or None."""
    m = re.search(r"lint:store-metric-registry-begin(.*?)lint:store-metric-registry-end",
                  text, re.S)
    if not m:
        return None
    return set(re.findall(r'"([^"]+)"', m.group(1)))


def store_metric_findings(registry, phase_names, sources):
    """The both-direction store-metric check as a pure function (self-tested).

    `sources` excludes the registry file itself; `phase_names` (the phase
    and span vocabularies) are exempt — "store.load" / "store.append" /
    "store.compact" are RMT_OBS_SCOPE phases owned by the phase-registry
    rule, not metrics.
    """
    findings = []
    used = {}  # name -> first "file:line"
    used_in_src = set()
    for relpath, text in sources:
        for i, line in enumerate(strip_line_comments(text).splitlines(), 1):
            for name in STORE_METRIC_LITERAL_RE.findall(line):
                used.setdefault(name, f"{relpath}:{i}")
                if relpath.startswith("src/"):
                    used_in_src.add(name)
    for name, where in sorted(used.items()):
        if name in phase_names:
            continue
        if name not in registry:
            findings.append(
                f"{where}: store-metric-registry: metric '{name}' is not in "
                f"{STORE_METRIC_REGISTRY_FILE}")
    for name in sorted(registry - used_in_src):
        findings.append(
            f"{STORE_METRIC_REGISTRY_FILE}:1: store-metric-registry: registered metric "
            f"'{name}' has no instrumentation site left in src/")
    return findings


def check_store_metric_registry(repo, sources, findings):
    registry_path = repo / STORE_METRIC_REGISTRY_FILE
    if not registry_path.is_file():
        findings.append(
            f"{STORE_METRIC_REGISTRY_FILE}:1: store-metric-registry: registry file is missing")
        return
    registry = parse_store_metric_registry(registry_path.read_text(encoding="utf-8"))
    if registry is None:
        findings.append(f"{STORE_METRIC_REGISTRY_FILE}:1: store-metric-registry: "
                        f"lint:store-metric-registry markers not found")
        return
    phase_names = set()
    phase_path = repo / PHASE_REGISTRY_FILE
    if phase_path.is_file():
        phase_names |= parse_phase_registry(phase_path.read_text(encoding="utf-8")) or set()
    span_path = repo / SPAN_REGISTRY_FILE
    if span_path.is_file():
        phase_names |= parse_span_registry(span_path.read_text(encoding="utf-8")) or set()
    scanned = [(relpath, text) for relpath, text in sources
               if relpath not in (STORE_METRIC_REGISTRY_FILE, SPAN_REGISTRY_FILE)]
    findings.extend(store_metric_findings(registry, phase_names, scanned))


# --- driver ------------------------------------------------------------------

LINT_DIRS = ["src", "bench", "tests", "tools", "examples"]
PER_FILE_RULES = [check_pragma_once, check_header_namespace, check_banned_tokens,
                  check_thread_spawn, check_rng_discipline, check_socket_discipline,
                  check_io_discipline]


def gather_sources(repo):
    out = []
    for d in LINT_DIRS:
        root = repo / d
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix in (".hpp", ".cpp"):
                relpath = path.relative_to(repo).as_posix()
                out.append((relpath, path.read_text(encoding="utf-8")))
    return out


def lint_repo(repo):
    findings = []
    sources = gather_sources(repo)
    for relpath, text in sources:
        for rule in PER_FILE_RULES:
            findings.extend(rule(relpath, text))
    check_entry_requires(repo, findings)
    check_phase_registry(repo, sources, findings)
    check_span_registry(repo, sources, findings)
    check_svc_metric_registry(repo, sources, findings)
    check_net_metric_registry(repo, sources, findings)
    check_store_metric_registry(repo, sources, findings)
    return findings


# --- self-test ---------------------------------------------------------------

SELFTEST_CASES = [
    # (rule, relpath, text, expect_finding)
    (check_pragma_once, "src/x.hpp", "#pragma once\nint x;\n", False),
    (check_pragma_once, "src/x.hpp", "int x;\n", True),
    (check_pragma_once, "src/x.cpp", "int x;\n", False),
    (check_header_namespace, "src/x.hpp", "using namespace std;\n", True),
    (check_header_namespace, "src/x.hpp", "// using namespace std; (docs)\n", False),
    (check_header_namespace, "src/x.cpp", "using namespace rmt;\n", False),
    (check_banned_tokens, "src/x.cpp", "int r = rand();\n", True),
    (check_banned_tokens, "src/x.cpp", "int operand(int);\n", False),
    (check_banned_tokens, "src/x.cpp", "assert(x);\n", True),
    (check_banned_tokens, "src/x.cpp", "static_assert(sizeof(int) == 4);\n", False),
    (check_banned_tokens, "src/x.cpp", "std::cout << x;\n", True),
    (check_banned_tokens, "tools/x.cpp", "std::cout << x;\n", False),
    (check_thread_spawn, "src/sim/x.cpp", "std::thread t(f);\n", True),
    (check_thread_spawn, "bench/x.cpp", "auto f = std::async(g);\n", True),
    (check_thread_spawn, "src/exec/thread_pool.cpp", "std::thread t(f);\n", False),
    (check_thread_spawn, "tests/test_x.cpp", "std::jthread t(f);\n", False),
    (check_thread_spawn, "src/sim/x.cpp", "// std::thread (see exec)\n", False),
    (check_rng_discipline, "src/sim/x.cpp", "std::mt19937 gen(seed);\n", True),
    (check_rng_discipline, "tests/test_x.cpp", "std::mt19937_64 gen(7);\n", True),
    (check_rng_discipline, "tools/x.cpp", "std::random_device rd;\n", True),
    (check_rng_discipline, "bench/x.cpp", "srand(42);\n", True),
    (check_rng_discipline, "src/x.cpp", "std::default_random_engine e;\n", True),
    (check_rng_discipline, "src/util/rng.hpp", "std::mt19937_64 engine_;\n", False),
    (check_rng_discipline, "tests/test_x.cpp", "Rng rng(7);\n", False),
    (check_rng_discipline, "src/x.cpp", "// std::mt19937 would break repro\n", False),
    (check_socket_discipline, "src/svc/x.cpp", "int fd = socket(AF_INET, 0, 0);\n", True),
    (check_socket_discipline, "tests/test_x.cpp", "recv(fd, buf, n, 0);\n", True),
    (check_socket_discipline, "bench/x.cpp", "poll(fds, n, -1);\n", True),
    (check_socket_discipline, "tools/x.cpp", "epoll_wait(ep, evs, 64, -1);\n", True),
    (check_socket_discipline, "src/net/server.cpp", "int fd = socket(AF_INET, 0, 0);\n",
     False),
    # Member calls, qualified names, and longer identifiers are not the
    # raw C API: net::Client wraps them legitimately.
    (check_socket_discipline, "tests/test_x.cpp", "client.connect(port);\n", False),
    (check_socket_discipline, "bench/x.cpp", "client.send_line(line);\n", False),
    (check_socket_discipline, "src/x.cpp", "auto f = std::bind(g, 1);\n", False),
    (check_socket_discipline, "src/x.cpp", "resend(frame);\n", False),
    (check_socket_discipline, "src/x.cpp", "// raw send( is banned here\n", False),
    (check_io_discipline, "src/svc/engine.cpp",
     "const int fd = ::open(path.c_str(), O_RDONLY);\n", True),
    (check_io_discipline, "src/obs/trace.cpp", "::write(fd, buf, n);\n", True),
    (check_io_discipline, "tests/test_x.cpp", "fsync(fd);\n", True),
    (check_io_discipline, "bench/x.cpp", "::rename(tmp, path);\n", True),
    (check_io_discipline, "tools/x.cpp", "unlink(tmp.c_str());\n", True),
    (check_io_discipline, "src/svc/engine.cpp", "mkdir(dir, 0755);\n", True),
    (check_io_discipline, "src/store/store.cpp",
     "const int fd = ::open(path.c_str(), O_RDONLY);\n", False),
    # A lint:raw-io-allowed marker on the line grandfathers it.
    (check_io_discipline, "src/obs/trace.cpp",
     "::write(fd, buf, n);  // lint:raw-io-allowed: crash handler\n", False),
    # Member functions, std::filesystem, and longer identifiers are not
    # the raw POSIX API; common names trip only when ::-qualified.
    (check_io_discipline, "src/svc/engine.cpp", "file.open(path);\n", False),
    (check_io_discipline, "src/obs/x.hpp", "void write(const std::string&);\n",
     False),
    (check_io_discipline, "bench/x.cpp",
     "std::filesystem::rename(tmp, path);\n", False),
    (check_io_discipline, "src/x.cpp", "reopen(log);\n", False),
    (check_io_discipline, "src/x.cpp", "pwrite_all(fd, buf);\n", False),
    (check_io_discipline, "src/x.cpp", "// raw ::write( is banned here\n", False),
]

# (span_registry, phase_names, sources, expect_finding) for span_findings.
SPAN_CASES = [
    # A phase-registry RMT_TRACE_SPAN plus a registered RMT_TRACE_NAME,
    # each with a live src/ site: clean in both directions.
    ({"exec.task"}, {"rmt_cut.find"},
     [("src/analysis/rmt_cut.cpp", 'RMT_TRACE_SPAN("rmt_cut.find");\n'),
      ("src/exec/thread_pool.cpp", 'Span s(RMT_TRACE_NAME("exec.task"));\n')], False),
    # An RMT_TRACE_SPAN name outside the phase registry is a finding even
    # if it sits in the span registry — the macro is phase-backed.
    ({"exec.task", "svc.rogue"}, {"rmt_cut.find"},
     [("src/svc/engine.cpp", 'RMT_TRACE_SPAN("svc.rogue");\n'),
      ("src/exec/thread_pool.cpp", 'Span s(RMT_TRACE_NAME("exec.task"));\n'),
      ("src/svc/engine.cpp", 'rec.set_name(RMT_TRACE_NAME("svc.rogue"));\n')], True),
    # An RMT_TRACE_NAME literal in neither registry is a finding.
    ({"exec.task"}, set(),
     [("src/exec/thread_pool.cpp", 'Span s(RMT_TRACE_NAME("exec.task"));\n'),
      ("src/svc/engine.cpp", 'rec.set_name(RMT_TRACE_NAME("svc.rogue"));\n')], True),
    # A registered span name with no src/ RMT_TRACE_NAME site left is a
    # finding — a use in tests/ alone does not keep it alive.
    ({"exec.task", "svc.join"}, set(),
     [("src/exec/thread_pool.cpp", 'Span s(RMT_TRACE_NAME("exec.task"));\n'),
      ("tests/test_x.cpp", 'rec.set_name(RMT_TRACE_NAME("svc.join"));\n')], True),
    # "test." is reserved for unit tests, not library RMT_TRACE_SPAN sites.
    ({"exec.task"}, {"test.phase"},
     [("src/exec/thread_pool.cpp", 'Span s(RMT_TRACE_NAME("exec.task"));\n'),
      ("src/svc/engine.cpp", 'RMT_TRACE_SPAN("test.phase");\n')], True),
    # Mentions inside // comments do not count as uses.
    ({"exec.task"}, set(),
     [("src/exec/thread_pool.cpp",
       'Span s(RMT_TRACE_NAME("exec.task"));  // not RMT_TRACE_NAME("x.y")\n')], False),
]

# (registry, phase_names, sources, expect_finding) for svc_metric_findings.
SVC_METRIC_CASES = [
    # A registered metric used in src/: clean in both directions.
    ({"svc.requests"}, set(),
     [("src/svc/engine.cpp", 'reg.counter("svc.requests");\n')], False),
    # An unregistered metric literal anywhere is a finding.
    ({"svc.requests"}, set(),
     [("src/svc/engine.cpp", 'reg.counter("svc.requests");\n'),
      ("src/svc/engine.cpp", 'reg.counter("svc.rogue");\n')], True),
    ({"svc.requests"}, set(),
     [("src/svc/engine.cpp", 'reg.counter("svc.requests");\n'),
      ("tests/test_x.cpp", 'reg.counter("cache.rogue");\n')], True),
    # A registered metric with no src/ site left is a finding — a use in
    # tests/ alone does not keep it alive.
    ({"svc.requests", "svc.stale"}, set(),
     [("src/svc/engine.cpp", 'reg.counter("svc.requests");\n'),
      ("tests/test_x.cpp", 'reg.counter("svc.stale");\n')], True),
    # Phase names are the phase registry's business, not a metric finding.
    ({"svc.requests"}, {"svc.batch"},
     [("src/svc/engine.cpp", 'reg.counter("svc.requests");\n'),
      ("src/svc/engine.cpp", 'RMT_OBS_SCOPE("svc.batch");\n')], False),
    # Mentions inside // comments do not count as uses.
    ({"svc.requests"}, set(),
     [("src/svc/engine.cpp",
       'reg.counter("svc.requests");  // not "svc.phantom"\n')], False),
]

# (registry, span_names, sources, expect_finding) for net_metric_findings.
NET_METRIC_CASES = [
    # A registered metric used in src/: clean in both directions.
    ({"net.accepts"}, set(),
     [("src/net/server.cpp", 'reg.counter("net.accepts");\n')], False),
    # An unregistered metric literal anywhere is a finding.
    ({"net.accepts"}, set(),
     [("src/net/server.cpp", 'reg.counter("net.accepts");\n'),
      ("src/net/server.cpp", 'reg.counter("net.rogue");\n')], True),
    ({"net.accepts"}, set(),
     [("src/net/server.cpp", 'reg.counter("net.accepts");\n'),
      ("tests/test_x.cpp", 'EXPECT_TRUE(has("net.rogue"));\n')], True),
    # A registered metric with no src/ site left is a finding — a use in
    # tests/ alone does not keep it alive.
    ({"net.accepts", "net.stale"}, set(),
     [("src/net/server.cpp", 'reg.counter("net.accepts");\n'),
      ("tests/test_x.cpp", 'reg.counter("net.stale");\n')], True),
    # Span names are the span registry's business, not a metric finding.
    ({"net.accepts"}, {"net.conn", "net.read", "net.write"},
     [("src/net/server.cpp", 'reg.counter("net.accepts");\n'),
      ("src/net/server.cpp", 'rec.set_name(RMT_TRACE_NAME("net.write"));\n')], False),
    # Mentions inside // comments do not count as uses.
    ({"net.accepts"}, set(),
     [("src/net/server.cpp",
       'reg.counter("net.accepts");  // not "net.phantom"\n')], False),
]


# (registry, phase_names, sources, expect_finding) for store_metric_findings.
STORE_METRIC_CASES = [
    # A registered metric used in src/: clean in both directions.
    ({"store.hits"}, set(),
     [("src/store/store.cpp", 'reg.counter("store.hits");\n')], False),
    # An unregistered metric literal anywhere is a finding.
    ({"store.hits"}, set(),
     [("src/store/store.cpp", 'reg.counter("store.hits");\n'),
      ("src/store/store.cpp", 'reg.counter("store.rogue");\n')], True),
    ({"store.hits"}, set(),
     [("src/store/store.cpp", 'reg.counter("store.hits");\n'),
      ("tests/test_store.cpp", 'EXPECT_TRUE(has("store.rogue"));\n')], True),
    # A registered metric with no src/ site left is a finding — a use in
    # tests/ alone does not keep it alive.
    ({"store.hits", "store.stale"}, set(),
     [("src/store/store.cpp", 'reg.counter("store.hits");\n'),
      ("tests/test_store.cpp", 'reg.counter("store.stale");\n')], True),
    # Phase names are the phase registry's business, not a metric finding.
    ({"store.hits"}, {"store.load", "store.append", "store.compact"},
     [("src/store/store.cpp", 'reg.counter("store.hits");\n'),
      ("src/store/store.cpp", 'RMT_OBS_SCOPE("store.append");\n')], False),
    # Mentions inside // comments do not count as uses.
    ({"store.hits"}, set(),
     [("src/store/store.cpp",
       'reg.counter("store.hits");  // not "store.phantom"\n')], False),
]


def self_test():
    failures = []
    for i, (rule, relpath, text, expect) in enumerate(SELFTEST_CASES):
        got = bool(list(rule(relpath, text)))
        if got != expect:
            failures.append(f"case {i} ({rule.__name__}): expected "
                            f"{'a finding' if expect else 'clean'}, got the opposite")
    body = function_body("int f() { return 0; }\nvoid g(int a) { RMT_REQUIRE(a, \"\"); }", "g")
    if body is None or "RMT_REQUIRE" not in body:
        failures.append("function_body: failed to extract g's body")
    if function_body("void h(int);", "h") is not None:
        failures.append("function_body: declaration misread as definition")
    registry = parse_phase_registry(
        '// lint:phase-registry-begin\n"a.b",\n"c.d",\n// lint:phase-registry-end\n')
    if registry != {"a.b", "c.d"}:
        failures.append(f"parse_phase_registry: got {registry!r}")

    span_registry = parse_span_registry(
        '// lint:span-registry-begin\n"exec.task",\n"svc.join",\n'
        '// lint:span-registry-end\n')
    if span_registry != {"exec.task", "svc.join"}:
        failures.append(f"parse_span_registry: got {span_registry!r}")
    for case, (reg, phases, sources, expect) in enumerate(SPAN_CASES):
        got = bool(span_findings(reg, phases, sources))
        if got != expect:
            failures.append(f"span case {case}: expected "
                            f"{'a finding' if expect else 'clean'}, got the opposite")

    svc_registry = parse_svc_metric_registry(
        '// lint:svc-metric-registry-begin\n"svc.requests",\n"svc.cache.hits",\n'
        '// lint:svc-metric-registry-end\n')
    if svc_registry != {"svc.requests", "svc.cache.hits"}:
        failures.append(f"parse_svc_metric_registry: got {svc_registry!r}")
    for case, (reg, phases, sources, expect) in enumerate(SVC_METRIC_CASES):
        got = bool(svc_metric_findings(reg, phases, sources))
        if got != expect:
            failures.append(f"svc-metric case {case}: expected "
                            f"{'a finding' if expect else 'clean'}, got the opposite")

    net_registry = parse_net_metric_registry(
        '// lint:net-metric-registry-begin\n"net.accepts",\n"net.shed",\n'
        '// lint:net-metric-registry-end\n')
    if net_registry != {"net.accepts", "net.shed"}:
        failures.append(f"parse_net_metric_registry: got {net_registry!r}")
    for case, (reg, spans, sources, expect) in enumerate(NET_METRIC_CASES):
        got = bool(net_metric_findings(reg, spans, sources))
        if got != expect:
            failures.append(f"net-metric case {case}: expected "
                            f"{'a finding' if expect else 'clean'}, got the opposite")

    store_registry = parse_store_metric_registry(
        '// lint:store-metric-registry-begin\n"store.hits",\n"store.appends",\n'
        '// lint:store-metric-registry-end\n')
    if store_registry != {"store.hits", "store.appends"}:
        failures.append(f"parse_store_metric_registry: got {store_registry!r}")
    for case, (reg, phases, sources, expect) in enumerate(STORE_METRIC_CASES):
        got = bool(store_metric_findings(reg, phases, sources))
        if got != expect:
            failures.append(f"store-metric case {case}: expected "
                            f"{'a finding' if expect else 'clean'}, got the opposite")
    for f in failures:
        print(f"self-test: {f}", file=sys.stderr)
    total = len(SELFTEST_CASES) + len(SPAN_CASES) + len(SVC_METRIC_CASES) \
        + len(NET_METRIC_CASES) + len(STORE_METRIC_CASES) + 7
    print(f"self-test: {total} checks, {len(failures)} failures")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repo", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root to lint")
    parser.add_argument("--self-test", action="store_true",
                        help="check the rules against embedded fixtures and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    findings = lint_repo(args.repo)
    for finding in findings:
        print(finding, file=sys.stderr)
    print(f"rmt_lint: {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
