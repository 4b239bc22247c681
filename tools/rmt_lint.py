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
  socket-discipline raw BSD socket / poll / epoll calls (socket, accept,
                    bind, listen, connect, recv, send, setsockopt, ...)
                    only inside src/net/ — every other layer, tests and
                    benches included, talks through net::Server /
                    net::Client so framing, backpressure, and the net.*
                    counters cannot be bypassed (member calls like
                    client.connect(...) are fine; it is the free functions
                    that are fenced)
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
  name-registry     src/obs/names.hpp is the one closed vocabulary of
                    phase, span and metric names: every "svc.*" /
                    "cache.*" / "net.*" / "store.*" string literal in C++
                    sources is registered, every entry keeps a site of its
                    own kind in src/ (an RMT_PHASE for a phase, an
                    RMT_TRACE_NAME for a span, a literal for a metric; uses
                    in tests/ do not count), and src/ uses no "test."
                    phase. That an RMT_PHASE / RMT_TRACE_NAME literal is
                    registered under its kind is the compiler's check.

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


NAMES_FILE = "src/obs/names.hpp"
NAME_ENTRY_RE = re.compile(r'\{\s*"([^"]+)"\s*,\s*NameKind::(\w+)\s*\}')
# What marks a site of each kind in a source line. The metric pattern is
# also the set of literals that must be registered.
SITE_RES = {
    "phase": re.compile(r'RMT_PHASE\(\s*"([^"]+)"\s*\)'),
    "span": re.compile(r'RMT_TRACE_NAME\(\s*"([^"]+)"\s*\)'),
    "metric": re.compile(r'"((?:svc|cache|net|store)\.[A-Za-z0-9_.]+)"'),
}


def parse_names(text):
    """name -> kind for the entries between the lint:names markers, or None."""
    m = re.search(r"lint:names-begin(.*?)lint:names-end", text, re.S)
    if not m:
        return None
    return dict(NAME_ENTRY_RE.findall(m.group(1)))


def name_findings(names, sources):
    """The name-registry check as a pure function (self-tested).

    `names` maps each registered name to its kind; `sources` excludes the
    registry file itself.
    """
    findings = []
    sites = set()  # (name, kind) with a site in src/
    for relpath, text in sources:
        for i, line in enumerate(strip_line_comments(text).splitlines(), 1):
            found = {kind: rx.findall(line) for kind, rx in SITE_RES.items()}
            for name in found["metric"]:
                if name not in names:
                    findings.append(
                        f"{relpath}:{i}: name-registry: '{name}' is not in {NAMES_FILE}")
            if not relpath.startswith("src/"):
                continue
            sites |= {(name, kind) for kind, found_names in found.items()
                      for name in found_names}
            for name in found["phase"]:
                if name.startswith("test."):
                    findings.append(
                        f"{relpath}:{i}: name-registry: prefix 'test.' is reserved for "
                        f"unit tests, not library code ('{name}')")
    for name, kind in sorted(names.items()):
        if (name, kind) not in sites:
            findings.append(f"{NAMES_FILE}:1: name-registry: registered {kind} '{name}' "
                            f"has no site left in src/")
    return findings


def check_name_registry(repo, sources, findings):
    path = repo / NAMES_FILE
    names = parse_names(path.read_text(encoding="utf-8")) if path.is_file() else None
    if names is None:
        findings.append(f"{NAMES_FILE}:1: name-registry: file or lint:names markers missing")
        return
    findings.extend(name_findings(names, [s for s in sources if s[0] != NAMES_FILE]))


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
    check_name_registry(repo, sources, findings)
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

# (names, sources, expect_finding) for name_findings.
NAME_CASES = [
    # A phase and a span, each with a live src/ site: clean.
    ({"rmt_cut.find": "phase", "svc.join": "span"},
     [("src/analysis/rmt_cut.cpp", 'RMT_PHASE("rmt_cut.find");\n'),
      ("src/svc/engine.cpp", 'rec.set_name(RMT_TRACE_NAME("svc.join"));\n')], False),
    # An entry whose only site is in tests/ is dead: a span, a phase.
    ({"svc.join": "span"},
     [("tests/test_x.cpp", 'rec.set_name(RMT_TRACE_NAME("svc.join"));\n')], True),
    ({"svc.batch": "phase", "svc.compute": "phase"},
     [("src/svc/engine.cpp", 'RMT_PHASE("svc.batch");\n'),
      ("tests/test_x.cpp", 'RMT_PHASE("svc.compute");\n')], True),
    # "test." is reserved for unit tests, not library phases.
    ({"svc.batch": "phase"},
     [("src/svc/engine.cpp", 'RMT_PHASE("svc.batch");\nRMT_PHASE("test.phase");\n')], True),
    # A site inside a // comment keeps no entry alive.
    ({"svc.join": "span"},
     [("src/svc/engine.cpp", '// rec.set_name(RMT_TRACE_NAME("svc.join"));\n')], True),
]


def metric_cases(metric, test_rogue, other, other_kind, other_site):
    """The six metric cases for one serving prefix: a live metric is clean;
    an unregistered literal in src/ or in tests/ is a finding; a metric
    used only in tests/ is dead; a phase or span site is no metric finding;
    a mention inside a // comment is not a use."""
    prefix = metric.split(".")[0]
    use = f'reg.counter("{metric}");'
    return [
        ({metric: "metric"}, [("src/x.cpp", use)], False),
        ({metric: "metric"}, [("src/x.cpp", use + f'reg.counter("{prefix}.rogue");')], True),
        ({metric: "metric"}, [("src/x.cpp", use), ("tests/test_x.cpp", f'has("{test_rogue}");')],
         True),
        ({metric: "metric", f"{prefix}.stale": "metric"},
         [("src/x.cpp", use), ("tests/test_x.cpp", f'reg.counter("{prefix}.stale");')], True),
        ({metric: "metric", other: other_kind}, [("src/x.cpp", use + other_site)], False),
        ({metric: "metric"}, [("src/x.cpp", use + f'  // not "{prefix}.phantom"')], False),
    ]


NAME_CASES += (
    metric_cases("svc.requests", "cache.rogue", "svc.batch", "phase", 'RMT_PHASE("svc.batch");')
    + metric_cases("net.accepts", "net.rogue", "net.write", "span",
                   'rec.set_name(RMT_TRACE_NAME("net.write"));')
    + metric_cases("store.hits", "store.rogue", "store.append", "phase",
                   'RMT_PHASE("store.append");'))


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
    names = parse_names('// lint:names-begin\n{"a.b", NameKind::phase},\n'
                        '{"c.d", NameKind::metric},\n// lint:names-end\n')
    if names != {"a.b": "phase", "c.d": "metric"}:
        failures.append(f"parse_names: got {names!r}")
    for case, (names, sources, expect) in enumerate(NAME_CASES):
        if bool(name_findings(names, sources)) != expect:
            failures.append(f"name case {case}: expected "
                            f"{'a finding' if expect else 'clean'}, got the opposite")
    for f in failures:
        print(f"self-test: {f}", file=sys.stderr)
    total = len(SELFTEST_CASES) + len(NAME_CASES) + 3
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
