#!/usr/bin/env python3
"""softcell-verify Part B: project-specific lint rules for the SoftCell tree.

Ten rules encode invariants the type system cannot see (DESIGN.md
section 12, "Static guarantees"):

  epoch-bump        Tag-class mutations in the dataplane switch table
                    (cls.by_prefix inserts/erases, cls.def writes) must be
                    paired with a note_tag() structural-epoch bump within a
                    few lines -- the Algorithm-1 fast path memoizes resolve
                    summaries keyed by that epoch, so a silent mutation
                    poisons the memo (stale scores, wrong tag choices).
                    Location-tier mutations (tier.by_prefix) carry no tag
                    and are exempt.

  naked-mutex       No std:: synchronization primitives outside
                    src/util/annotations.hpp.  Locks must go through the
                    sc:: capability-annotated wrappers so the Clang
                    -Wthread-safety build sees every acquisition.

  hotpath-blocking  Inside `// sc-lint: hotpath(name)` ...
                    `// sc-lint: endhotpath(name)` regions: no mutexes or
                    lock guards (sc:: or std::), no sleeps, no node-based
                    std::unordered_* declarations.  These regions are the
                    per-install scoring loops and the SPSC ring; a blocking
                    call there stalls every request on the shard.

  naked-rand        All randomness flows through util/rng.hpp (the
                    deterministic splitmix64 Rng).  rand(), srand(),
                    std::random_device and std::mt19937 anywhere else break
                    seed-replay determinism (the chaos harness's shrinking
                    and CI repro depend on it).

  iostream-write    Library code under src/ never writes to
                    stdout/stderr: harness and runtime results are returned
                    as values (RunReport, ostringstream), and worker
                    threads writing to iostreams interleave output and take
                    the global stream locks on the request path.

  metrics-direct    Perf-counter structs (AggPerf, FaultStats) may only be
                    mutated inside their owning file, marked with
                    `// sc-lint: metrics-owner(Struct)`.  Everyone else
                    reads them through accessors or the telemetry registry
                    (telemetry/registry.hpp collectors); a stray increment
                    elsewhere silently splits a metric across two homes and
                    the registry snapshot stops being the source of truth.

  controller-construct
                    Controller instances are owned by the composition roots
                    in src/sim/ (SoftCellNetwork) and src/cluster/
                    (ControllerFleet's replicas), plus the ShardBrain's one
                    core, which the CoreCommitter holds as a member (not a
                    construction spelling this rule matches); constructing
                    one anywhere else (stack, new, make_unique/make_shared)
                    bypasses the fleet's partition-ownership leases -- two
                    Controllers over the same topology silently double-own
                    every UE.  References, pointers and the Controller-
                    prefixed types (ControllerOptions, ControllerFleet)
                    stay free.

  cross-shard-direct
                    Core switch-table rows are mutated (engine install /
                    install_ue_shortcut / remove) only inside the file that
                    owns the commit stage, marked with
                    `// sc-lint: commit-owner(...)`.  Since the shard-brain
                    split (DESIGN.md section 16), every cross-shard install
                    is serialized under the CoreCommitter's stage mutex;
                    a direct engine mutation elsewhere slips rows
                    past that total order, so the installed-path tag
                    maps and the state fingerprint silently diverge
                    from the table.  Reads (lookup, stats, classifiers)
                    stay free.

  node-map-hotpath  Per-UE / per-flow resident state (maps keyed by UeId,
                    LocalUeId, FlowKey or PublicEndpoint) in the hot
                    directories (agent/, ctrl/, dataplane/, packet/) must
                    live in the slab layout (Slab/SlabMap/FlatMap), not in
                    node-based std::unordered_map / std::map -- at a
                    million resident UEs the per-node allocation overhead
                    dominates the footprint (DESIGN.md section 15).  A file
                    that must keep such a node map carries a file-wide
                    `// sc-lint: slab-owner(...)` marker saying why.

  raw-socket        Socket and epoll syscalls (::socket, ::send, ::recv,
                    ::epoll_*, ...) and their system headers live only
                    under src/net/ -- the one transport layer whose
                    partial-read / short-write / backpressure handling is
                    tested over real loopback sockets (DESIGN.md
                    section 18).  A stray syscall elsewhere bypasses the
                    EventLoop's fd-token lifecycle and the NetStats
                    accounting, and its error paths are never exercised.

Usage:
  python3 tools/softcell_lint.py [--root DIR] [--report FILE]
                                 [--suppressions FILE] [--list-rules]
                                 [paths...]

Paths default to src/ under --root (default: repo root, parent of tools/).
Suppressions live in tools/lint_suppressions.txt, one per line:

  <rule> <path>:<line> <justification -- mandatory>

Exit status: 0 = clean (all findings suppressed or none), 1 = findings,
2 = bad invocation or malformed suppression file.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

# --- comment / string stripping ---------------------------------------------
# Token rules must not fire on prose ("the mutex is not needed here") or on
# string literals.  The stripper blanks them out, preserving line numbers
# and column positions so findings still point at the real source location.

_STRIP_RE = re.compile(
    r"""
      //[^\n]*                 # line comment
    | /\*.*?\*/                # block comment
    | "(?:\\.|[^"\\\n])*"      # string literal
    | '(?:\\.|[^'\\\n])*'      # char literal
    """,
    re.VERBOSE | re.DOTALL,
)


def strip_comments(text: str) -> str:
    def blank(m: re.Match) -> str:
        return "".join(c if c == "\n" else " " for c in m.group(0))

    return _STRIP_RE.sub(blank, text)


# --- findings ----------------------------------------------------------------


class Finding:
    def __init__(self, rule: str, path: str, line: int, message: str,
                 snippet: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message
        self.snippet = snippet.strip()

    def key(self) -> tuple:
        return (self.rule, self.path, self.line)

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet,
        }

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --- rule: epoch-bump --------------------------------------------------------
# Receiver spelling is deliberate: the switch-table code names the tag class
# `cls` and the location tier `tier`; only the former carries a tag epoch.

_EPOCH_MUTATION = re.compile(
    r"\bcls(?:->|\.)by_prefix\.(?:emplace|erase|insert|clear)\s*\("
    r"|\bcls(?:->|\.)def\s*=[^=]"
    r"|\.def\.reset\s*\("
    r"|\.def\.emplace\s*\("
)
_NOTE_TAG = re.compile(r"\bnote_tag\s*\(")
_EPOCH_WINDOW = 6  # lines on each side a note_tag() may sit


def check_epoch_bump(path: str, lines: list[str]) -> list[Finding]:
    if "dataplane" not in path:
        return []
    out = []
    has_note = [bool(_NOTE_TAG.search(l)) for l in lines]
    for i, line in enumerate(lines):
        if not _EPOCH_MUTATION.search(line):
            continue
        lo = max(0, i - _EPOCH_WINDOW)
        hi = min(len(lines), i + _EPOCH_WINDOW + 1)
        if not any(has_note[lo:hi]):
            out.append(Finding(
                "epoch-bump", path, i + 1,
                "tag-class mutation without a note_tag() epoch bump within "
                f"{_EPOCH_WINDOW} lines; the fast-path memo keys on that "
                "epoch", line))
    return out


# --- rule: naked-mutex -------------------------------------------------------

_NAKED_MUTEX = re.compile(
    r"\bstd::(?:mutex|shared_mutex|timed_mutex|recursive_mutex"
    r"|condition_variable(?:_any)?|lock_guard|unique_lock|shared_lock"
    r"|scoped_lock)\b"
)


def check_naked_mutex(path: str, lines: list[str]) -> list[Finding]:
    if path.endswith("util/annotations.hpp"):
        return []  # the one place allowed to touch the std primitives
    out = []
    for i, line in enumerate(lines):
        m = _NAKED_MUTEX.search(line)
        if m:
            out.append(Finding(
                "naked-mutex", path, i + 1,
                f"{m.group(0)} outside the sc:: capability wrappers "
                "(util/annotations.hpp); thread-safety analysis cannot see "
                "this lock", line))
    return out


# --- rule: hotpath-blocking --------------------------------------------------

_HOTPATH_BEGIN = re.compile(r"sc-lint:\s*hotpath\(([A-Za-z0-9_-]+)\)")
_HOTPATH_END = re.compile(r"sc-lint:\s*endhotpath\(([A-Za-z0-9_-]+)\)")
_BLOCKING = re.compile(
    r"\bstd::(?:mutex|shared_mutex|condition_variable(?:_any)?|lock_guard"
    r"|unique_lock|shared_lock|scoped_lock|unordered_map|unordered_set"
    r"|unordered_multimap|unordered_multiset)\b"
    r"|\bsc::(?:Mutex|SharedMutex|LockGuard|UniqueLock|WriteLock|ReadLock"
    r"|CondVar)\b"
    r"|\bsleep_for\s*\(|\bsleep_until\s*\(|\busleep\s*\(|\bsleep\s*\("
)


def check_hotpath(path: str, raw_lines: list[str],
                  stripped: list[str]) -> list[Finding]:
    # Region markers live in comments, so they are parsed from the raw
    # text; the blocking-token scan runs on the stripped text.
    out = []
    open_regions: dict[str, int] = {}
    for i, raw in enumerate(raw_lines):
        begin = _HOTPATH_BEGIN.search(raw)
        end = _HOTPATH_END.search(raw)
        if begin and not end:
            name = begin.group(1)
            if name in open_regions:
                out.append(Finding(
                    "hotpath-blocking", path, i + 1,
                    f"hotpath region '{name}' opened twice (unterminated at "
                    f"line {open_regions[name] + 1}?)", raw))
            open_regions[name] = i
            continue
        if end:
            name = end.group(1)
            if name not in open_regions:
                out.append(Finding(
                    "hotpath-blocking", path, i + 1,
                    f"endhotpath('{name}') with no matching open", raw))
            open_regions.pop(name, None)
            continue
        if open_regions:
            m = _BLOCKING.search(stripped[i])
            if m:
                names = ", ".join(sorted(open_regions))
                out.append(Finding(
                    "hotpath-blocking", path, i + 1,
                    f"{m.group(0).strip()} inside hotpath region "
                    f"[{names}]; hot regions must stay lock-free, "
                    "sleep-free and node-allocation-free", raw))
    for name, line in open_regions.items():
        out.append(Finding(
            "hotpath-blocking", path, line + 1,
            f"hotpath region '{name}' never closed "
            "(missing sc-lint: endhotpath)", raw_lines[line]))
    return out


# --- rule: naked-rand --------------------------------------------------------

_NAKED_RAND = re.compile(
    r"\bstd::random_device\b|\bstd::mt19937(?:_64)?\b"
    r"|(?<![\w:.>])s?rand\s*\("
)


def check_naked_rand(path: str, lines: list[str]) -> list[Finding]:
    if path.endswith("util/rng.hpp"):
        return []  # the deterministic Rng implementation itself
    out = []
    for i, line in enumerate(lines):
        m = _NAKED_RAND.search(line)
        if m:
            out.append(Finding(
                "naked-rand", path, i + 1,
                f"{m.group(0).strip()} outside util/rng.hpp breaks "
                "seed-replay determinism (chaos shrinking, CI repro)", line))
    return out


# --- rule: iostream-write ----------------------------------------------------

_IOSTREAM = re.compile(
    r"\bstd::(?:cout|cerr|clog)\b|(?<![\w:.>])f?printf\s*\(|\bputs\s*\("
)


def check_iostream(path: str, lines: list[str]) -> list[Finding]:
    out = []
    for i, line in enumerate(lines):
        m = _IOSTREAM.search(line)
        if m:
            out.append(Finding(
                "iostream-write", path, i + 1,
                f"{m.group(0).strip()} in library code; return values "
                "(RunReport, ostringstream) instead -- worker threads must "
                "not write to process-global streams", line))
    return out


# --- rule: metrics-direct ----------------------------------------------------
# The owning file carries a `// sc-lint: metrics-owner(Struct)` marker (in a
# comment, so it is parsed from the raw text); everywhere else, writes to
# the known counter-struct receivers are findings.  Reads stay free.

_METRICS_OWNER = re.compile(r"sc-lint:\s*metrics-owner\([A-Za-z0-9_]+\)")
_METRICS_RECV = r"(?:perf_|fault_stats_)"
_METRICS_DIRECT = re.compile(
    r"(?:\+\+|--)\s*" + _METRICS_RECV + r"\.\w+"          # ++perf_.x
    r"|\b" + _METRICS_RECV + r"\.\w+\s*"                   # perf_.x++ / x += /
    r"(?:\+\+|--|(?:[+\-*/%|&^]|<<|>>)?=(?!=))"            # x = (not ==)
    r"|\b" + _METRICS_RECV + r"\s*=(?!=)"                  # whole-struct reset
)


def _marker_line(marker_re: re.Pattern, raw_lines: list[str]) -> int | None:
    """1-based line of the first file-wide owner marker, or None."""
    for i, raw in enumerate(raw_lines):
        if marker_re.search(raw):
            return i + 1
    return None


def _audit_owner_marker(rule: str, marker: str, path: str, line: int,
                        would_fire: list[Finding]) -> list[Finding]:
    """A file-wide owner marker that exempts nothing is stale: the code it
    justified has moved, and a stale exemption silently disables the rule
    for whatever lands in the file next (the sc-analyze stale-suppression
    audit, applied to sc-lint's markers)."""
    if would_fire:
        return []  # marker is load-bearing
    return [Finding(
        rule, path, line,
        f"stale sc-lint marker: '{marker}' exempts no {rule} diagnostics "
        "in this file -- remove the marker", "")]


def check_metrics_direct(path: str, raw_lines: list[str],
                         stripped: list[str]) -> list[Finding]:
    out = []
    for i, line in enumerate(stripped):
        m = _METRICS_DIRECT.search(line)
        if m:
            out.append(Finding(
                "metrics-direct", path, i + 1,
                f"{m.group(0).strip()}: perf-counter structs are mutated "
                "only in their sc-lint: metrics-owner(...) file; read them "
                "via accessors or telemetry registry collectors", line))
    marker = _marker_line(_METRICS_OWNER, raw_lines)
    if marker is not None:
        return _audit_owner_marker("metrics-direct", "metrics-owner", path,
                                   marker, out)
    return out


# --- rule: controller-construct ----------------------------------------------
# The composition roots allowed to own Controller instances are identified
# by path segment: src/sim/ (SoftCellNetwork wires a standalone controller
# or hands the topology to a fleet) and src/cluster/ (ControllerFleet builds
# its replicas).  Everyone else must accept a ControlPlane& / Controller&.
#
# Three construction spellings, each anchored so the Controller-prefixed and
# Controller-suffixed types (ControllerFleet, ControllerOptions) and mere
# references (Controller&, Controller*) never match:
#   * heap:   new Controller(...)            / new Controller{...}
#   * smart:  make_unique<Controller>(...)   / make_shared<Controller>(...)
#   * stack:  Controller name(...)           / Controller name{...}

_CTRL_CONSTRUCT = re.compile(
    r"\bnew\s+(?:\w+::)*Controller\s*[({]"
    r"|\bmake_(?:unique|shared)\s*<\s*(?:\w+::)*Controller\s*>"
    r"|(?<![\w:])Controller\s+\w+\s*[({]"
)
_CTRL_ALLOWED_DIRS = {"sim", "cluster"}


def check_controller_construct(path: str, lines: list[str]) -> list[Finding]:
    if _CTRL_ALLOWED_DIRS & set(Path(path).parts):
        return []  # the composition roots that own Controller lifetimes
    out = []
    for i, line in enumerate(lines):
        m = _CTRL_CONSTRUCT.search(line)
        if m:
            out.append(Finding(
                "controller-construct", path, i + 1,
                f"{m.group(0).strip()}: Controller is constructed only by "
                "the sim/ and cluster/ composition roots; a stray instance "
                "bypasses the fleet's partition-ownership leases", line))
    return out


# --- rule: cross-shard-direct ------------------------------------------------
# The commit-stage owner file is identified by a file-wide
# `// sc-lint: commit-owner(...)` marker (a comment, parsed from the raw
# text -- the metrics-owner exemption shape).  Everywhere else, calls that
# mutate switch-table rows through an engine receiver are findings.  The
# receiver spellings are the codebase's three: the `engine_` member, a bare
# `engine` local/parameter, and the `engine()` accessor (any qualifier,
# `.` or `->`).  `remove_listener`, `install`-prefixed identifiers that are
# not calls, and read-only calls (lookup, stats, classifiers) never match.

_COMMIT_OWNER = re.compile(r"sc-lint:\s*commit-owner\([^)]*\)")
_CROSS_SHARD_DIRECT = re.compile(
    r"\bengine_?(?:\s*\(\s*\))?\s*(?:\.|->)\s*"
    r"(?:install(?:_ue_shortcut)?|remove)\s*\("
)


def check_cross_shard_direct(path: str, raw_lines: list[str],
                             stripped: list[str]) -> list[Finding]:
    out = []
    for i, line in enumerate(stripped):
        m = _CROSS_SHARD_DIRECT.search(line)
        if m:
            out.append(Finding(
                "cross-shard-direct", path, i + 1,
                f"{m.group(0).strip()}: switch-table rows are mutated only "
                "in the sc-lint: commit-owner(...) file; a direct engine "
                "install/remove bypasses the commit stage's single-writer "
                "total order and desyncs the installed-path tag maps",
                line))
    marker = _marker_line(_COMMIT_OWNER, raw_lines)
    if marker is not None:
        return _audit_owner_marker("cross-shard-direct", "commit-owner",
                                   path, marker, out)
    return out


# --- rule: node-map-hotpath --------------------------------------------------
# The slab migration (DESIGN.md section 15) moved per-UE / per-flow resident
# state out of node-based maps; this rule keeps it out.  Scope is the hot
# directories by path segment (mirroring epoch-bump's substring convention so
# the fixture can carry the segment in its file name).  A file that must keep
# a node map declares it with a file-wide `// sc-lint: slab-owner(...)`
# marker (a comment, parsed from raw text), exactly the metrics-owner
# exemption shape; the stale-marker audit fails a marker that exempts
# nothing.

_SLAB_OWNER = re.compile(r"sc-lint:\s*slab-owner\([^)]*\)")
_NODE_MAP_HOTPATH = re.compile(
    r"\bstd::(?:unordered_(?:multi)?map|multimap|map)\s*<\s*"
    r"(?:\w+::)*(?:LocalUeId|UeId|FlowKey|PublicEndpoint)\s*[,>]"
)
_NODE_MAP_DIRS = ("agent", "ctrl", "dataplane", "packet")


def check_node_map_hotpath(path: str, raw_lines: list[str],
                           stripped: list[str]) -> list[Finding]:
    if not any(d in path for d in _NODE_MAP_DIRS):
        return []
    out = []
    for i, line in enumerate(stripped):
        m = _NODE_MAP_HOTPATH.search(line)
        if m:
            out.append(Finding(
                "node-map-hotpath", path, i + 1,
                f"{m.group(0).strip()}: per-UE/per-flow resident state in "
                "hot directories uses the slab layout (Slab/SlabMap/"
                "FlatMap); node maps live only in sc-lint: slab-owner(...) "
                "files", line))
    marker = _marker_line(_SLAB_OWNER, raw_lines)
    if marker is not None:
        return _audit_owner_marker("node-map-hotpath", "slab-owner", path,
                                   marker, out)
    return out


# --- rule: raw-socket --------------------------------------------------------
# Scope is a `net` path segment (src/net/ in the tree; the fixture carries
# the segment in its own path the way epoch-bump's fixture does).  Two
# spellings are findings everywhere else:
#   * global-scope socket/epoll syscalls: the `::` anchor keeps qualified
#     names (asio::connect, Channel::send) and members free;
#   * the socket system headers themselves -- including one is the earliest
#     tell that transport code is growing outside the transport layer.

_RAW_SOCKET_CALL = re.compile(
    r"(?<![\w>])::(?:socket|socketpair|accept4?|bind|listen|connect"
    r"|send(?:to|msg)?|recv(?:from|msg)?|shutdown|getsockname|getpeername"
    r"|setsockopt|getsockopt|epoll_(?:create1?|ctl|wait|pwait)|eventfd)"
    r"\s*\("
)
_RAW_SOCKET_HEADER = re.compile(
    r'#\s*include\s*[<"](?:sys/socket\.h|sys/epoll\.h|sys/eventfd\.h'
    r'|sys/un\.h|netinet/[^>"]+|arpa/inet\.h)[>"]'
)


def check_raw_socket(path: str, lines: list[str]) -> list[Finding]:
    if "net" in Path(path).parts:
        return []  # the transport layer owns the syscall surface
    out = []
    for i, line in enumerate(lines):
        m = _RAW_SOCKET_HEADER.search(line) or _RAW_SOCKET_CALL.search(line)
        if m:
            out.append(Finding(
                "raw-socket", path, i + 1,
                f"{m.group(0).strip()}: socket/epoll syscalls and headers "
                "live only under src/net/; transport code elsewhere "
                "bypasses the EventLoop fd lifecycle and NetStats "
                "accounting", line))
    return out


RULES = {
    "epoch-bump": "tag-class mutations must bump the structural epoch",
    "naked-mutex": "std:: sync primitives only inside util/annotations.hpp",
    "hotpath-blocking": "no locks/sleeps/unordered_* in hotpath regions",
    "naked-rand": "all randomness through util/rng.hpp",
    "iostream-write": "no stdout/stderr writes from library code",
    "metrics-direct": "perf-counter structs mutated only in their owner file",
    "controller-construct":
        "Controller built only by the sim/ and cluster/ composition roots",
    "cross-shard-direct":
        "engine rows mutated only by the commit-owner file",
    "node-map-hotpath":
        "per-UE/per-flow state in hot dirs uses slabs, not node maps",
    "raw-socket":
        "socket/epoll syscalls and headers only under src/net/",
}


def scan_file(root: Path, file: Path) -> list[Finding]:
    rel = file.relative_to(root).as_posix()
    raw = file.read_text(encoding="utf-8", errors="replace")
    raw_lines = raw.splitlines()
    stripped_lines = strip_comments(raw).splitlines()
    # splitlines() on the stripped text can only differ if the file ends
    # mid-comment; pad defensively.
    while len(stripped_lines) < len(raw_lines):
        stripped_lines.append("")
    findings = []
    findings += check_epoch_bump(rel, stripped_lines)
    findings += check_naked_mutex(rel, stripped_lines)
    findings += check_hotpath(rel, raw_lines, stripped_lines)
    findings += check_naked_rand(rel, stripped_lines)
    findings += check_iostream(rel, stripped_lines)
    findings += check_metrics_direct(rel, raw_lines, stripped_lines)
    findings += check_controller_construct(rel, stripped_lines)
    findings += check_cross_shard_direct(rel, raw_lines, stripped_lines)
    findings += check_node_map_hotpath(rel, raw_lines, stripped_lines)
    findings += check_raw_socket(rel, stripped_lines)
    return findings


# --- suppressions ------------------------------------------------------------

_SUPPRESSION_RE = re.compile(
    r"^(?P<rule>[a-z-]+)\s+(?P<path>\S+):(?P<line>\d+)\s+(?P<why>\S.*)$")


def load_suppressions(path: Path) -> dict[tuple, str]:
    table: dict[tuple, str] = {}
    if not path.exists():
        return table
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SUPPRESSION_RE.match(line)
        if not m:
            print(f"{path}:{lineno}: malformed suppression (want "
                  f"'<rule> <path>:<line> <justification>'): {line}",
                  file=sys.stderr)
            sys.exit(2)
        if m.group("rule") not in RULES:
            print(f"{path}:{lineno}: unknown rule '{m.group('rule')}'",
                  file=sys.stderr)
            sys.exit(2)
        key = (m.group("rule"), m.group("path"), int(m.group("line")))
        table[key] = m.group("why")
    return table


# --- driver ------------------------------------------------------------------


def collect_files(paths: list[Path]) -> list[Path]:
    out = []
    for p in paths:
        if p.is_dir():
            out.extend(sorted(p.rglob("*.hpp")))
            out.extend(sorted(p.rglob("*.cpp")))
        elif p.suffix in (".hpp", ".cpp"):
            out.append(p)
    return sorted(set(out))


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", help="files or directories to lint")
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="repo root findings are reported relative to")
    ap.add_argument("--suppressions", type=Path, default=None,
                    help="suppression file "
                         "(default: tools/lint_suppressions.txt)")
    ap.add_argument("--report", type=Path, default=None,
                    help="write machine-readable JSON findings here")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule:18s} {desc}")
        return 0

    root = args.root.resolve()
    targets = ([Path(p).resolve() for p in args.paths] if args.paths
               else [root / "src"])
    files = collect_files(targets)
    if not files:
        print("softcell-lint: no .hpp/.cpp files found", file=sys.stderr)
        return 2

    sup_path = args.suppressions or root / "tools" / "lint_suppressions.txt"
    suppressions = load_suppressions(sup_path)

    findings: list[Finding] = []
    for f in files:
        try:
            rel_root = root if f.is_relative_to(root) else f.parent
        except AttributeError:  # pragma: no cover (py<3.9)
            rel_root = root
        findings.extend(scan_file(rel_root, f))

    active, suppressed = [], []
    used_suppressions = set()
    for finding in findings:
        if finding.key() in suppressions:
            suppressed.append(finding)
            used_suppressions.add(finding.key())
        else:
            active.append(finding)

    for finding in active:
        print(finding)

    # Stale-suppression audit: an unused entry whose target file WAS
    # scanned matches no diagnostic, so the code it justified has moved --
    # hard failure (prune the entry).  Entries pointing at files outside
    # this run's scope are left alone so single-file invocations don't
    # false-fail on the rest of the table.
    scanned_rels = set()
    for f in files:
        try:
            rel_root = root if f.is_relative_to(root) else f.parent
        except AttributeError:  # pragma: no cover (py<3.9)
            rel_root = root
        scanned_rels.add(f.relative_to(rel_root).as_posix())
    stale = [key for key in sorted(set(suppressions) - used_suppressions)
             if key[1] in scanned_rels]
    for key in stale:
        print(f"stale-suppression: {sup_path}: '{key[0]} {key[1]}:{key[2]}' "
              "matches no diagnostic -- remove it")

    if args.report:
        report = {
            "version": 2,
            "files_scanned": len(files),
            "findings": [f.to_json() for f in active],
            "suppressed": [
                dict(f.to_json(), justification=suppressions[f.key()])
                for f in suppressed
            ],
            "stale_suppressions": [
                {"rule": k[0], "path": k[1], "line": k[2]} for k in stale
            ],
        }
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(json.dumps(report, indent=2) + "\n")

    if active or stale:
        print(f"softcell-lint: {len(active)} finding(s), "
              f"{len(stale)} stale suppression(s) "
              f"({len(suppressed)} suppressed) in {len(files)} files",
              file=sys.stderr)
        return 1
    print(f"softcell-lint: clean ({len(files)} files, "
          f"{len(suppressed)} suppressed)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
