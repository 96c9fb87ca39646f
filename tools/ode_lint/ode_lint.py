#!/usr/bin/env python3
"""ode-lint: repository invariant checker.

Enforces the cross-cutting conventions that a compiler cannot — the
rules live in docs/STATIC_ANALYSIS.md and each finding carries its
rule id:

  raw-threading-primitive  no std::mutex / std::shared_mutex /
                           std::condition_variable / std::lock_guard /
                           std::unique_lock / std::scoped_lock outside
                           common/threading.{h,cc}; everything else
                           uses the ranked ode:: wrappers.
  engine-thread            no std::thread / std::jthread under src/
                           outside src/common/; engine work on another
                           thread goes through BackgroundWorker, which
                           the OpContext hand-off rule covers.
  rank-doc-sync            the LockRank enum (lock_rank.h), the
                           metadata table (lock_rank.cc), and the prose
                           table in docs/LOCKING.md agree exactly on
                           rank values and names.
  mutex-rank-known         every Mutex/SharedMutex construction names a
                           LockRank that exists in the enum.
  acquire-order            the static acquire graph (lexically nested
                           MutexLock/ReaderLock scopes, plus
                           ODE_REQUIRES edges) is consistent with the
                           runtime rank order: inner rank > outer rank,
                           unless the rank allows same-rank stacking.
  no-tsa-inventory         every ODE_NO_THREAD_SAFETY_ANALYSIS escape
                           matches the committed inventory
                           (tools/ode_lint/no_tsa_inventory.json), so a
                           new escape is a reviewed decision, not an
                           accident.
  metric-name              metric names are literal, follow
                           subsystem.noun.verb (lowercase dotted), and
                           no name is used as two instrument kinds.
  journal-event-name       JournalEventName wire names are snake_case
                           and unique.
  include-layering         common < {odb, dag, owl} < dynlink < odeview;
                           no layer includes a higher layer. The
                           clustering subsystem (odb/cluster/) is a
                           leaf over the odb core: no file outside it
                           may include odb/cluster/ headers.

Usage:
  python3 tools/ode_lint/ode_lint.py [--root REPO] [--json]
                                     [--baseline FILE]

Exits 1 when any finding is not suppressed by the baseline. The
baseline (tools/ode_lint/baseline.json) is a list of finding keys —
commit it to suppress known debt, and shrink it over time. An entry
that no longer matches anything is itself reported (stale-baseline),
so the file cannot rot.

When the `clang.cindex` module and a compile_commands.json are
available, the acquire-order rule additionally cross-checks lock
declarations via libclang; without them (the common case on minimal
containers) the regex engine is authoritative. The regex rules are
deliberately conservative: they parse the narrow idioms this codebase
uses, which CI enforces stay narrow.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import defaultdict
from dataclasses import dataclass, asdict

LAYER_ORDER = {"common": 0, "odb": 1, "dag": 1, "owl": 1, "dynlink": 2,
               "odeview": 3}

RAW_PRIMITIVES = re.compile(
    r"std::(mutex|shared_mutex|condition_variable\w*|lock_guard|"
    r"unique_lock|scoped_lock|recursive_mutex|timed_mutex)\b")

RAW_THREAD = re.compile(r"\bstd::(j?thread)\b")

# Files allowed to name the raw primitives: the wrappers themselves and
# the annotation macros.
THREADING_EXEMPT = {
    os.path.join("common", "threading.h"),
    os.path.join("common", "threading.cc"),
    os.path.join("common", "thread_annotations.h"),
}

METRIC_NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")
SNAKE_CASE = re.compile(r"^[a-z][a-z0-9_]*$")


@dataclass
class Finding:
    rule: str
    file: str
    line: int
    message: str

    def key(self) -> str:
        """Stable identity for baseline suppression (no line numbers —
        they churn; rule + file + message identifies the finding)."""
        return f"{self.rule}:{self.file}:{self.message}"


def iter_source_files(root):
    for base, dirs, files in os.walk(os.path.join(root, "src")):
        dirs[:] = [d for d in dirs if d not in ("CMakeFiles",)]
        for name in files:
            if name.endswith((".h", ".cc")):
                yield os.path.join(base, name)


def rel(root, path):
    return os.path.relpath(path, root)


def read_text(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def strip_comments(text: str) -> str:
    """Blanks out // and /* */ comments and string literals, keeping
    line structure so reported line numbers stay meaningful."""
    out = []
    i, n = 0, len(text)
    mode = None  # None | 'line' | 'block' | 'str' | 'chr'
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode is None:
            if c == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                mode = "str"
                out.append('"')
                i += 1
                continue
            if c == "'":
                mode = "chr"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif mode == "line":
            if c == "\n":
                mode = None
                out.append(c)
            else:
                out.append(" ")
        elif mode == "block":
            if c == "*" and nxt == "/":
                mode = None
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif mode in ("str", "chr"):
            quote = '"' if mode == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                mode = None
                out.append(quote)
            else:
                out.append(" " if c != "\n" else "\n")
        i += 1
    return "".join(out)


# --- rule: raw-threading-primitive -------------------------------------


def check_raw_primitives(root, findings):
    for path in iter_source_files(root):
        relpath = rel(root, path)
        if os.path.relpath(relpath, "src") in THREADING_EXEMPT:
            continue
        text = strip_comments(read_text(path))
        for lineno, line in enumerate(text.splitlines(), 1):
            m = RAW_PRIMITIVES.search(line)
            if m:
                findings.append(Finding(
                    "raw-threading-primitive", relpath, lineno,
                    f"raw std::{m.group(1)}; use the ranked ode:: "
                    f"wrappers from common/threading.h"))


# --- rule: engine-thread -----------------------------------------------


def check_engine_threads(root, findings):
    for path in iter_source_files(root):
        relpath = rel(root, path)
        if os.path.relpath(relpath, "src").split(os.sep)[0] == "common":
            continue
        text = strip_comments(read_text(path))
        for lineno, line in enumerate(text.splitlines(), 1):
            m = RAW_THREAD.search(line)
            if m:
                findings.append(Finding(
                    "engine-thread", relpath, lineno,
                    f"std::{m.group(1)} outside src/common/; run engine "
                    f"work on a BackgroundWorker (common/threading.h)"))


# --- rank parsing shared by several rules ------------------------------


def parse_enum_ranks(root, findings):
    """LockRank enum: name -> numeric value."""
    path = os.path.join(root, "src", "common", "lock_rank.h")
    text = strip_comments(read_text(path))
    m = re.search(r"enum class LockRank[^{]*\{(.*?)\}\s*;", text, re.S)
    if not m:
        findings.append(Finding("rank-doc-sync", rel(root, path), 1,
                                "cannot locate the LockRank enum"))
        return {}
    ranks = {}
    for name, value in re.findall(r"(k\w+)\s*=\s*(\d+)", m.group(1)):
        ranks[name] = int(value)
    return ranks


def parse_table_ranks(root, findings):
    """lock_rank.cc metadata table:
    numeric rank -> (name, allow_same_rank)."""
    path = os.path.join(root, "src", "common", "lock_rank.cc")
    text = strip_comments(read_text(path))
    table = {}
    pattern = re.compile(
        r"\{\s*LockRank::(k\w+)\s*,\s*\"([^\"]*)\"\s*,\s*(true|false)"
        r"\s*,\s*(true|false)\s*\}")
    # The comment-stripper blanks string contents; re-read raw for the
    # names but keep positions via the raw file (strings here are plain
    # one-line literals).
    raw = read_text(path)
    for m in pattern.finditer(raw):
        table[m.group(1)] = (m.group(2), m.group(3) == "true")
    if not table:
        findings.append(Finding("rank-doc-sync", rel(root, path), 1,
                                "cannot parse LockRankTable entries"))
    return table


def parse_doc_ranks(root, findings):
    """docs/LOCKING.md: numeric rank -> backticked name."""
    path = os.path.join(root, "docs", "LOCKING.md")
    doc = {}
    for lineno, line in enumerate(
            read_text(path).splitlines(), 1):
        m = re.match(r"\|\s*(\d+)\s*\|\s*`([^`]+)`\s*\|", line)
        if m:
            rank = int(m.group(1))
            if rank in doc:
                findings.append(Finding(
                    "rank-doc-sync", rel(root, path), lineno,
                    f"rank {rank} documented twice"))
            doc[rank] = m.group(2)
    return doc


def check_rank_doc_sync(root, findings):
    enum = parse_enum_ranks(root, findings)
    table = parse_table_ranks(root, findings)
    doc = parse_doc_ranks(root, findings)
    if not enum or not table or not doc:
        return enum, table

    hdr = rel(root, os.path.join("src", "common", "lock_rank.h"))
    cc = rel(root, os.path.join("src", "common", "lock_rank.cc"))
    md = rel(root, os.path.join("docs", "LOCKING.md"))

    for enum_name, value in enum.items():
        if enum_name not in table:
            findings.append(Finding(
                "rank-doc-sync", cc, 1,
                f"LockRank::{enum_name} ({value}) missing from "
                f"LockRankTable()"))
        if value not in doc:
            findings.append(Finding(
                "rank-doc-sync", md, 1,
                f"rank {value} (LockRank::{enum_name}) missing from the "
                f"docs/LOCKING.md table"))
    for table_name in table:
        if table_name not in enum:
            findings.append(Finding(
                "rank-doc-sync", hdr, 1,
                f"LockRankTable() entry {table_name} has no enum value"))
    by_value = {v: k for k, v in enum.items()}
    for rank, doc_name in doc.items():
        enum_name = by_value.get(rank)
        if enum_name is None:
            findings.append(Finding(
                "rank-doc-sync", hdr, 1,
                f"docs/LOCKING.md documents rank {rank} (`{doc_name}`) "
                f"which is not in the LockRank enum"))
            continue
        code_name = table.get(enum_name, (None,))[0]
        if code_name is not None and code_name != doc_name:
            findings.append(Finding(
                "rank-doc-sync", md, 1,
                f"rank {rank} named `{doc_name}` in docs but "
                f"\"{code_name}\" in lock_rank.cc"))
    return enum, table


# --- rules: mutex-rank-known + acquire-order ---------------------------

MUTEX_DECL = re.compile(
    r"\b(?:Mutex|SharedMutex)\s+(\w+)\s*\{\s*LockRank::(k\w+)")
LOCK_SCOPE = re.compile(
    r"\b(MutexLock|ReaderMutexLock|SharedLock|WriterLock|ReaderLock)\s+"
    r"\w+\s*[({]\s*[*&]?\s*([\w.\->]+)")
REQUIRES_FN = re.compile(r"ODE_REQUIRES\s*\(\s*[*&]?\s*([\w.\->]+)\s*\)")


def check_mutex_ranks_and_order(root, findings, enum, table):
    """Resolves member mutex -> rank per file, flags unknown ranks, and
    builds the static acquire graph from lexical nesting."""
    # mutex member name -> set of enum rank names (across the repo;
    # names like mu_ repeat, so order edges are only checked when every
    # candidate pair violates — conservative, no false positives).
    decls = defaultdict(set)
    for path in iter_source_files(root):
        relpath = rel(root, path)
        raw = read_text(path)
        for m in MUTEX_DECL.finditer(raw):
            member, rank_name = m.group(1), m.group(2)
            lineno = raw[:m.start()].count("\n") + 1
            if rank_name not in enum:
                findings.append(Finding(
                    "mutex-rank-known", relpath, lineno,
                    f"{member} constructed with LockRank::{rank_name}, "
                    f"which is not in the LockRank enum"))
                continue
            decls[member].add(rank_name)

    def rank_of(expr):
        """Candidate enum ranks for a lock expression like `mu_`,
        `shard.mu`, `*txn_mu_`."""
        member = expr.split(".")[-1].split("->")[-1].lstrip("*&")
        return decls.get(member, set())

    for path in iter_source_files(root):
        if not path.endswith(".cc") and not path.endswith(".h"):
            continue
        relpath = rel(root, path)
        text = strip_comments(read_text(path))
        # Walk lines tracking brace depth; a lock scope guard lives
        # until its depth closes. ODE_REQUIRES on a function head seeds
        # the held set for the body that follows.
        held = []  # (expr, depth_at_acquisition, line)
        pending_requires = []
        depth = 0
        for lineno, line in enumerate(text.splitlines(), 1):
            for m in REQUIRES_FN.finditer(line):
                pending_requires.append((m.group(1), lineno))
            for m in LOCK_SCOPE.finditer(line):
                inner = m.group(2)
                inner_ranks = rank_of(inner)
                if not inner_ranks:
                    continue
                outers = ([(e, l) for e, _, l in held] +
                          [(e, l) for e, l in pending_requires])
                for outer, outer_line in outers:
                    outer_ranks = rank_of(outer)
                    if not outer_ranks:
                        continue
                    # Conservative: only flag when EVERY candidate
                    # rank pairing is out of order.
                    ok = any(
                        enum[i] > enum[o] or
                        (i == o and table.get(i, ("", False))[1])
                        for o in outer_ranks for i in inner_ranks)
                    if not ok:
                        findings.append(Finding(
                            "acquire-order", relpath, lineno,
                            f"acquires {inner} (ranks "
                            f"{sorted(inner_ranks)}) while holding "
                            f"{outer} (ranks {sorted(outer_ranks)}) "
                            f"from line {outer_line}; rank order "
                            f"requires inner > outer"))
                held.append((inner, depth, lineno))
            opens = line.count("{")
            closes = line.count("}")
            depth += opens - closes
            if closes:
                held = [h for h in held if h[1] < depth + 1]
                if depth <= 0:
                    held = []
                    pending_requires = []
                    depth = max(depth, 0)


# --- rule: no-tsa-inventory --------------------------------------------


def check_no_tsa(root, findings):
    inventory_path = os.path.join(root, "tools", "ode_lint",
                                  "no_tsa_inventory.json")
    try:
        with open(inventory_path, encoding="utf-8") as f:
            inventory = json.load(f)
    except FileNotFoundError:
        findings.append(Finding(
            "no-tsa-inventory", rel(root, inventory_path), 1,
            "missing escape inventory file"))
        return
    expected = {entry["file"]: entry["count"] for entry in inventory}
    actual = defaultdict(int)
    for path in iter_source_files(root):
        text = strip_comments(read_text(path))
        hits = len(re.findall(r"\bODE_NO_THREAD_SAFETY_ANALYSIS\b", text))
        if path.endswith(os.path.join("common", "thread_annotations.h")):
            continue  # the definition site
        if hits:
            actual[rel(root, path).replace(os.sep, "/")] += hits
    for file, count in sorted(actual.items()):
        want = expected.get(file)
        if want is None:
            findings.append(Finding(
                "no-tsa-inventory", file, 1,
                f"{count} ODE_NO_THREAD_SAFETY_ANALYSIS escape(s) not in "
                f"the committed inventory — document the justification "
                f"in docs/LOCKING.md and add the file to "
                f"tools/ode_lint/no_tsa_inventory.json"))
        elif want != count:
            findings.append(Finding(
                "no-tsa-inventory", file, 1,
                f"escape count drifted: inventory says {want}, "
                f"source has {count}"))
    for file in expected:
        if file not in actual:
            findings.append(Finding(
                "no-tsa-inventory", file, 1,
                "inventory lists escapes but the file has none — prune "
                "the inventory entry"))


# --- rule: metric-name -------------------------------------------------

METRIC_CALL = re.compile(
    r"\.\s*(counter|gauge|histogram)\s*\(\s*(\"[^\"]*\"|[^)\"]+)")


def check_metric_names(root, findings):
    kinds = defaultdict(set)   # name -> {kind}
    sites = defaultdict(list)  # name -> [(file, line)]
    for path in iter_source_files(root):
        relpath = rel(root, path)
        raw = read_text(path)
        stripped = strip_comments(raw)
        for m in METRIC_CALL.finditer(raw):
            # Only count real call sites (the stripped text still has
            # the call shape there; comments do not).
            lineno = raw[:m.start()].count("\n") + 1
            span_line = stripped.splitlines()[lineno - 1] \
                if lineno <= len(stripped.splitlines()) else ""
            if m.group(1) not in span_line:
                continue
            arg = m.group(2).strip()
            if not arg.startswith('"'):
                # Dynamic name (a variable): allowed only in the
                # metrics/registry implementation itself.
                if "common/metrics" not in relpath.replace(os.sep, "/"):
                    findings.append(Finding(
                        "metric-name", relpath, lineno,
                        f"non-literal metric name `{arg}` — names must "
                        f"be literals so the registry is greppable"))
                continue
            name = arg.strip('"')
            if not METRIC_NAME.match(name):
                findings.append(Finding(
                    "metric-name", relpath, lineno,
                    f"metric name \"{name}\" violates the "
                    f"subsystem.noun.verb convention"))
            kinds[name].add(m.group(1))
            sites[name].append((relpath, lineno))
    for name, used_kinds in sorted(kinds.items()):
        if len(used_kinds) > 1:
            where = ", ".join(f"{f}:{l}" for f, l in sites[name][:4])
            findings.append(Finding(
                "metric-name", sites[name][0][0], sites[name][0][1],
                f"metric \"{name}\" used as {sorted(used_kinds)} — one "
                f"kind per name ({where})"))


# --- rule: journal-event-name ------------------------------------------


def check_journal_events(root, findings):
    path = os.path.join(root, "src", "common", "journal.cc")
    relpath = rel(root, path)
    raw = read_text(path)
    m = re.search(r"JournalEventName[^{]*\{(.*?)\n\}", raw, re.S)
    if not m:
        findings.append(Finding("journal-event-name", relpath, 1,
                                "cannot locate JournalEventName()"))
        return
    seen = {}
    for case in re.finditer(
            r"case JournalEvent::(k\w+):\s*return\s*\"([^\"]*)\"",
            m.group(1)):
        enum_name, wire = case.group(1), case.group(2)
        lineno = raw[:m.start(1) + case.start()].count("\n") + 1
        if not SNAKE_CASE.match(wire):
            findings.append(Finding(
                "journal-event-name", relpath, lineno,
                f"wire name \"{wire}\" for {enum_name} is not "
                f"snake_case"))
        if wire in seen:
            findings.append(Finding(
                "journal-event-name", relpath, lineno,
                f"wire name \"{wire}\" used by both {seen[wire]} and "
                f"{enum_name}"))
        seen[wire] = enum_name


# --- rule: include-layering --------------------------------------------


def check_include_layering(root, findings):
    for path in iter_source_files(root):
        relpath = rel(root, path)
        parts = os.path.relpath(relpath, "src").split(os.sep)
        layer = LAYER_ORDER.get(parts[0])
        if layer is None:
            continue
        # Raw lines: the comment stripper blanks string contents, and
        # the include path lives inside the quotes. A leading-`#` match
        # cannot sit in a comment that matters here.
        in_cluster = parts[:2] == ["odb", "cluster"]
        raw = read_text(path)
        for lineno, line in enumerate(raw.splitlines(), 1):
            # The clustering subsystem is a leaf: it may include the odb
            # core, but no core file (odb, common, or any other layer)
            # may include odb/cluster/ — the core interacts with it only
            # through the forward declarations in database.h.
            if not in_cluster and re.match(
                    r'\s*#\s*include\s*"odb/cluster/', line):
                findings.append(Finding(
                    "include-layering", relpath, lineno,
                    f"{relpath} must not include odb/cluster/ — the "
                    f"clustering subsystem is a leaf over the odb core "
                    f"(core sees it via forward declarations only)"))
                continue
            m = re.match(r'\s*#\s*include\s*"(\w+)/', line)
            if not m:
                continue
            target = LAYER_ORDER.get(m.group(1))
            if target is None:
                continue
            same_tier_cross = (
                target == layer and m.group(1) != parts[0] and layer == 1)
            if target > layer or same_tier_cross:
                findings.append(Finding(
                    "include-layering", relpath, lineno,
                    f"{parts[0]} must not include {m.group(1)} "
                    f"(layering: common < odb|dag|owl < dynlink < "
                    f"odeview)"))


# --- driver ------------------------------------------------------------


def run_all(root):
    findings = []
    check_raw_primitives(root, findings)
    check_engine_threads(root, findings)
    enum, table = check_rank_doc_sync(root, findings)
    if enum:
        check_mutex_ranks_and_order(root, findings, enum, table)
    check_no_tsa(root, findings)
    check_metric_names(root, findings)
    check_journal_events(root, findings)
    check_include_layering(root, findings)
    return findings


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels up)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON on stdout")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON of suppressed finding keys")
    args = parser.parse_args(argv)

    root = args.root or os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    findings = run_all(root)

    suppressed = set()
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as f:
            baseline = json.load(f)
        suppressed = set(baseline.get("suppressed", []))
        live_keys = {f.key() for f in findings}
        for key in sorted(suppressed - live_keys):
            findings.append(Finding(
                "stale-baseline", args.baseline, 1,
                f"baseline entry matches nothing: {key}"))
        findings = [f for f in findings if f.key() not in suppressed]

    findings.sort(key=lambda f: (f.rule, f.file, f.line))
    if args.json:
        print(json.dumps({"findings": [asdict(f) for f in findings]},
                         indent=2))
    else:
        for f in findings:
            print(f"{f.file}:{f.line}: [{f.rule}] {f.message}")
        print(f"ode-lint: {len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
