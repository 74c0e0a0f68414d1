#!/usr/bin/env python3
"""Static lock-order lint for the RankedMutex discipline.

Every blocking mutex in the tree is a RankedMutex carrying a LockRank from
src/dflow/common/lock_rank.h, and the runtime checker aborts when a thread
acquires a rank <= the highest one it already holds. That catches an
inversion only on the execution path that actually interleaves; this lint
catches it at review time instead. It

  1. parses the LockRank enum (the single total order),
  2. finds every RankedMutex declaration and resolves its rank — both
     brace-init (`RankedMutex mu{LockRank::kX}`) and constructor-init-list
     (`mutex_(LockRank::kX)`) forms,
  3. walks each source file with a brace-matching scanner, tracking the
     stack of locks lexically held (RankedMutexLock RAII scopes and
     explicit mutex.lock()/unlock() pairs), and records every nested
     acquisition as an edge held-rank -> acquired-rank,
  4. fails when any edge acquires a rank <= one already held (an
     inversion), or when the acquisition graph over ranks has a cycle.

The scan is lexical and per-file: an acquisition hidden behind a function
call in another translation unit is the runtime checker's job; the lint is
the cheap first line that never needs the bad interleaving to happen.

Usage: lint_lock_order.py [--root REPO_ROOT] [--self-test]
Exit codes: 0 clean, 1 findings (or self-test failure), 2 bad invocation.
"""

import argparse
import pathlib
import re
import sys

LOCK_RANK_HEADER = "src/dflow/common/lock_rank.h"
SCAN_DIRS = ("src", "tests", "bench")
SUFFIXES = (".h", ".cc")

ENUM_RE = re.compile(r"^\s*(k\w+)\s*=\s*(\d+)\s*,", re.MULTILINE)
# `RankedMutex name{LockRank::kX}` / `RankedMutex name(LockRank::kX)`
DECL_INIT_RE = re.compile(
    r"RankedMutex\s+(\w+)\s*[{(]\s*LockRank::(k\w+)")
# Bare member declaration; rank resolved from a ctor-init-list elsewhere in
# the file: `mutex_(LockRank::kX)`.
DECL_BARE_RE = re.compile(r"RankedMutex\s+(\w+)\s*;")
CTOR_INIT_RE = re.compile(r"\b(\w+)\s*\(\s*LockRank::(k\w+)\s*\)")
# Acquisitions: RAII scope or explicit lock()/unlock().
RAII_RE = re.compile(r"RankedMutexLock\s+\w+\s*[{(]\s*&(\w+(?:\.\w+)*)")
LOCK_RE = re.compile(r"\b(\w+(?:\.\w+)*)\.lock\s*\(\s*\)")
UNLOCK_RE = re.compile(r"\b(\w+(?:\.\w+)*)\.unlock\s*\(\s*\)")


def parse_ranks(root: pathlib.Path) -> dict[str, int]:
    header = root / LOCK_RANK_HEADER
    if not header.is_file():
        print(f"lint_lock_order: missing {header}", file=sys.stderr)
        sys.exit(2)
    text = header.read_text(encoding="utf-8")
    ranks = {name: int(value) for name, value in ENUM_RE.findall(text)}
    if not ranks:
        print(f"lint_lock_order: no LockRank enumerators in {header}",
              file=sys.stderr)
        sys.exit(2)
    return ranks


def strip_comments(text: str) -> str:
    """Blanks comments and string literals, preserving line numbers."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i > 1 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def mutex_ranks_in(text: str, ranks: dict[str, int]) -> dict[str, int]:
    """Maps mutex variable names declared in `text` to their rank value."""
    mutexes: dict[str, int] = {}
    for name, rank in DECL_INIT_RE.findall(text):
        if rank in ranks:
            mutexes[name] = ranks[rank]
    bare = {name for name in DECL_BARE_RE.findall(text) if name not in mutexes}
    if bare:
        for name, rank in CTOR_INIT_RE.findall(text):
            if name in bare and rank in ranks:
                mutexes[name] = ranks[rank]
    return mutexes


def base_name(expr: str) -> str:
    """`shards[i].mu` / `obj.mutex_` -> last path component."""
    return expr.split(".")[-1]


class Finding:
    def __init__(self, where: str, message: str):
        self.where = where
        self.message = message

    def __str__(self) -> str:
        return f"{self.where}: {self.message}"


def scan_text(text: str, where: str, ranks: dict[str, int],
              known: dict[str, int],
              suppressed: frozenset[int] = frozenset()):
    """Yields (edges, findings) for one file's cleaned text.

    edges: set of (held_rank, acquired_rank) pairs from lexically nested
    acquisitions. findings: rank inversions (acquired <= held).
    `suppressed` lines (1-based, carrying a `lock-order-ok:` comment in the
    raw source — e.g. deliberate inversions inside EXPECT_DEATH) contribute
    no events; braces on them still count.
    """
    mutexes = dict(known)
    mutexes.update(mutex_ranks_in(text, ranks))

    edges: set[tuple[int, int]] = set()
    findings: list[Finding] = []
    # Stack of (mutex_name, rank, brace_depth_at_acquisition, kind).
    held: list[tuple[str, int, int, str]] = []
    depth = 0
    rank_names = {v: k for k, v in ranks.items()}

    for lineno, line in enumerate(text.splitlines(), start=1):
        # Process acquisitions/releases left-to-right, then depth changes.
        events = []
        if lineno not in suppressed:
            for m in RAII_RE.finditer(line):
                events.append((m.start(), "raii", base_name(m.group(1))))
            for m in LOCK_RE.finditer(line):
                events.append((m.start(), "lock", base_name(m.group(1))))
            for m in UNLOCK_RE.finditer(line):
                events.append((m.start(), "unlock", base_name(m.group(1))))
        events.sort()

        for _, kind, name in events:
            if name not in mutexes:
                continue  # not a ranked mutex (or rank unknown): skip
            rank = mutexes[name]
            if kind == "unlock":
                for k in range(len(held) - 1, -1, -1):
                    if held[k][0] == name:
                        del held[k]
                        break
                continue
            if held:
                top_name, top_rank, _, _ = held[-1]
                edges.add((top_rank, rank))
                if rank <= top_rank:
                    findings.append(Finding(
                        f"{where}:{lineno}",
                        f"acquires {name} (rank {rank}, "
                        f"{rank_names.get(rank, '?')}) while holding "
                        f"{top_name} (rank {top_rank}, "
                        f"{rank_names.get(top_rank, '?')}); LockRank order "
                        f"requires strictly increasing acquisition"))
            held.append((name, rank, depth, kind))

        for c in line:
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                # RAII locks release at the end of their enclosing scope;
                # explicit .lock() holds across braces until .unlock().
                while held and held[-1][3] == "raii" and held[-1][2] > depth:
                    held.pop()
                if depth <= 0:
                    # Function/class boundary: explicit locks cannot span it.
                    held = [h for h in held if h[3] == "raii"]
                    depth = max(depth, 0)

    return edges, findings


def find_cycles(edges: set[tuple[int, int]]) -> list[list[int]]:
    graph: dict[int, set[int]] = {}
    for a, b in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in graph}
    cycles: list[list[int]] = []
    path: list[int] = []

    def dfs(n: int) -> None:
        color[n] = GRAY
        path.append(n)
        for m in sorted(graph[n]):
            if color[m] == GRAY:
                cycles.append(path[path.index(m):] + [m])
            elif color[m] == WHITE:
                dfs(m)
        path.pop()
        color[n] = BLACK

    for n in sorted(graph):
        if color[n] == WHITE:
            dfs(n)
    return cycles


def run_lint(root: pathlib.Path) -> int:
    ranks = parse_ranks(root)

    files = []
    for d in SCAN_DIRS:
        base = root / d
        if base.is_dir():
            files.extend(p for p in sorted(base.rglob("*"))
                         if p.suffix in SUFFIXES)

    all_edges: set[tuple[int, int]] = set()
    findings: list[Finding] = []
    for path in files:
        raw = path.read_text(encoding="utf-8")
        # Suppression marker read from the raw source (comments are about
        # to be blanked): a line tagged `lock-order-ok:` contributes no
        # lock events — for deliberate inversions inside EXPECT_DEATH.
        suppressed = frozenset(
            lineno for lineno, line in enumerate(raw.splitlines(), start=1)
            if "lock-order-ok:" in line)
        text = strip_comments(raw)
        rel = path.relative_to(root).as_posix()
        edges, file_findings = scan_text(text, rel, ranks, {}, suppressed)
        all_edges |= edges
        findings.extend(file_findings)

    rank_names = {v: k for k, v in ranks.items()}
    for cycle in find_cycles(all_edges):
        names = " -> ".join(rank_names.get(r, str(r)) for r in cycle)
        findings.append(Finding(
            "(acquisition graph)", f"cycle in the lock-acquisition graph: "
            f"{names}; no total order can serialize these"))

    for f in findings:
        print(f)
    print(f"lint_lock_order: {len(files)} files, {len(ranks)} ranks, "
          f"{len(all_edges)} nested-acquisition edge(s), "
          f"{len(findings)} finding(s)")
    return 1 if findings else 0


SELF_TEST_SNIPPET = """
class Inverted {
 public:
  void Bad() {
    RankedMutexLock outer(&partition_mutex_);
    RankedMutexLock inner(&deque_mutex_);  // kStealDeque < kJoinPartition: bad
  }
  void Good() {
    RankedMutexLock outer(&deque_mutex_);
    RankedMutexLock inner(&partition_mutex_);
  }
 private:
  RankedMutex deque_mutex_{LockRank::kStealDeque};
  RankedMutex partition_mutex_{LockRank::kJoinPartition};
};
"""


def run_self_test(root: pathlib.Path) -> int:
    """The lint must detect a seeded rank inversion, and only that one."""
    ranks = parse_ranks(root)
    for needed in ("kStealDeque", "kJoinPartition"):
        if needed not in ranks:
            print(f"lint_lock_order: self-test needs LockRank::{needed}",
                  file=sys.stderr)
            return 1
    edges, findings = scan_text(strip_comments(SELF_TEST_SNIPPET),
                                "<self-test>", ranks, {})
    ok = (len(findings) == 1 and "partition_mutex_" in findings[0].message
          and (ranks["kStealDeque"], ranks["kJoinPartition"]) in edges)
    if not ok:
        print("lint_lock_order: SELF-TEST FAILED — seeded inversion not "
              f"detected as expected; findings: {[str(f) for f in findings]}")
        return 1
    # And the suppression path: the same inversion tagged lock-order-ok
    # must go quiet (that is how deliberate EXPECT_DEATH inversions pass).
    bad_line = next(
        lineno
        for lineno, line in enumerate(SELF_TEST_SNIPPET.splitlines(), start=1)
        if "inner(&deque_mutex_)" in line)
    _, quiet = scan_text(strip_comments(SELF_TEST_SNIPPET), "<self-test>",
                         ranks, {}, frozenset((bad_line,)))
    if quiet:
        print("lint_lock_order: SELF-TEST FAILED — lock-order-ok "
              f"suppression leaked findings: {[str(f) for f in quiet]}")
        return 1
    print("lint_lock_order: self-test ok (seeded inversion detected, "
          "suppression honored)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the scanner catches a seeded inversion")
    args = parser.parse_args()
    root = pathlib.Path(args.root)
    if args.self_test:
        status = run_self_test(root)
        if status != 0:
            return status
    return run_lint(root)


if __name__ == "__main__":
    sys.exit(main())
