#!/usr/bin/env python3
"""pcqe_lint: mechanical enforcement of PCQE repo invariants.

Rules (ids in brackets; suppress a line with `// pcqe-lint: allow(<rule>)`):

  [valueordie-unchecked]  `ValueOrDie()` in src/ or tools/ must be preceded
      (within a few lines) by an `ok()` check or a PCQE_CHECK/PCQE_DCHECK.
      Tests and benches may die freely; library code must not.
  [iostream-in-src]       `std::cout` / `std::cerr` anywhere in src/ outside
      common/logging.h. Library code logs through PCQE_LOG so callers can
      control verbosity.
  [header-guard]          Header guards must spell the path:
      src/policy/rbac.h -> PCQE_POLICY_RBAC_H_, tools/shell.h ->
      PCQE_TOOLS_SHELL_H_.
  [bare-assert]           No `assert(` in src/. Use PCQE_CHECK (fatal in all
      builds) or PCQE_DCHECK (debug only) so behavior under NDEBUG is a
      deliberate choice, not UB.
  [discarded-status]      A call to a Status-returning function must not be a
      bare statement; handle it, PCQE_RETURN_NOT_OK it, or assign it. This is
      the rule clang-tidy cannot apply: it knows the repo's own function set.
  [concurrency]           Threading discipline in src/: no `std::thread`
      (use `std::jthread`, which joins on destruction and carries a
      stop_token), no `.detach()` (detached threads outlive their data), and
      no bare `.lock()` / `.unlock()` calls (use a RAII guard — MutexLock /
      ReaderLock / WriterLock from common/annotations.h — so unlock happens
      on every exit path), and no `std::async` (its blocking future
      destructor silently serializes "parallel" code; submit to the shared
      pool in common/thread_pool.h instead).
      `std::thread::hardware_concurrency()` is fine.
  [raw-mutex]             No raw standard-library mutexes (`std::mutex`,
      `std::shared_mutex`, `std::recursive_mutex`, ...) or ad-hoc guards
      (`std::scoped_lock`, `std::lock_guard`, `std::unique_lock`,
      `std::shared_lock`) in src/ outside common/annotations.h. Use
      pcqe::Mutex / pcqe::SharedMutex with MutexLock / ReaderLock /
      WriterLock so every acquisition carries Clang Thread Safety Analysis
      attributes; a raw std:: mutex is invisible to the analyzer and
      silently re-opens the data-race hole the annotations closed.
  [telemetry]             No ad-hoc `std::atomic<uint64_t>` stat counters in
      src/ outside src/telemetry/. Register a Counter/Gauge on the
      TelemetryRegistry instead, so every stat shows up in `.metrics` /
      RenderText with a name and help string. Non-counter atomics (flags,
      versions) may suppress with `// pcqe-lint: allow(telemetry)`.
      Additionally, no new counter-shaped members (`uint64_t x = 0;`) in
      src/query/ headers outside execution_mode.h (VecExecStats, the one
      sanctioned stats struct): executor statistics must flow through
      VecExecStats / OperatorProfile / the registry so `.explain analyze`
      and `.metrics` see them. Non-stat members (ids, offsets) may suppress
      with `// pcqe-lint: allow(telemetry)`.
  [durability]            No direct `SetConfidence(` calls in src/ outside
      src/relational/ (the implementation), src/improve/ (the validated
      improver commit path) and src/storage/ (WAL replay). With durability
      on, every confidence write must flow through the logged
      improve/storage path — an unlogged write is exactly the state a crash
      loses, and it desynchronizes the WAL's self-verifying version check.
      Deliberate out-of-band writers (bulk assignment, tests' seams) may
      suppress with `// pcqe-lint: allow(durability)` and must be followed
      by a fresh checkpoint before the next crash matters.
  [vectorized]            No per-row `Tuple` view or `tuples()` row access
      inside the vectorized operator files (src/query/vec_executor.*). The
      vectorized engine's whole point is that hot loops touch column chunks
      and selection vectors; a `Tuple` view boxes its values on every read,
      so one in an operator re-introduces the per-row boxing the engine
      exists to avoid. Boxing belongs at the boundary (QueryResult::MaterializeValues
      / MaterializeLineage), not in operators. Deliberate boundary code in
      those files may suppress with `// pcqe-lint: allow(vectorized)`.
  [pushdown]              No hand-rolled confidence-vs-β comparisons in src/
      outside the sanctioned sites (PolicyDecision::Allows in src/policy/,
      ClearsThreshold in src/strategy/problem.h, and the β-pushdown
      implementation files src/query/confidence_index.*, planner.cc,
      executor.cc, vec_executor.cc). The strict keep-test
      (`conf > β + kEpsilon`) must stay the exact complement of the policy
      block-test everywhere — a re-implementation that drops the epsilon or
      flips the strictness silently breaks pushdown's release-identity
      guarantee. Call the shared helpers instead, or suppress deliberately
      with `// pcqe-lint: allow(pushdown)`.
  [deadline]              No raw `steady_clock::now()` deadline comparisons
      in src/strategy/ or src/service/. Budget checks must go through the
      `Deadline` helper (common/deadline.h: `Expired()`, `RemainingSeconds()`,
      `SolveControl`), which owns the infinite-deadline convention and the
      stop-cause latch; hand-rolled `now() < deadline` comparisons silently
      diverge on those. Arithmetic on `now()` (elapsed-time measurement) is
      fine — only comparisons are flagged. Solvers also never arm a
      deadline of their own: `Deadline::After*` in src/strategy/ is flagged,
      because a private wall-clock budget makes results and effort counters
      depend on timing. Solvers receive the caller's `Deadline` and pass it on.
      Nor do solvers read a clock at all: `Stopwatch`, common/stopwatch.h and
      `steady_clock`/`system_clock`/`high_resolution_clock` in src/strategy/
      are flagged (the engine times the solver call). `Deadline` and
      `SolveControl` calls, `RemainingSeconds()` included, stay allowed.

Usage:
  pcqe_lint.py [--root DIR] [FILE...]   # lint repo (or explicit files)
  pcqe_lint.py --self-test [DIR]        # run against fixture files
Exit status: 0 clean, 1 violations found, 2 usage/internal error.
"""

import argparse
import os
import re
import sys

LINT_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp")
# Directories scanned in repo mode, relative to the root.
SCAN_DIRS = ("src", "tools", "bench", "examples", "tests")

ALLOW_RE = re.compile(r"//\s*pcqe-lint:\s*allow\(([\w-]+)\)")
FIXTURE_PATH_RE = re.compile(r"//\s*pcqe-lint-fixture-path:\s*(\S+)")

# Collection pass: names of functions declared/defined to return Status.
STATUS_FN_RE = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*)?(?:static\s+|virtual\s+)?Status\s+"
    r"(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\("
)
# Statement-level call: `obj.Fn(...)`, `ptr->Fn(...)`, `ns::Fn(...)` or
# `Fn(...)` as the whole statement on one line.
CALL_STMT_RE = re.compile(
    r"^(?:[A-Za-z_]\w*(?:\(\))?(?:\.|->|::))*([A-Za-z_]\w*)\s*\(.*\)\s*;\s*(?://.*)?$"
)
# A steady_clock::now() (or the conventional `Clock` alias for it) adjacent
# to a comparison operator — a hand-rolled deadline check. Template closers
# like `duration_cast<...>(now())` do not match: a `(` intervenes between
# the `>` and the call.
DEADLINE_CMP_RE = re.compile(
    r"(?:steady_clock|\bClock)::now\s*\(\)\s*[<>]=?"
    r"|[<>]=?\s*(?:std::chrono::)?(?:steady_clock|\bClock)::now\s*\(\)"
)
# A solver arming its own relative budget (`Deadline::AfterSeconds(...)`).
DEADLINE_ARM_RE = re.compile(r"\bDeadline::After\w*\s*\(")
# A solver reading a clock of its own. Matched on the string-stripped code,
# except the include, whose path is a string literal and is matched raw.
SOLVER_CLOCK_RE = re.compile(
    r"\bStopwatch\b|\b(?:steady|system|high_resolution)_clock\b")
SOLVER_CLOCK_INCLUDE_RE = re.compile(r'#\s*include\s*"common/stopwatch\.h"')

# The only src/ files allowed to compare a confidence against β directly:
# the policy decision, the solvers' shared ClearsThreshold helper, and the
# β-pushdown implementation (zone maps, planner wrap, both prune operators).
PUSHDOWN_ALLOWED_FILES = (
    "src/policy/confidence_policy.h",
    "src/policy/confidence_policy.cc",
    "src/strategy/problem.h",
    "src/query/confidence_index.h",
    "src/query/confidence_index.cc",
    "src/query/planner.cc",
    "src/query/executor.cc",
    "src/query/vec_executor.cc",
)
# A relational comparator that is not the arrow of `->` nor a shift/template
# bracket pair.
PUSHDOWN_CMP_RE = re.compile(r"(?<![-<>])[<>]=?(?![<>])")
PUSHDOWN_CONF_RE = re.compile(r"\bconf(?:idence)?\w*\b", re.IGNORECASE)
PUSHDOWN_BETA_RE = re.compile(r"\b(?:prune_)?beta\w*\b", re.IGNORECASE)


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _strip_strings(line):
    """Blank out string/char literals so their contents can't match rules."""
    return re.sub(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'', '""', line)


def _allowed(line, rule):
    m = ALLOW_RE.search(line)
    return bool(m) and m.group(1) == rule


def expected_guard(relpath):
    # The src/ prefix is not part of the guard: src/policy/rbac.h ->
    # PCQE_POLICY_RBAC_H_, but tools/shell.h -> PCQE_TOOLS_SHELL_H_.
    if relpath.startswith("src/"):
        relpath = relpath[len("src/"):]
    stem = re.sub(r"[^A-Za-z0-9]", "_", relpath)
    return "PCQE_" + re.sub(r"_(h|hpp)$", "", stem, flags=re.IGNORECASE).upper() + "_H_"


def collect_status_functions(files):
    names = set()
    for _, relpath, lines in files:
        if not relpath.startswith(("src/", "tools/")):
            continue
        for line in lines:
            m = STATUS_FN_RE.match(line)
            if m:
                names.add(m.group(1))
    return names


def lint_file(relpath, lines, status_fns):
    """Lint one file given its repo-relative path and content lines."""
    out = []
    in_src = relpath.startswith("src/")
    in_tools = relpath.startswith("tools/")
    basename = os.path.basename(relpath)
    is_header = relpath.endswith((".h", ".hpp"))

    # -- header-guard ------------------------------------------------------
    if is_header and relpath.startswith(("src/", "tools/", "bench/", "tests/")):
        guard = expected_guard(relpath)
        ifndef = next(
            (i for i, l in enumerate(lines) if l.lstrip().startswith("#ifndef")), None)
        if ifndef is None:
            out.append(Violation(relpath, 1, "header-guard",
                                 f"missing include guard (expected {guard})"))
        else:
            actual = lines[ifndef].split()[1] if len(lines[ifndef].split()) > 1 else ""
            if actual != guard and not _allowed(lines[ifndef], "header-guard"):
                out.append(Violation(relpath, ifndef + 1, "header-guard",
                                     f"guard is {actual}, expected {guard}"))
            elif ifndef + 1 >= len(lines) or \
                    lines[ifndef + 1].split()[:2] != ["#define", actual]:
                out.append(Violation(relpath, ifndef + 1, "header-guard",
                                     f"#ifndef {actual} not followed by #define {actual}"))

    for i, raw in enumerate(lines, start=1):
        line = _strip_strings(raw)
        code = line.split("//")[0]

        # -- iostream-in-src ----------------------------------------------
        if in_src and basename != "logging.h" and \
                re.search(r"\bstd::c(out|err)\b", code) and \
                not _allowed(raw, "iostream-in-src"):
            out.append(Violation(relpath, i, "iostream-in-src",
                                 "use PCQE_LOG instead of std::cout/std::cerr in src/"))

        # -- bare-assert ---------------------------------------------------
        if in_src and re.search(r"(?<!static_)\bassert\s*\(", code) and \
                "#include" not in code and not _allowed(raw, "bare-assert"):
            out.append(Violation(relpath, i, "bare-assert",
                                 "use PCQE_CHECK/PCQE_DCHECK instead of assert()"))

        # -- valueordie-unchecked -----------------------------------------
        if (in_src or in_tools) and not _allowed(raw, "valueordie-unchecked"):
            # Only member calls (`x.ValueOrDie()` / `p->ValueOrDie()`) count;
            # the declarations in result.h are not preceded by . or ->.
            if re.search(r"(\.|->)\s*ValueOrDie\s*\(", code):
                window = lines[max(0, i - 6):i]
                guarded = any(
                    re.search(r"\.ok\s*\(\)|->ok\s*\(\)|PCQE_D?CHECK", _strip_strings(w))
                    for w in window)
                if not guarded:
                    out.append(Violation(
                        relpath, i, "valueordie-unchecked",
                        "ValueOrDie() without a preceding ok() check or PCQE_CHECK; "
                        "use PCQE_ASSIGN_OR_RETURN or check ok() first"))

        # -- concurrency ---------------------------------------------------
        if in_src and not _allowed(raw, "concurrency"):
            # `std::thread` as a type is banned; the lookahead spares the
            # legitimate static call std::thread::hardware_concurrency().
            if re.search(r"\bstd::thread\b(?!\s*::)", code):
                out.append(Violation(
                    relpath, i, "concurrency",
                    "use std::jthread (joins on destruction, stop_token-aware) "
                    "instead of std::thread"))
            if re.search(r"(\.|->)\s*detach\s*\(", code):
                out.append(Violation(
                    relpath, i, "concurrency",
                    "detached threads outlive their data; keep the (j)thread "
                    "joinable and owned"))
            if re.search(r"(\.|->)\s*(un)?lock\s*\(\s*\)", code):
                out.append(Violation(
                    relpath, i, "concurrency",
                    "bare lock()/unlock(); use a scoped RAII guard "
                    "(MutexLock, ReaderLock, WriterLock from "
                    "common/annotations.h)"))
            if re.search(r"\bstd::async\b", code):
                out.append(Violation(
                    relpath, i, "concurrency",
                    "std::async futures block in their destructor and "
                    "silently serialize; use ThreadPool/ParallelFor from "
                    "common/thread_pool.h"))

        # -- raw-mutex -----------------------------------------------------
        # annotations.h is the one place allowed to touch the std:: types:
        # it wraps them in the capability-annotated Mutex/SharedMutex.
        if in_src and relpath != "src/common/annotations.h" and \
                not _allowed(raw, "raw-mutex"):
            m = re.search(
                r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
                r"recursive_timed_mutex|shared_timed_mutex|scoped_lock|"
                r"lock_guard|unique_lock|shared_lock)\b", code)
            if m:
                out.append(Violation(
                    relpath, i, "raw-mutex",
                    f"std::{m.group(1)} is invisible to thread-safety "
                    "analysis; use pcqe::Mutex/SharedMutex with MutexLock/"
                    "ReaderLock/WriterLock (common/annotations.h)"))

        # -- telemetry -----------------------------------------------------
        if in_src and not relpath.startswith("src/telemetry/") and \
                re.search(r"\bstd::atomic<\s*(std::)?uint64_t\s*>", code) and \
                not _allowed(raw, "telemetry"):
            out.append(Violation(
                relpath, i, "telemetry",
                "ad-hoc std::atomic<uint64_t> stat counter; register a "
                "telemetry Counter/Gauge so it is exported by .metrics"))

        # Executor stats in src/query/ headers must flow through the
        # sanctioned channels (VecExecStats in execution_mode.h,
        # OperatorProfile, or the registry) — a private counter member is
        # invisible to `.explain analyze` and `.metrics`.
        if is_header and relpath.startswith("src/query/") and \
                basename != "execution_mode.h" and \
                re.search(r"\buint64_t\s+\w+\s*=\s*0\s*;", code) and \
                not _allowed(raw, "telemetry"):
            out.append(Violation(
                relpath, i, "telemetry",
                "counter-shaped member in a src/query/ header; route "
                "executor statistics through VecExecStats, OperatorProfile "
                "or a registry Counter so observability surfaces see them"))

        # -- durability ----------------------------------------------------
        if in_src and not relpath.startswith(
                ("src/relational/", "src/improve/", "src/storage/")) and \
                re.search(r"(\.|->)\s*SetConfidence\s*\(", code) and \
                not _allowed(raw, "durability"):
            out.append(Violation(
                relpath, i, "durability",
                "direct catalog confidence mutation bypasses the WAL; route "
                "through the logged improve/storage accept path (or suppress "
                "deliberately and checkpoint afterwards)"))

        # -- vectorized ----------------------------------------------------
        # The vectorized operators must stay columnar: any Tuple mention or
        # tuples() row access in vec_executor.* is per-row boxing smuggled
        # back into the chunk loops.
        if relpath.startswith("src/query/vec_executor") and \
                not _allowed(raw, "vectorized"):
            if re.search(r"\bTuple\b", code):
                out.append(Violation(
                    relpath, i, "vectorized",
                    "per-row Tuple in a vectorized operator file; operate on "
                    "column chunks + selection vectors and leave boxing to "
                    "QueryResult::MaterializeValues/MaterializeLineage"))
            elif re.search(r"(\.|->)\s*tuples\s*\(\s*\)", code):
                out.append(Violation(
                    relpath, i, "vectorized",
                    "tuples() row access in a vectorized operator "
                    "file; read per-column chunk data "
                    "(Table::column_data()) instead of boxed rows"))

        # -- pushdown ------------------------------------------------------
        # A confidence and a β on either side of a comparator, outside the
        # sanctioned implementation files: the strict `> β + ε` convention
        # must not be re-derived ad hoc (see the rule doc above).
        if in_src and relpath not in PUSHDOWN_ALLOWED_FILES and \
                not _allowed(raw, "pushdown") and \
                PUSHDOWN_CMP_RE.search(code) and \
                PUSHDOWN_CONF_RE.search(code) and PUSHDOWN_BETA_RE.search(code):
            out.append(Violation(
                relpath, i, "pushdown",
                "hand-rolled confidence-vs-beta comparison; use "
                "PolicyDecision::Allows / ClearsThreshold (or the pushdown "
                "operator files) so the strict > beta + kEpsilon convention "
                "stays in one place"))

        # -- deadline ------------------------------------------------------
        if relpath.startswith(("src/strategy/", "src/service/")) and \
                DEADLINE_CMP_RE.search(code) and not _allowed(raw, "deadline"):
            out.append(Violation(
                relpath, i, "deadline",
                "raw steady_clock::now() deadline comparison; use the "
                "Deadline helper (Expired()/RemainingSeconds()/SolveControl "
                "from common/deadline.h)"))
        if relpath.startswith("src/strategy/") and \
                DEADLINE_ARM_RE.search(code) and not _allowed(raw, "deadline"):
            out.append(Violation(
                relpath, i, "deadline",
                "solver arms its own Deadline; solvers receive the caller's "
                "deadline and never create one (wall clock must enter a solve "
                "only through the request's Deadline)"))
        if relpath.startswith("src/strategy/") and \
                (SOLVER_CLOCK_RE.search(code) or
                 SOLVER_CLOCK_INCLUDE_RE.search(raw)) and \
                not _allowed(raw, "deadline"):
            out.append(Violation(
                relpath, i, "deadline",
                "solver reads a clock; solvers see wall clock only through "
                "the caller's Deadline/SolveControl, and the engine times "
                "the solver call"))

        # -- discarded-status ---------------------------------------------
        if (in_src or in_tools) and not _allowed(raw, "discarded-status"):
            stmt = code.strip()
            m = CALL_STMT_RE.match(stmt)
            if m and m.group(1) in status_fns and \
                    not re.match(r"^(\[\[nodiscard\]\]|Status|Result<|virtual|static|return)\b",
                                 stmt):
                out.append(Violation(
                    relpath, i, "discarded-status",
                    f"result of Status-returning call {m.group(1)}() is discarded; "
                    "handle it or use PCQE_RETURN_NOT_OK"))
    return out


def gather_repo_files(root):
    files = []
    for top in SCAN_DIRS:
        for dirpath, dirnames, names in os.walk(os.path.join(root, top)):
            # Fixtures are deliberately-bad inputs for --self-test.
            dirnames[:] = [d for d in dirnames if d != "lint_fixtures"]
            for name in sorted(names):
                if name.endswith(LINT_EXTENSIONS):
                    path = os.path.join(dirpath, name)
                    relpath = os.path.relpath(path, root).replace(os.sep, "/")
                    with open(path, encoding="utf-8", errors="replace") as f:
                        files.append((path, relpath, f.read().splitlines()))
    return files


def run_lint(root, explicit_files):
    if explicit_files:
        files = []
        for path in explicit_files:
            relpath = os.path.relpath(os.path.abspath(path), root).replace(os.sep, "/")
            try:
                with open(path, encoding="utf-8", errors="replace") as f:
                    lines = f.read().splitlines()
            except OSError as e:
                print(f"pcqe_lint: cannot read {path}: {e.strerror}", file=sys.stderr)
                return 2
            # Fixture files carry the repo path they pretend to live at.
            m = FIXTURE_PATH_RE.search(lines[0]) if lines else None
            if m:
                relpath = m.group(1)
            files.append((path, relpath, lines))
    else:
        files = gather_repo_files(root)
    status_fns = collect_status_functions(files)
    violations = []
    for _, relpath, lines in files:
        violations.extend(lint_file(relpath, lines, status_fns))
    for v in violations:
        print(v)
    print(f"pcqe_lint: {len(files)} files, {len(violations)} violation(s)")
    return 1 if violations else 0


def run_self_test(fixture_dir):
    """Fixture files declare their virtual repo path on line 1 via
    `// pcqe-lint-fixture-path: src/...`. `bad_<rule>[__<variant>].(cc|h)`
    must trigger exactly that rule (the optional double-underscore variant
    suffix distinguishes multiple fixtures for one rule); `good_*` must be
    clean."""
    failures = []
    names = sorted(n for n in os.listdir(fixture_dir) if n.endswith(LINT_EXTENSIONS))
    if not names:
        print(f"pcqe_lint --self-test: no fixtures in {fixture_dir}", file=sys.stderr)
        return 2
    for name in names:
        path = os.path.join(fixture_dir, name)
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        m = FIXTURE_PATH_RE.search(lines[0]) if lines else None
        if not m:
            failures.append(f"{name}: missing pcqe-lint-fixture-path directive")
            continue
        relpath = m.group(1)
        files = [(path, relpath, lines)]
        status_fns = collect_status_functions(files)
        got = {v.rule for v in lint_file(relpath, lines, status_fns)}
        if name.startswith("good_"):
            if got:
                failures.append(f"{name}: expected clean, got {sorted(got)}")
        elif name.startswith("bad_"):
            # Rule id is everything after bad_ up to the extension (or a
            # `__variant` suffix), _ -> -.
            rule = re.match(r"bad_(.+?)(?:__\w+)?\.\w+$", name).group(1).replace("_", "-")
            if rule not in got:
                failures.append(f"{name}: expected [{rule}], got {sorted(got) or 'clean'}")
            elif got - {rule}:
                failures.append(f"{name}: unexpected extra rules {sorted(got - {rule})}")
        else:
            failures.append(f"{name}: fixture must be named bad_<rule>.* or good_*")
    for f in failures:
        print(f"pcqe_lint --self-test FAIL: {f}", file=sys.stderr)
    print(f"pcqe_lint --self-test: {len(names)} fixtures, {len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script's directory)")
    parser.add_argument("--self-test", nargs="?", const="", metavar="DIR",
                        help="run fixture self-test (default DIR: <root>/tests/lint_fixtures)")
    parser.add_argument("files", nargs="*", help="explicit files to lint")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root) if args.root else \
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if args.self_test is not None:
        fixture_dir = args.self_test or os.path.join(root, "tests", "lint_fixtures")
        return run_self_test(fixture_dir)
    return run_lint(root, args.files)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
