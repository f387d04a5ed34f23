#pragma once

/**
 * @file
 * rsin-lint: a whole-tree, graph-aware static-analysis pass.
 *
 * The simulators promise two things no unit test can fully pin down:
 * bit-identical results for a given seed regardless of thread count
 * (PR 1) and NaN/status discipline on every reported estimate (PR 2).
 * Both rest on coding rules -- no ambient randomness, no wall-clock in
 * simulation paths, no iteration over unordered containers in
 * result-producing code, no float narrowing, no stray stdout, no
 * metric reads without a RunStatus check, no silent forking of Rng
 * streams, and a layered include DAG.  rsin-lint enforces those rules
 * mechanically so they survive refactors.
 *
 * The pass is deliberately lexical (comment/string-aware token
 * scanning plus a lightweight per-function scope/branch tracker, no
 * libclang): it trades soundness for zero dependencies and sub-second
 * whole-tree runs.  False positives are silenced with
 *
 *     // rsin-lint: allow(R4): reason the rule does not apply here
 *
 * on the offending line or the line above.  The reason string is
 * mandatory; a bare suppression is itself reported (rule SUP), and a
 * suppression that no longer masks any finding is reported as stale
 * (rule R9) so dead waivers cannot accumulate.
 *
 * Rule catalog (see docs/STATIC_ANALYSIS.md for the full rationale):
 *   R1  ambient randomness / wall-clock time outside src/common/rng.cpp
 *   R2  std::unordered_{map,set} in determinism-critical directories
 *       (src/des, src/rsin, src/exec, src/workload)
 *   R3  float type or f-suffixed literals in model code (src/)
 *   R4  std::cout / printf in library code (all output flows through
 *       src/common/table or src/obs)
 *   R5  SimResult metric read not dominated by a RunStatus check in
 *       its scope chain (bench/, examples/; flow-sensitive)
 *   R6  include crossing the module-layer DAG upward or sideways
 *   R7  include cycle in the file-level include graph
 *   R8  common::Rng received or captured by value outside src/common
 *       (stream-forking hazard)
 *   R9  stale suppression: an allow(...) masking no finding
 *   R11 non-reentrant call (strtok, localtime, ...) or direct file
 *       write not routed through common::writeFileAtomic, anywhere
 *       outside tests/ and src/common/fsio
 *   R12 serialized writer/parser field set drifted from the committed
 *       tools/rsin_lint/schemas.json manifest without a version bump
 *   SUP malformed suppression comment (missing reason, unknown rule)
 *
 * Data races and lock-order deadlocks are not modelled statically:
 * the ThreadSanitizer job (scripts/check.sh tsan) runs the pool,
 * sweep, analysis-cache, RunLog and ledger-writer code under real
 * contention instead.
 *
 * One run is one serial pass over the file set: strip and per-file
 * rules, then the include graph, then the R12 index, then
 * suppressions.  A cold whole-tree run takes well under a second.
 */

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace rsin {
namespace lint {

/** One rule violation at a specific source line. */
struct Finding
{
    std::string file;     ///< path as given to the linter
    std::size_t line = 0; ///< 1-based line number
    std::string rule;     ///< "R1".."R12" or "SUP"
    std::string message;  ///< human-readable explanation
    /** Optional span (0 = unknown): rules that know the exact token
     *  fill these so SARIF regions highlight the finding, not just
     *  the line. */
    std::size_t column = 0;    ///< 1-based start column
    std::size_t endLine = 0;   ///< 1-based inclusive end line
    std::size_t endColumn = 0; ///< 1-based exclusive end column
};

/** A source file handed to the analyzer under a repo-relative path. */
struct SourceFile
{
    std::string path;    ///< forward-slash repo-relative path
    std::string content; ///< full file text
};

/** One quoted #include directive in a source file. */
struct IncludeRef
{
    std::string file;     ///< including file (repo-relative path)
    std::size_t line = 0; ///< 1-based line of the directive
    std::string quoted;   ///< the path between the quotes
    std::string resolved; ///< repo-relative target; empty if unresolved
};

struct SchemaManifest; // xtu_rules.hpp

/** Per-phase wall-clock timings of one lint run (--timings). */
struct LintTimings
{
    /** (phase name, milliseconds) in execution order. */
    std::vector<std::pair<std::string, double>> phases;
    double totalMs = 0.0;
};

/** Knobs for a lint run beyond the file set itself. */
struct LintOptions
{
    /** Serialized-schema manifest driving R12; null disables R12. */
    const SchemaManifest *schemas = nullptr;
    /** Raw text of script/side files named by text-mode manifest
     *  entries, keyed by repo-relative path (see loadTextDocs()). */
    const std::map<std::string, std::string> *textDocs = nullptr;
    LintTimings *timings = nullptr;   ///< optional phase timings
};

/**
 * Lint a set of files as one program: per-file rules (R1-R5, R8,
 * R11), include-graph rules (R6 layering, R7 cycles) over the whole
 * set, R12 schema drift when a manifest is supplied, suppression
 * application, and stale-suppression detection (R9).  Paths decide
 * rule scoping (e.g. R2 only fires under src/des, src/rsin, src/exec,
 * src/workload; R11 never fires under tests/); they are matched
 * textually, so callers pass repo-relative paths with forward
 * slashes.  Findings come back sorted by (file, line, rule).
 */
std::vector<Finding> lintFiles(const std::vector<SourceFile> &files,
                               const LintOptions &options);

/** lintFiles() with default options (R12 off). */
std::vector<Finding> lintFiles(const std::vector<SourceFile> &files);

/** Lint one translation unit: lintFiles() with a single-element set. */
std::vector<Finding> lintSource(const std::string &path,
                                const std::string &content);

/** Result of a whole-tree walk. */
struct TreeReport
{
    std::vector<Finding> findings;
    /** Files that could not be read; the caller must report these and
     *  exit non-zero rather than pretend the tree was fully linted. */
    std::vector<std::string> unreadable;
    LintTimings timings;
};

/**
 * Walk @p root's src/, bench/, examples/, tools/ and tests/ trees and
 * lint every .cpp/.hpp/.h file as one set (lint test fixtures under
 * tests/lint_fixtures/ are excluded -- they violate rules on purpose).
 * When @p root contains tools/rsin_lint/schemas.json it is loaded as
 * the R12 manifest (malformed manifests throw -- a silently ignored
 * manifest would turn R12 off).  Unreadable files are collected in
 * TreeReport::unreadable instead of silently skipped.  Throws
 * FatalError when @p root lacks those directories entirely.
 */
TreeReport lintTree(const std::string &root);

/** Render findings one per line: "file:line: [rule] message". */
std::string formatFindings(const std::vector<Finding> &findings);

} // namespace lint
} // namespace rsin
