#pragma once

/**
 * @file
 * Include-graph extraction and the module-layer DAG (rules R6/R7).
 *
 * The repo's architecture is a layered DAG over the source modules:
 *
 *     common
 *       |
 *     { la, logic, markov, topology }
 *       |
 *     des
 *       |
 *     { queueing, packet, workload, sched }
 *       |
 *     rsin
 *       |
 *     { exec, obs }
 *       |
 *     { bench, examples, tools }       (leaves)
 *       |
 *     tests                            (may include everything)
 *
 * A module may include itself and any module of a *strictly lower*
 * rank; sibling modules inside one brace group are independent
 * subsystems and may not include each other.  R6 reports every quoted
 * include that violates this table; R7 reports include cycles in the
 * file-level graph with the full offending chain.
 *
 * Extraction is textual (`#include "..."` lines only; angle includes
 * are system headers and out of scope).  Resolution prefers the real
 * file set when one is supplied (same directory first, then the
 * include roots src/ and tools/rsin_lint/) and falls back to a purely
 * textual mapping so single-file lints still classify
 * "common/rng.hpp" as module `common`.
 */

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "lint.hpp"

namespace rsin {
namespace lint {

/** Scan @p content for `#include "..."` directives. */
std::vector<IncludeRef> extractIncludes(const std::string &file,
                                        const std::string &content);

/**
 * Module name of a repo-relative path: "src/des/simulator.hpp" -> "des",
 * "bench/fig.cpp" -> "bench".  Empty when the path maps to no module
 * (e.g. tests/lint_fixtures or an unknown top-level directory).
 */
std::string moduleOf(const std::string &path);

/** Layer rank of a module per the DAG above; -1 for unknown modules. */
int layerRank(const std::string &module);

/**
 * Resolve @p quoted as included from @p includer against the file set
 * @p files (same directory, then src/, then tools/rsin_lint/).
 * Returns the repo-relative target path, or "" when the include points
 * outside the set.
 */
std::string resolveInclude(const std::string &includer,
                           const std::string &quoted,
                           const std::set<std::string> &files);

/**
 * R6: layering violations among @p includes.  Resolution uses @p files
 * when non-empty and falls back to the textual mapping, so the rule
 * fires even in single-file runs.
 */
std::vector<Finding> checkLayering(const std::vector<IncludeRef> &includes,
                                   const std::set<std::string> &files);

/**
 * R7: include cycles.  Only edges that resolve inside @p files
 * participate.  Each cycle is reported once, anchored at the
 * lexicographically smallest file on it, with the full chain
 * "a.hpp -> b.hpp -> a.hpp" in the message.
 */
std::vector<Finding> checkCycles(const std::vector<IncludeRef> &includes,
                                 const std::set<std::string> &files);

} // namespace lint
} // namespace rsin
