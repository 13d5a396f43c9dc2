/**
 * @file
 * The determinism linter's token rules, run file by file by
 * softwatt-analyze beside its whole-program rules.
 *
 * A small source scanner enforcing the repo's reproducibility
 * contract: simulation results must be a pure function of the
 * configuration, so sources must not reach for ambient
 * nondeterminism (wall clocks, global RNGs), must not hard-exit past
 * the error-handler path, must not emit reports from unordered
 * containers, and must use the SW_ASSERT/SW_CHECK contract macros
 * instead of raw assert(). The scanning substrate (masking, file
 * walking, suppressions, JSON emission) lives in tools/common.
 */

#ifndef SOFTWATT_TOOLS_LINT_SOFTWATT_LINT_HH
#define SOFTWATT_TOOLS_LINT_SOFTWATT_LINT_HH

#include <string>
#include <vector>

#include "common/scanner.hh"

namespace softwatt::lint
{

/** One rule violation at a source location. */
using Issue = tools::Finding;

/** Checked-in "path rule" suppression list (tools/common). */
using Suppressions = tools::Suppressions;

using tools::maskCommentsAndStrings;

/**
 * Lint one file. @p path is the repo-relative path (rule scoping and
 * suppressions match against it); @p source is the file contents.
 * Returned issues are in line order. Suppressed issues are dropped
 * and the matching suppression entries marked used, so callers can
 * warn about entries that no longer silence anything.
 */
std::vector<Issue> lintSource(const std::string &path,
                              const std::string &source,
                              const Suppressions &suppressions);

} // namespace softwatt::lint

#endif // SOFTWATT_TOOLS_LINT_SOFTWATT_LINT_HH
