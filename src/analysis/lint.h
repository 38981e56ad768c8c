#ifndef CHRONOLOG_ANALYSIS_LINT_H_
#define CHRONOLOG_ANALYSIS_LINT_H_

#include <string>
#include <string_view>
#include <vector>

#include "analysis/depgraph.h"
#include "analysis/diagnostics.h"
#include "ast/program.h"

namespace chronolog {

/// Configuration of one chronolog_lint run.
struct LintOptions {
  /// Run the tractability-classification passes (separability /
  /// progressivity explanations). Purely syntactic, cheap.
  bool classify = true;
  /// Run the Theorem 5.2 inflationary decision procedure. It materialises
  /// one least model per derived temporal predicate (under the default
  /// period-detection budgets), so it is opt-in.
  bool check_inflationary = false;
  /// Optional query roots (predicate names). When non-empty, rules whose
  /// head cannot be reached from any root along the dependency graph are
  /// flagged kUnreachableFromRoots (L008). Names that do not resolve to a
  /// predicate get a kUnknownRoot (L013) note and are otherwise ignored.
  std::vector<std::string> roots;
  /// Pass names (see LintPassRegistry) to skip; empty = run everything
  /// enabled by the flags above.
  std::vector<std::string> disabled_passes;
};

/// Static description of one registered lint pass.
struct LintPassInfo {
  std::string_view name;         // stable pass name, e.g. "safety"
  std::string_view codes;        // diagnostic codes it can emit, e.g. "L001"
  std::string_view description;  // one line for --list-passes
};

/// The registered passes, in execution order.
const std::vector<LintPassInfo>& LintPassRegistry();

/// Outcome of a lint run: every diagnostic, sorted by source position.
struct LintResult {
  std::vector<Diagnostic> diagnostics;

  std::size_t CountSeverity(Severity severity) const;
  bool has_errors() const { return CountSeverity(Severity::kError) > 0; }

  /// One diagnostic per line plus a trailing "N errors, M warnings" summary
  /// line (omitted when clean).
  std::string ToString() const;
  /// {"diagnostics":[...],"errors":N,"warnings":N,"notes":N}
  std::string ToJson() const;
};

/// Runs every registered (and enabled) pass over `Z ∧ D`. Never fails: an
/// analysis that cannot complete within budget reports a note diagnostic
/// instead. Results are deterministic and independent of pass order.
LintResult LintProgram(const Program& program, const Database& database,
                       const LintOptions& options = {});

}  // namespace chronolog

#endif  // CHRONOLOG_ANALYSIS_LINT_H_
