#ifndef HERMES_TOOLS_DETLINT_REPORT_H_
#define HERMES_TOOLS_DETLINT_REPORT_H_

// detlint reporting: the human-readable text report (stdout, the format
// CI logs and developers read) and a SARIF 2.1.0 document so CI can
// surface findings as code annotations and archive them as artifacts.

#include <cstdio>
#include <string>

#include "rules.h"

namespace detlint {

/// Prints the classic text report to `out` and returns the error count:
/// unsuppressed findings + suppression problems (unknown rule, missing
/// justification, unused). `file_count` feeds the
/// summary line.
int PrintTextReport(const AnalysisResult& result, size_t file_count,
                    std::FILE* out);

/// Renders the same diagnostics as a SARIF 2.1.0 run: findings and
/// suppression problems as "error" results, honored
/// suppressions as "note" results, with the full rule catalog as tool
/// metadata.
std::string SarifReport(const AnalysisResult& result);

}  // namespace detlint

#endif  // HERMES_TOOLS_DETLINT_REPORT_H_
