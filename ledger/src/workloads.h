// The three ledger workloads. Each runs set-up (repeated, median reported
// as setup_s), then a closed measurement loop for `config.seconds`, checks
// every answer against an oracle that does not share the measured path, and
// returns its metrics: end-to-end ones untraced, per-layer ones when
// `config.trace` (the traced run first measures an untraced half to report
// bench.trace_overhead). A per-layer metric whose layer the workload does
// not reach is reported as an explicit 0 (AddUnreached).
#ifndef LEDGER_WORKLOADS_H_
#define LEDGER_WORKLOADS_H_

#include "common.h"

namespace ledger {

/// `TemporalDatabase::FromSource` + `specification()` over a time-balanced
/// mix of join-heavy and horizon-heavy program families.
Outcome RunBuildWorkload(const RunConfig& config);

/// `RunBt` on ground atoms at seeded depths h in [10^3, 10^5].
Outcome RunBtWorkload(const RunConfig& config);

/// Closed-loop POST /query traffic from two keep-alive clients against an
/// in-process HttpServer, with an operator scrape about once a second.
Outcome RunServeWorkload(const RunConfig& config);

}  // namespace ledger

#endif  // LEDGER_WORKLOADS_H_
