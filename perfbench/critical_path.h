// Critical-path reduction of one client operation's span tree.
//
// The program records a span per causal hop: the client op (`client.*`),
// network hops (`net a->b`), service-queue slots (`svc`, annotated with
// `queue_wait_us=N` when the work queued), coordinator ops (`quorum.*`) and
// view waits (`view.lock_wait`, `view.session_defer`, `view.read_spin`).
// The op completes when the reply hop reaches the client, so its critical
// path is the ancestor chain of the deepest span ending at the root's end.
// Along that chain each span's self time is the time until its chain child
// started (for the last span, its whole duration); self times sum to the
// op's latency and are binned into the categories below. Self time of other
// spans (client, quorum bookkeeping, timers) is in no category.

#ifndef MVSTORE_PERFBENCH_CRITICAL_PATH_H_
#define MVSTORE_PERFBENCH_CRITICAL_PATH_H_

#include <optional>
#include <vector>

#include "common/trace.h"

namespace perfbench {

struct PathBreakdown {
  double net_us = 0;
  double queue_us = 0;
  double service_us = 0;
  double view_wait_us = 0;
};

/// Reduces the events of one finished operation's trace (Tracer::Collect);
/// nullopt when the root is missing or unfinished, or evictions broke the
/// chain.
std::optional<PathBreakdown> ReduceCriticalPath(
    const std::vector<mvstore::TraceEvent>& events);

}  // namespace perfbench

#endif  // MVSTORE_PERFBENCH_CRITICAL_PATH_H_
