// One pass of a workload: build and load the cluster, run the closed loop
// for warmup + window of simulated time, drain, quiesce, and check the store
// against the benchmark's model. Every figure a pass produces is kept here;
// main.cc pools passes into the reported metrics.

#ifndef MVSTORE_PERFBENCH_PASS_H_
#define MVSTORE_PERFBENCH_PASS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "perfbench/critical_path.h"
#include "perfbench/workloads.h"

namespace perfbench {

/// Per-layer instruments over the measurement window: the program's
/// Metrics counters and histograms by registry name, plus the simulation,
/// network and tracer counters under "sim.*" / "trace.*" names.
struct LayerStats {
  std::map<std::string, double> counters;
  std::map<std::string, mvstore::Histogram> histograms;

  double Counter(const std::string& name) const;
  const mvstore::Histogram& Hist(const std::string& name) const;
  void Add(const LayerStats& other);
};

struct PassResult {
  // Simulated fingerprint.
  std::uint64_t sim_events = 0;     ///< events executed over the pass
  std::uint64_t client_ops = 0;     ///< client ops completed over the pass
  mvstore::SimTime end_time = 0;    ///< simulated time after quiescing

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few failed ops
  std::vector<std::string> problems;  ///< end-of-run model disagreements

  // Simulated clock: client-observed samples completing in the window.
  mvstore::SimTime window = 0;
  std::uint64_t window_ops = 0;
  std::vector<double> read_us;
  std::vector<double> write_us;
  std::vector<double> visible_us;
  std::vector<double> aggregate_us;
  std::uint64_t view_queries = 0;  ///< eventual projection queries
  std::uint64_t empty_answers = 0;
  LayerStats layer;
  std::uint64_t abandoned = 0;  ///< over the whole pass
  double entries_per_live_row = 0;
  double runs_max = 0;
  std::vector<PathBreakdown> read_paths;
  std::vector<PathBreakdown> write_paths;

  // Harness clock (process CPU seconds).
  double setup_cpu_s = 0;
  double run_cpu_s = 0;  ///< from the first op issued to the last completed
  double quiesce_cpu_s = 0;
  double check_cpu_s = 0;

  /// Digest of everything simulated: equal digests mean the pass simulated
  /// exactly the same work and observed exactly the same latencies.
  std::uint64_t SimDigest() const;
};

/// Runs one pass of `workload` on `seed`. With `collect_paths`, sampled
/// ops' spans are collected as each op completes and reduced to their
/// critical paths (read-only: the simulation is unchanged).
PassResult RunPass(const Workload& workload, std::uint64_t seed,
                   bool collect_paths);

}  // namespace perfbench

#endif  // MVSTORE_PERFBENCH_PASS_H_
