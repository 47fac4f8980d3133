// The benchmark's workloads: cluster configuration, schema, initial rows and
// closed-loop operation mix of each. README.md says why each one exists and
// which layer it loads.

#ifndef MVSTORE_PERFBENCH_WORKLOADS_H_
#define MVSTORE_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/model.h"
#include "store/config.h"
#include "store/schema.h"

namespace perfbench {

enum class Op {
  kGet,             ///< base-table Get of a row
  kViewQuery,       ///< projection-view query at kEventual
  kBoundedQuery,    ///< projection-view query at kBoundedStaleness
  kAggregateQuery,  ///< SUM aggregate-view query
  kIndexProbe,      ///< secondary-index probe
  kKeyUpdate,       ///< Put moving a row to another view key
  kValueUpdate,     ///< Put changing the materialized / summed column
};

/// Column 0 of every workload's table is the view key; column 1 is the
/// column its projection view materializes (and its aggregate sums). The
/// first view is the projection view that queries and sessions read.
struct Workload {
  std::string name;
  std::size_t rows = 0;
  /// > 0: row-targeted operations pick from a seed-chosen hot set of this
  /// many rows; 0: uniformly over every row.
  std::size_t hot_rows = 0;
  /// > 0: the view key is a group id in [0, groups) and group-targeted
  /// reads pick groups zipfian (theta 0.99); 0: the view key is unique per
  /// row and reads target the current key of a chosen row.
  int groups = 0;
  int clients = 0;
  /// How many of `clients` are session clients: each loops on a view-key
  /// update followed by a read-your-writes query of the new key.
  int session_clients = 0;
  mvstore::SimTime warmup = 0;
  mvstore::SimTime window = 0;
  /// Passes, each on its own derived seed, whose simulated results are
  /// pooled into the simulated-clock metrics.
  int sim_passes = 1;
  /// Operation mix of the other clients (weights sum to 1).
  std::vector<std::pair<Op, double>> mix;
  TableSpec spec;

  // Departures from the paper-calibrated cluster (see Config).
  std::size_t row_cache_entries = 0;
  std::size_t memtable_flush_entries = 0;  ///< 0 = the engine default
  mvstore::SimTime anti_entropy_interval = 0;
  mvstore::SimTime compaction_interval = 0;
  mvstore::SimTime view_scan_per_row = 0;
  int view_shards = 1;

  mvstore::store::ClusterConfig Config(std::uint64_t seed) const;
  mvstore::store::Schema Schema() const;
  /// Bootstrap values of row `rank`, one per spec column.
  std::vector<Value> Initial(std::size_t rank) const;
  /// The group id formatted as a view key.
  static Value GroupKey(std::uint64_t group);
};

/// The workload named `name`, or nullptr.
const Workload* FindWorkload(const std::string& name);

}  // namespace perfbench

#endif  // MVSTORE_PERFBENCH_WORKLOADS_H_
