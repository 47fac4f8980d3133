// Replica unit tests: the storage half of a server, built alone from its
// dependencies (no Cluster, no Server, no network) — index maintenance on
// apply, the row-cache-aware read demand, and crash recovery from the
// commit log.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulation.h"
#include "storage/row.h"
#include "store/config.h"
#include "store/metrics.h"
#include "store/replica.h"
#include "store/schema.h"

namespace mvstore {
namespace {

struct ReplicaFixture {
  explicit ReplicaFixture(std::size_t row_cache_entries = 0) {
    MVSTORE_CHECK(schema.CreateTable({.name = "ticket"}).ok());
    MVSTORE_CHECK(
        schema.CreateIndex({.table = "ticket", .column = "assigned_to"})
            .ok());
    config.row_cache_entries = row_cache_entries;
    replica = std::make_unique<store::Replica>(0, &sim, &schema, &config,
                                               &metrics, /*tracer=*/nullptr);
  }

  /// Applies `column` = `value` at `ts` to ticket `key`.
  void Write(const Key& key, const ColumnName& column, const Value& value,
             Timestamp ts) {
    storage::Row cells;
    cells.Apply(column, storage::Cell::Live(value, ts));
    replica->LocalApply("ticket", key, cells);
  }

  /// Keys the index fragment returns for assigned_to == `who`.
  std::vector<Key> Probe(const std::string& who) {
    std::vector<Key> keys;
    for (const auto& kr : replica->LocalIndexProbe("ticket", "assigned_to",
                                                   who)) {
      keys.push_back(kr.key);
    }
    return keys;
  }

  sim::Simulation sim;
  store::Schema schema;
  store::ClusterConfig config;
  store::Metrics metrics;
  std::unique_ptr<store::Replica> replica;
};

TEST(ReplicaTest, IndexedColumnChangeMovesKeyBetweenProbes) {
  ReplicaFixture f;
  f.Write("1", "assigned_to", "alice", 10);
  EXPECT_EQ(f.Probe("alice"), std::vector<Key>{"1"});
  const std::uint64_t after_insert = f.metrics.index_updates;

  f.Write("1", "assigned_to", "bob", 20);
  EXPECT_TRUE(f.Probe("alice").empty());
  EXPECT_EQ(f.Probe("bob"), std::vector<Key>{"1"});
  EXPECT_EQ(f.metrics.index_updates, after_insert + 1);

  // A newer write of the same value leaves the fragment untouched.
  f.Write("1", "assigned_to", "bob", 30);
  EXPECT_EQ(f.Probe("bob"), std::vector<Key>{"1"});
  EXPECT_EQ(f.metrics.index_updates, after_insert + 1);
}

TEST(ReplicaTest, ReadDemandFollowsTheRowCache) {
  ReplicaFixture f(/*row_cache_entries=*/16);
  const store::PerfModel& perf = f.config.perf;
  ASSERT_NE(perf.read_local, perf.read_cached_local);
  // Unindexed writes: index maintenance reads the row back after an apply
  // of an indexed column, which re-caches it.
  f.Write("1", "status", "open", 10);
  EXPECT_EQ(f.replica->ReadServiceFor("ticket", "1"), perf.read_local);

  f.replica->LocalRead("ticket", "1", {});
  EXPECT_EQ(f.replica->ReadServiceFor("ticket", "1"), perf.read_cached_local);

  // An apply invalidates the cached row.
  f.Write("1", "status", "closed", 20);
  EXPECT_EQ(f.replica->ReadServiceFor("ticket", "1"), perf.read_local);
}

TEST(ReplicaTest, RecoverFromLogRestoresUnflushedRow) {
  ReplicaFixture f;
  f.Write("1", "assigned_to", "alice", 10);
  ASSERT_EQ(f.replica->EngineFor("ticket").num_runs(), 0u)
      << "the row must still sit in the memtable only";

  f.replica->LoseVolatileState();
  EXPECT_FALSE(f.replica->LocalRead("ticket", "1", {})
                   .GetValue("assigned_to")
                   .has_value());

  f.replica->RecoverFromLog();
  EXPECT_EQ(f.replica->LocalRead("ticket", "1", {})
                .GetValue("assigned_to")
                .value_or(""),
            "alice");
  EXPECT_GT(f.metrics.wal_cells_replayed, 0u);
}

}  // namespace
}  // namespace mvstore
