// The replica role of a server (PAPER.md §1's system model): one LSM-lite
// engine per table, the local fragments of every secondary index, the row
// cache the engines share, and the local handlers that peer messages run.
//
// A Replica knows nothing of coordination. Its Server owns it, reaches it
// through replica(), and charges every handler through its own service
// queue; the replica only says what each piece of work demands.

#ifndef MVSTORE_STORE_REPLICA_H_
#define MVSTORE_STORE_REPLICA_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/trace.h"
#include "common/types.h"
#include "index/local_index.h"
#include "sim/simulation.h"
#include "storage/engine.h"
#include "storage/row_cache.h"
#include "store/config.h"
#include "store/metrics.h"
#include "store/schema.h"

namespace mvstore::store {

class Replica {
 public:
  /// `tracer` may be null. The replica keeps the pointers; every one must
  /// outlive it.
  Replica(ServerId id, sim::Simulation* sim, const Schema* schema,
          const ClusterConfig* config, Metrics* metrics, Tracer* tracer);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// The local storage engine of `table` (bootstrap loading, scrub, tests).
  /// Creates the engine on first use.
  storage::Engine& EngineFor(const std::string& table);

  /// The engine of `table`, or null when this replica never stored a row
  /// of it. Creates nothing.
  const storage::Engine* FindEngine(const std::string& table) const;

  using EngineMap = std::map<std::string, std::unique_ptr<storage::Engine>>;
  /// Every engine, by table name.
  const EngineMap& engines() const { return engines_; }

  /// Local read of requested columns (all columns when empty). Returns an
  /// empty row when the key is absent.
  storage::Row LocalRead(const std::string& table, const Key& key,
                         const std::vector<ColumnName>& columns);

  /// Local LWW apply + synchronous maintenance of local index fragments.
  void LocalApply(const std::string& table, const Key& key,
                  const storage::Row& cells);

  /// LocalApply of every row in `rows` (repair and stream batches).
  void ApplyRows(const std::string& table,
                 const std::vector<storage::KeyedRow>& rows);

  /// Local merged prefix scan.
  std::vector<storage::KeyedRow> LocalScanPrefix(const std::string& table,
                                                 const Key& prefix);

  /// Probe this replica's index fragment; returns matching local rows.
  std::vector<storage::KeyedRow> LocalIndexProbe(const std::string& table,
                                                 const ColumnName& column,
                                                 const Value& value);

  /// Full local scan of `table` for rows whose `column` equals `value`
  /// (no index consulted).
  std::vector<storage::KeyedRow> LocalMatchScan(const std::string& table,
                                                const ColumnName& column,
                                                const Value& value);

  /// Service demand of a local point read of (table, key): the cached rate
  /// when this replica's row cache holds the key, the full rate otherwise.
  SimTime ReadServiceFor(const std::string& table, const Key& key) const;

  /// Service demand of applying `cells` to `table`: the base write plus
  /// synchronous maintenance of each index fragment whose column is written.
  SimTime WriteServiceFor(const std::string& table,
                          const storage::Row& cells) const;

  /// Populates the row cache for a bootstrap-loaded key (loading applies
  /// rows, and applies invalidate — warming restores the "hot replica"
  /// steady state the benches measure from). No-op without a cache.
  void WarmRowCache(const std::string& table, const Key& key);

  /// Service demand of compacting `engine`: scales with its merge width.
  SimTime CompactionDemand(const storage::Engine& engine) const;

  /// Flush + merge + tombstone GC of `engine`. Tombstones at or above
  /// `purge_floor` survive (a delete may still be owed to another replica);
  /// `demand` is what the round charged for it.
  void Compact(storage::Engine& engine, Timestamp purge_floor,
               SimTime demand);

  /// Crash: every engine drops its memtable (commit logs and flushed runs
  /// are durable).
  void LoseVolatileState();

  /// Restart: every engine replays its commit log into a fresh memtable.
  void RecoverFromLog();

 private:
  ServerId id_;
  sim::Simulation* sim_;
  const Schema* schema_;
  const ClusterConfig* config_;
  Metrics* metrics_;
  Tracer* tracer_;

  /// Shared by every engine, namespaced by table name; null when
  /// `row_cache_entries` == 0 (caching compiled out of the read path).
  std::unique_ptr<storage::RowCache> row_cache_;
  EngineMap engines_;
  std::vector<std::unique_ptr<index::LocalIndex>> indexes_;
};

}  // namespace mvstore::store

#endif  // MVSTORE_STORE_REPLICA_H_
