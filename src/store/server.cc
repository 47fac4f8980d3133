#include "store/server.h"

#include <algorithm>
#include <queue>
#include <set>
#include <utility>

#include "common/logging.h"
#include "store/codec.h"
#include "store/quorum_op.h"

namespace mvstore::store {

namespace {

/// LWW merge of every answered slot's row.
storage::Row MergeRowResponses(
    const std::vector<std::optional<storage::Row>>& responses) {
  storage::Row merged;
  for (const auto& row : responses) {
    if (row) merged.MergeFrom(*row);
  }
  return merged;
}

/// LWW merge of every answered slot's scan result, keyed by row.
std::map<Key, storage::Row> MergeScanResponses(
    const std::vector<std::optional<std::vector<storage::KeyedRow>>>&
        responses) {
  std::map<Key, storage::Row> merged;
  for (const auto& response : responses) {
    if (!response) continue;
    for (const auto& kr : *response) {
      merged[kr.key].MergeFrom(kr.row);
    }
  }
  return merged;
}

}  // namespace

Server::Server(ServerId id, sim::Simulation* sim, sim::Network* network,
               const Schema* schema, const Ring* ring,
               const ClusterConfig* config, Metrics* metrics, Tracer* tracer)
    : id_(id),
      sim_(sim),
      network_(network),
      schema_(schema),
      ring_(ring),
      config_(config),
      metrics_(metrics),
      tracer_(tracer),
      queue_(sim, config->cores_per_server) {
  queue_.set_tracer(tracer_, static_cast<int>(id_));
  queue_.set_stage_histograms(&metrics_->stage_queue_wait,
                              &metrics_->stage_service);
  // Row cache off (the default) means no cache object at all: every read
  // takes the exact pre-cache code path, keeping same-seed runs bit-identical
  // to a build without the feature.
  if (config_->row_cache_entries > 0) {
    row_cache_ =
        std::make_unique<storage::RowCache>(config_->row_cache_entries);
  }
  // One local index fragment per index definition in the schema.
  for (const std::string& table : schema_->TableNames()) {
    for (const IndexDef& def : schema_->IndexesOn(table)) {
      indexes_.push_back(
          std::make_unique<index::LocalIndex>(def.table, def.column));
    }
  }
}

storage::Engine& Server::EngineFor(const std::string& table) {
  auto it = engines_.find(table);
  if (it == engines_.end()) {
    it = engines_
             .emplace(table,
                      std::make_unique<storage::Engine>(config_->engine))
             .first;
    if (row_cache_ != nullptr) {
      // All of this server's engines share the one cache, namespaced by
      // table name.
      it->second->set_row_cache(row_cache_.get(), table);
    }
  }
  return *it->second;
}

std::string_view Server::PartitionViewFor(const std::string& table,
                                          const Key& key) const {
  const TableDef* def = schema_->GetTable(table);
  if (def != nullptr && def->composite_keys) {
    return PartitionPrefixViewOf(key);
  }
  return key;
}

const std::vector<ServerId>& Server::ReplicasOf(const std::string& table,
                                                const Key& key) const {
  const KeyRef ref = placement_keys_.Intern(PartitionViewFor(table, key));
  if (ref.id >= placement_cache_.size()) {
    placement_cache_.resize(static_cast<std::size_t>(ref.id) + 1);
  }
  PlacementEntry& entry = placement_cache_[ref.id];
  const std::uint64_t version = ring_->version();
  if (!entry.valid || entry.ring_version != version) {
    entry.replicas = ring_->ReplicasFor(placement_keys_.View(ref),
                                        config_->replication_factor);
    entry.ring_version = version;
    entry.valid = true;
  }
  return entry.replicas;
}

SimTime Server::ReadServiceFor(const std::string& table,
                               const Key& key) const {
  if (row_cache_ != nullptr && row_cache_->Contains(table, key)) {
    return config_->perf.read_cached_local;
  }
  return config_->perf.read_local;
}

void Server::WarmRowCache(const std::string& table, const Key& key) {
  if (row_cache_ == nullptr) return;
  // GetRow populates the cache as a side effect when the key exists.
  EngineFor(table).GetRow(key);
}

// ---------------------------------------------------------------------------
// Local replica handlers.
// ---------------------------------------------------------------------------

storage::Row Server::LocalRead(const std::string& table, const Key& key,
                               const std::vector<ColumnName>& columns) {
  metrics_->replica_reads++;
  storage::Engine& engine = EngineFor(table);
  const std::uint64_t hits_before =
      row_cache_ != nullptr ? row_cache_->hits() : 0;
  const std::uint64_t misses_before =
      row_cache_ != nullptr ? row_cache_->misses() : 0;
  storage::Row result;
  if (columns.empty()) {
    if (auto row = engine.GetRow(key)) result = *std::move(row);
  } else {
    for (const ColumnName& col : columns) {
      if (auto cell = engine.GetCell(key, col)) {
        result.Apply(col, *cell);
      }
    }
  }
  if (row_cache_ != nullptr) {
    // Delta-sample the cache so per-column reads of one hot row still count
    // as one logical probe each.
    const std::uint64_t hit_delta = row_cache_->hits() - hits_before;
    const std::uint64_t miss_delta = row_cache_->misses() - misses_before;
    metrics_->row_cache_hits += hit_delta;
    metrics_->row_cache_misses += miss_delta;
    if (tracer_ != nullptr && tracer_->current() &&
        (hit_delta > 0 || miss_delta > 0)) {
      tracer_->Mark(tracer_->current(),
                    hit_delta > 0 ? "cache.hit" : "cache.miss",
                    static_cast<int>(id_), sim_->Now(), table + "/" + key);
    }
  }
  return result;
}

void Server::LocalApply(const std::string& table, const Key& key,
                        const storage::Row& cells) {
  metrics_->replica_writes++;
  storage::Engine& engine = EngineFor(table);

  // Snapshot indexed-column values before the merge so the local index
  // fragments can be maintained synchronously (Cassandra-style).
  std::vector<std::pair<index::LocalIndex*, std::optional<Value>>> touched;
  for (const auto& index : indexes_) {
    if (index->table() != table) continue;
    if (!cells.Get(index->column())) continue;  // column not written
    std::optional<Value> before;
    if (auto cell = engine.GetCell(key, index->column());
        cell && !cell->tombstone) {
      before = cell->value;
    }
    touched.emplace_back(index.get(), std::move(before));
  }

  engine.ApplyRow(key, cells);

  for (auto& [index, before] : touched) {
    std::optional<Value> after;
    if (auto cell = engine.GetCell(key, index->column());
        cell && !cell->tombstone) {
      after = cell->value;
    }
    if (before != after) {
      index->Update(key, before, after);
      metrics_->index_updates++;
    }
  }
}

storage::Row Server::LocalReadThenApply(
    const std::string& table, const Key& key,
    const std::vector<ColumnName>& read_columns, const storage::Row& cells) {
  storage::Row pre_image = LocalRead(table, key, read_columns);
  LocalApply(table, key, cells);
  return pre_image;
}

std::vector<storage::KeyedRow> Server::LocalScanPrefix(
    const std::string& table, const Key& prefix) {
  metrics_->replica_reads++;
  std::vector<storage::KeyedRow> result;
  EngineFor(table).ScanPrefix(prefix, [&](const Key& key,
                                          const storage::Row& row) {
    result.push_back(storage::KeyedRow{key, row});
  });
  return result;
}

std::vector<storage::KeyedRow> Server::LocalIndexProbe(
    const std::string& table, const ColumnName& column, const Value& value) {
  metrics_->index_fragment_probes++;
  std::vector<storage::KeyedRow> result;
  for (const auto& index : indexes_) {
    if (index->table() != table || index->column() != column) continue;
    storage::Engine& engine = EngineFor(table);
    for (const Key& key : index->Lookup(value)) {
      if (auto row = engine.GetRow(key)) {
        result.push_back(storage::KeyedRow{key, *std::move(row)});
      }
    }
    break;
  }
  return result;
}

std::vector<storage::KeyedRow> Server::LocalMatchScan(
    const std::string& table, const ColumnName& column, const Value& value) {
  metrics_->replica_reads++;
  std::vector<storage::KeyedRow> result;
  EngineFor(table).ForEach([&](const Key& key, const storage::Row& row) {
    auto current = row.GetValue(column);
    if (current && *current == value) {
      result.push_back(storage::KeyedRow{key, row});
    }
  });
  return result;
}

// ---------------------------------------------------------------------------
// Quorum read: a QuorumOp policy. The merge rule is LWW across the answered
// slots; settlement pushes read repair to stale responders (never on abort —
// a dead process cannot push repairs) and hands every reachable replica's
// raw response to `collect_all` (Algorithm 1's version collection).
// ---------------------------------------------------------------------------

void Server::CoordinateRead(
    const std::string& table, const Key& key, std::vector<ColumnName> columns,
    int read_quorum, std::function<void(StatusOr<storage::Row>)> callback,
    std::function<void(std::vector<storage::Row>)> collect_all) {
  using Op = QuorumOp<storage::Row>;
  Op::Spec spec;
  spec.name = "read";
  spec.targets = ReplicasOf(table, key);
  spec.quorum = read_quorum;
  spec.service = FixedService(config_->perf.read_local);
  if (config_->row_cache_entries > 0) {
    // A cached row costs read_cached_local on its replica instead of the
    // full merge.
    spec.service = [table, key](Server& s) {
      return s.ReadServiceFor(table, key);
    };
  }
  spec.request = [table, key, columns = std::move(columns)](Server& s) {
    return s.LocalRead(table, key, columns);
  };
  spec.quorum_error = "read quorum not reached";
  spec.on_quorum = [callback](Op& op) {
    callback(MergeRowResponses(op.responses()));
  };
  spec.on_error = Op::FailWith(std::move(callback));
  spec.on_settled = [table, key, collect_all = std::move(collect_all)](
                        Op& op, bool aborted) {
    Server& coord = op.coordinator();
    if (!aborted) {
      // Read repair: push the merged image to every replica that answered
      // with something older (rides the replica-write batch when enabled).
      storage::Row merged = MergeRowResponses(op.responses());
      if (!merged.empty()) {
        for (std::size_t i = 0; i < op.targets().size(); ++i) {
          if (op.responses()[i] && !(*op.responses()[i] == merged)) {
            coord.metrics()->read_repairs++;
            coord.SendReplicaWrite(op.targets()[i], table, key, merged,
                                   coord.config().perf.write_local,
                                   [](bool) {});
          }
        }
      }
    }
    if (collect_all) {
      std::vector<storage::Row> collected;
      for (const auto& row : op.responses()) {
        if (row) collected.push_back(*row);
      }
      collect_all(std::move(collected));
    }
  };
  Op::Start(this, std::move(spec));
}

// ---------------------------------------------------------------------------
// Quorum write: a QuorumOp policy shipping through the replica-write batch.
// Hinted handoff for unacknowledged targets is the framework's doing (the
// spec carries the hint payload).
// ---------------------------------------------------------------------------

// Per-replica service demand of applying `cells` to `table`: the base write
// plus synchronous maintenance of each local index fragment whose column is
// being written (Cassandra-style).
SimTime Server::WriteServiceFor(const std::string& table,
                                const storage::Row& cells) const {
  SimTime service = config_->perf.write_local;
  for (const IndexDef& index : schema_->IndexesOn(table)) {
    if (cells.Get(index.column)) {
      service += config_->perf.index_update_local;
    }
  }
  return service;
}

void Server::CoordinateWrite(const std::string& table, const Key& key,
                             const storage::Row& cells, int write_quorum,
                             std::function<void(Status)> callback) {
  using Op = QuorumOp<bool>;
  Op::Spec spec;
  spec.name = "write";
  spec.targets = ReplicasOf(table, key);
  spec.quorum = write_quorum;
  const SimTime service = WriteServiceFor(table, cells);
  spec.send = [table, key, cells, service](
                  Server& coord, ServerId to,
                  std::function<void(bool)> on_reply) {
    coord.SendReplicaWrite(to, table, key, cells, service,
                           std::move(on_reply));
  };
  spec.quorum_error = "write quorum not reached";
  spec.hint_table = table;
  spec.hint_key = key;
  spec.hint_cells = cells;
  spec.on_quorum = [callback](Op&) { callback(Status::OK()); };
  spec.on_error = Op::FailWith(std::move(callback));
  Op::Start(this, std::move(spec));
}

void Server::SendReplicaWrite(ServerId to, const std::string& table,
                              const Key& key, const storage::Row& cells,
                              SimTime service,
                              UniqueFn<void(bool)> on_ack) {
  if (config_->write_batch_max <= 1) {
    CallPeer<bool>(
        to, FixedService(service),
        [table, key, cells](Server& s) {
          s.LocalApply(table, key, cells);
          return true;
        },
        std::move(on_ack));
    return;
  }
  ReplicaWriteLane& lane = write_lanes_[to];
  lane.parked.push_back(PendingReplicaWrite{table, key, cells, service,
                                            std::move(on_ack), sim_->Now()});
  // Nagle gate: while the lane is idle the mutation ships at once (a batch
  // of one — no latency is ever added to a solo write). Only while a batch
  // is in flight do later mutations park, so batch size adapts to how many
  // writes arrive per round trip.
  if (lane.in_flight == 0 ||
      static_cast<int>(lane.parked.size()) >= config_->write_batch_max) {
    FlushReplicaWrites(to);
    return;
  }
  if (lane.parked.size() == 1) {
    // First mutation parked in this flight: arm the fallback flush timer so
    // a lost ack can only stall parked writes for write_batch_delay. An
    // earlier flush may empty the lane first, in which case the timer
    // flushes whatever newer batch has formed by then (or nothing).
    After(config_->write_batch_delay, [this, to] { FlushReplicaWrites(to); });
  }
}

void Server::FlushReplicaWrites(ServerId to) {
  auto it = write_lanes_.find(to);
  if (it == write_lanes_.end() || it->second.parked.empty()) return;
  ReplicaWriteLane& lane = it->second;
  std::vector<PendingReplicaWrite> batch = std::move(lane.parked);
  lane.parked.clear();
  ++lane.in_flight;
  metrics_->replica_write_batches++;
  const SimTime now = sim_->Now();
  const std::uint64_t payloads = batch.size();
  SimTime service = 0;
  // Split the batch: the acks stay on this coordinator (the reply closure
  // owns them), the payload rows move into the request closure outright —
  // no shared ownership, no copy of the batched cells.
  std::vector<UniqueFn<void(bool)>> acks;
  acks.reserve(batch.size());
  for (PendingReplicaWrite& item : batch) {
    metrics_->stage_batch_flush.Record(now - item.enqueued_at);
    service += item.service;
    acks.push_back(std::move(item.on_ack));
  }
  // Reopen the lane when the batch acks — or after rpc_timeout if the ack
  // was lost — and ship whatever parked during the flight.
  auto open = std::make_shared<bool>(true);
  auto settle = [this, to, open, incarnation = incarnation_] {
    if (!*open) return;
    *open = false;
    if (incarnation != incarnation_ || crashed_) return;
    auto lt = write_lanes_.find(to);
    if (lt == write_lanes_.end()) return;
    if (lt->second.in_flight > 0) --lt->second.in_flight;
    FlushReplicaWrites(to);
  };
  // One message, one receive overhead, the summed apply demand; the single
  // ack fans back out to every batched mutation's op.
  CallPeer<bool>(
      to, FixedService(service),
      [batch = std::move(batch)](Server& s) {
        for (const PendingReplicaWrite& item : batch) {
          s.LocalApply(item.table, item.key, item.cells);
        }
        return true;
      },
      [acks = std::move(acks), settle](bool ok) mutable {
        for (UniqueFn<void(bool)>& ack : acks) ack(ok);
        settle();
      },
      payloads);
  sim_->After(config_->rpc_timeout, settle);
}

// ---------------------------------------------------------------------------
// Combined Get-then-Put (Section IV-C): a QuorumOp policy. Each replica
// returns its pre-update view-key versions and applies the write in one
// round; settlement hands the collected pre-images to Algorithm 1 (on abort
// too — the propagation machinery needs the partials to stay live).
// ---------------------------------------------------------------------------

void Server::CoordinateReadThenWrite(
    const std::string& table, const Key& key,
    std::vector<ColumnName> read_columns, const storage::Row& cells,
    int write_quorum, std::function<void(Status)> callback,
    std::function<void(std::vector<storage::Row>)> collect_pre_images) {
  using Op = QuorumOp<storage::Row>;
  Op::Spec spec;
  spec.name = "get_then_put";
  spec.targets = ReplicasOf(table, key);
  spec.quorum = write_quorum;
  const SimTime write_service = WriteServiceFor(table, cells);
  spec.service = FixedService(config_->perf.read_local + write_service);
  if (config_->row_cache_entries > 0) {
    // The write half is schema-determined (identical on every server); only
    // the read half depends on the target's cache.
    spec.service = [table, key, write_service](Server& s) {
      return s.ReadServiceFor(table, key) + write_service;
    };
  }
  spec.request = [table, key, read_columns = std::move(read_columns),
                  cells](Server& s) {
    return s.LocalReadThenApply(table, key, read_columns, cells);
  };
  spec.quorum_error = "get-then-put quorum not reached";
  spec.hint_table = table;
  spec.hint_key = key;
  spec.hint_cells = cells;
  spec.on_quorum = [callback](Op&) { callback(Status::OK()); };
  spec.on_error = Op::FailWith(std::move(callback));
  spec.on_settled = [collect = std::move(collect_pre_images)](Op& op, bool) {
    std::vector<storage::Row> collected;
    for (const auto& row : op.responses()) {
      if (row) collected.push_back(*row);
    }
    collect(std::move(collected));
  };
  Op::Start(this, std::move(spec));
}

// ---------------------------------------------------------------------------
// Partition scan: a QuorumOp policy. The merge rule is per-key LWW across
// the answered slots; settlement performs scan-path read repair — pushing
// every row a responding replica is missing or holds stale, batched per
// replica. This is what heals view partitions on access (a view row's
// replicas may have missed the propagation's third write).
// ---------------------------------------------------------------------------

void Server::CoordinateScan(
    const std::string& table, const Key& partition_prefix, int read_quorum,
    std::function<void(StatusOr<std::vector<storage::KeyedRow>>)> callback) {
  using Op = QuorumOp<std::vector<storage::KeyedRow>>;
  Op::Spec spec;
  spec.name = "scan";
  spec.targets = ReplicasOf(table, partition_prefix);
  spec.quorum = read_quorum;
  spec.service = FixedService(config_->perf.view_scan_local);
  if (config_->perf.view_scan_per_row > 0) {
    // Row-proportional scan demand, evaluated against the target's local
    // partition size: the cost that view sub-sharding divides.
    spec.service = [table, partition_prefix,
                       base = config_->perf.view_scan_local,
                       per_row =
                           config_->perf.view_scan_per_row](Server& s) {
      SimTime rows = 0;
      s.EngineFor(table).ScanPrefix(
          partition_prefix, [&rows](const Key&, const storage::Row&) {
            ++rows;
          });
      return base + per_row * rows;
    };
  }
  spec.request = [table, partition_prefix](Server& s) {
    return s.LocalScanPrefix(table, partition_prefix);
  };
  spec.quorum_error = "scan quorum not reached";
  spec.on_quorum = [callback](Op& op) {
    std::map<Key, storage::Row> merged = MergeScanResponses(op.responses());
    std::vector<storage::KeyedRow> rows;
    rows.reserve(merged.size());
    for (auto& [key, row] : merged) {
      rows.push_back(storage::KeyedRow{key, std::move(row)});
    }
    callback(std::move(rows));
  };
  spec.on_error = Op::FailWith(std::move(callback));
  spec.on_settled = [table, read_quorum](Op& op, bool aborted) {
    if (aborted || op.num_responses() < read_quorum) return;
    Server& coord = op.coordinator();
    const std::map<Key, storage::Row> merged =
        MergeScanResponses(op.responses());
    for (std::size_t i = 0; i < op.targets().size(); ++i) {
      if (!op.responses()[i]) continue;
      std::map<Key, const storage::Row*> have;
      for (const auto& kr : *op.responses()[i]) have[kr.key] = &kr.row;
      std::vector<storage::KeyedRow> fixes;
      for (const auto& [key, row] : merged) {
        auto it = have.find(key);
        if (it == have.end() || !(*it->second == row)) {
          fixes.push_back(storage::KeyedRow{key, row});
        }
      }
      if (fixes.empty()) continue;
      coord.metrics()->read_repairs += fixes.size();
      const std::uint64_t payloads = fixes.size();
      const SimTime service = coord.config().perf.write_local *
                              static_cast<SimTime>(fixes.size());
      std::string t = table;
      coord.CallPeer<bool>(
          op.targets()[i], FixedService(service),
          [t, fixes = std::move(fixes)](Server& s) {
            for (const auto& kr : fixes) s.LocalApply(t, kr.key, kr.row);
            return true;
          },
          [](bool) {}, payloads);
    }
  };
  Op::Start(this, std::move(spec));
}

// ---------------------------------------------------------------------------
// Scatter-gather over a sharded view partition (ISSUE 9): one CoordinateScan
// per sub-shard (each its own QuorumOp with the scan path's retarget and
// read-repair behaviour), gathered at this coordinator with a streaming
// k-way merge of the per-shard sorted results.
// ---------------------------------------------------------------------------

std::vector<storage::KeyedRow> MergeSortedShardScans(
    std::vector<std::vector<storage::KeyedRow>> shards) {
  struct Cursor {
    std::size_t shard;
    std::size_t pos;
  };
  auto after = [&shards](const Cursor& a, const Cursor& b) {
    return shards[a.shard][a.pos].key > shards[b.shard][b.pos].key;
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(after)> heap(
      after);
  std::size_t total = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    total += shards[i].size();
    if (!shards[i].empty()) heap.push(Cursor{i, 0});
  }
  std::vector<storage::KeyedRow> out;
  out.reserve(total);
  while (!heap.empty()) {
    Cursor c = heap.top();
    heap.pop();
    storage::KeyedRow& kr = shards[c.shard][c.pos];
    if (!out.empty() && out.back().key == kr.key) {
      out.back().row.MergeFrom(kr.row);
    } else {
      out.push_back(std::move(kr));
    }
    if (++c.pos < shards[c.shard].size()) heap.push(c);
  }
  return out;
}

void Server::CoordinateViewScatterScan(
    const std::string& table, std::vector<Key> shard_prefixes, int read_quorum,
    bool allow_partial,
    std::function<void(StatusOr<ScatterScanResult>)> callback) {
  MVSTORE_CHECK(!shard_prefixes.empty()) << "scatter scan needs a prefix";
  const int total = static_cast<int>(shard_prefixes.size());
  if (shard_prefixes.size() == 1) {
    // One shard: partial coverage is impossible — either the scan answers
    // the whole partition or the query fails, allow_partial or not.
    CoordinateScan(table, shard_prefixes[0], read_quorum,
                   [callback = std::move(callback)](
                       StatusOr<std::vector<storage::KeyedRow>> scan) {
                     if (!scan.ok()) {
                       callback(scan.status());
                       return;
                     }
                     ScatterScanResult result;
                     result.rows = *std::move(scan);
                     result.total_shards = 1;
                     callback(std::move(result));
                   });
    return;
  }
  metrics_->view_scatter_scans++;
  struct Gather {
    std::vector<std::vector<storage::KeyedRow>> results;
    std::vector<bool> ok;
    std::size_t pending = 0;
    Status first_error = Status::OK();
    std::function<void(StatusOr<ScatterScanResult>)> callback;
  };
  auto gather = std::make_shared<Gather>();
  gather->results.resize(shard_prefixes.size());
  gather->ok.assign(shard_prefixes.size(), false);
  gather->pending = shard_prefixes.size();
  gather->callback = std::move(callback);
  for (std::size_t i = 0; i < shard_prefixes.size(); ++i) {
    CoordinateScan(
        table, shard_prefixes[i], read_quorum,
        [gather, i, total, allow_partial,
         metrics = metrics_](StatusOr<std::vector<storage::KeyedRow>> scan) {
          if (scan.ok()) {
            gather->results[i] = *std::move(scan);
            gather->ok[i] = true;
          } else if (gather->first_error.ok()) {
            gather->first_error = scan.status();
          }
          if (--gather->pending > 0) return;
          const int failed = total - static_cast<int>(std::count(
                                         gather->ok.begin(), gather->ok.end(),
                                         true));
          // A failed shard fails the whole query unless the caller opted
          // into partial coverage AND at least one shard answered (an
          // all-shards-dead "partial" would be an empty lie).
          if (failed > 0 && (!allow_partial || failed == total)) {
            gather->callback(std::move(gather->first_error));
            return;
          }
          ScatterScanResult result;
          result.rows = MergeSortedShardScans(std::move(gather->results));
          result.failed_shards = failed;
          result.total_shards = total;
          if (failed > 0) metrics->view_scatter_partial++;
          gather->callback(std::move(result));
        });
  }
}

// ---------------------------------------------------------------------------
// Broadcast match (secondary-index lookup, base-table match scan): a
// QuorumOp policy whose quorum is ALL fragments (every server holds part of
// the index and of the table). The framework's slot dedupe also closes the
// old hole where a replayed fragment response could count twice toward
// completion.
// ---------------------------------------------------------------------------

void Server::HandleClientIndexGet(
    const std::string& table, const ColumnName& column, const Value& value,
    std::function<void(StatusOr<std::vector<storage::KeyedRow>>)> callback) {
  metrics_->client_index_gets++;
  if (RejectIfLeaving(callback)) return;
  if (schema_->FindIndex(table, column) == nullptr) {
    callback(Status::NotFound("no index on " + table + "." + column));
    return;
  }
  auto reply = WrapReply(std::move(callback));
  Enqueue(config_->perf.coordinator_op, [this, table, column, value,
                                         reply = std::move(reply)]() mutable {
    CoordinateBroadcastMatch("index_scan", &Server::LocalIndexProbe,
                             config_->perf.index_scan_local,
                             "index fragments unreachable", table, column,
                             value, std::move(reply));
  });
}

void Server::CoordinateBroadcastMatch(
    std::string name, MatchProbe probe, SimTime service,
    std::string quorum_error, const std::string& table,
    const ColumnName& column, const Value& value,
    std::function<void(StatusOr<std::vector<storage::KeyedRow>>)> callback) {
  using Op = QuorumOp<std::vector<storage::KeyedRow>>;
  Op::Spec spec;
  spec.name = std::move(name);
  // Every CURRENT ring member holds a fragment; servers that left (or
  // never joined) hold nothing and would only stall the full-broadcast
  // quorum.
  spec.targets.assign(ring_->members().begin(), ring_->members().end());
  spec.quorum = static_cast<int>(spec.targets.size());
  spec.service = FixedService(service);
  spec.request = [probe, table, column, value](Server& server) {
    return (server.*probe)(table, column, value);
  };
  spec.quorum_error = std::move(quorum_error);
  spec.on_quorum = [column, value, callback](Op& op) {
    // A fragment may return keys whose globally-latest value no longer
    // matches (its replica was stale); filter on the merged image, as
    // Cassandra's coordinator re-checks index hits.
    std::map<Key, storage::Row> merged = MergeScanResponses(op.responses());
    std::vector<storage::KeyedRow> rows;
    for (auto& [key, row] : merged) {
      auto current = row.GetValue(column);
      if (!current || *current != value) continue;
      rows.push_back(storage::KeyedRow{key, std::move(row)});
    }
    callback(std::move(rows));
  };
  spec.on_error = Op::FailWith(std::move(callback));
  Op::Start(this, std::move(spec));
}

// ---------------------------------------------------------------------------
// Client-facing entry points.
// ---------------------------------------------------------------------------

template <typename ResultT>
std::function<void(ResultT)> Server::WrapReply(
    std::function<void(ResultT)> callback) {
  // Charges coordinator service time for assembling the reply, so reply
  // processing contributes to saturation under load.
  return [this, callback = std::move(callback)](ResultT result) mutable {
    Enqueue(config_->perf.coordinator_op,
            [callback = std::move(callback),
             result = std::move(result)]() mutable {
              callback(std::move(result));
            });
  };
}

void Server::HandleClientGet(
    const std::string& table, const Key& key, std::vector<ColumnName> columns,
    int read_quorum, std::function<void(StatusOr<storage::Row>)> callback) {
  metrics_->client_gets++;
  if (RejectIfLeaving(callback)) return;
  const TableDef* def = schema_->GetTable(table);
  if (def == nullptr) {
    callback(Status::NotFound("no table '" + table + "'"));
    return;
  }
  if (def->is_view_backing) {
    callback(Status::InvalidArgument(
        "use view Get for '" + table + "' (views return record sets)"));
    return;
  }
  auto reply = WrapReply(std::move(callback));
  Enqueue(config_->perf.coordinator_op,
          [this, table, key, columns = std::move(columns), read_quorum,
           reply = std::move(reply)]() mutable {
            CoordinateRead(table, key, std::move(columns), read_quorum,
                           std::move(reply));
          });
}

void Server::HandleClientPut(const std::string& table, const Key& key,
                             const Mutation& mutation, Timestamp ts,
                             int write_quorum, SessionId session,
                             std::function<void(Status)> callback) {
  metrics_->client_puts++;
  if (RejectIfLeaving(callback)) return;
  const TableDef* def = schema_->GetTable(table);
  if (def == nullptr) {
    callback(Status::NotFound("no table '" + table + "'"));
    return;
  }
  if (def->is_view_backing) {
    callback(Status::InvalidArgument("views are not updateable"));
    return;
  }
  if (mutation.empty()) {
    callback(Status::InvalidArgument("empty mutation"));
    return;
  }

  storage::Row cells;
  for (const auto& [col, value] : mutation) {
    cells.Apply(col, value ? storage::Cell::Live(*value, ts)
                           : storage::Cell::Tombstone(ts));
  }

  // Which views does this Put affect (Algorithm 1, line 1)?
  std::vector<const ViewDef*> affected;
  if (view_hook_ != nullptr) {
    for (const ViewDef* view : schema_->ViewsOn(table)) {
      // The first byte of sentinel view keys is reserved (deleted-row
      // anchors, see store/codec.h).
      if (auto it = mutation.find(view->view_key_column);
          it != mutation.end() && it->second.has_value() &&
          !it->second->empty() && (*it->second)[0] == kSentinelPrefix) {
        callback(Status::InvalidArgument(
            "view key values must not start with byte 0x03 (reserved)"));
        return;
      }
      for (const auto& [col, unused] : mutation) {
        if (view->Affects(col)) {
          affected.push_back(view);
          break;
        }
      }
    }
  }

  auto reply = WrapReply(std::move(callback));

  if (affected.empty()) {
    Enqueue(config_->perf.coordinator_op,
            [this, table, key, cells, write_quorum,
             reply = std::move(reply)]() mutable {
              CoordinateWrite(table, key, cells, write_quorum,
                              std::move(reply));
            });
    return;
  }

  // Freshness contract (ISSUE 7): register the pending propagations NOW,
  // synchronously, before any replica traffic — a bounded-staleness read
  // issued the instant this Put is acknowledged must already see them.
  const std::uint64_t put_group =
      view_hook_->OnBasePutIssued(this, key, affected, ts, session);

  // Columns whose pre-update versions Algorithm 1 must collect: the view
  // key column of every affected view.
  std::vector<ColumnName> read_columns;
  for (const ViewDef* view : affected) {
    if (std::find(read_columns.begin(), read_columns.end(),
                  view->view_key_column) == read_columns.end()) {
      read_columns.push_back(view->view_key_column);
    }
  }

  auto on_collected = [this, affected, key, cells, session,
                       put_group](std::vector<storage::Row> pre_images) {
    const bool full_collection =
        static_cast<int>(pre_images.size()) == config_->replication_factor;
    // Dedupe the pre-image versions ONCE per distinct view-key column and
    // share the guess list across every view keyed by it — part of the
    // shared change-set (ISSUE 10): a Put touching N same-column views does
    // the collection work once, not N times.
    std::map<ColumnName, std::vector<storage::Cell>> guesses_by_column;
    for (const ViewDef* view : affected) {
      auto [it, inserted] = guesses_by_column.try_emplace(
          view->view_key_column);
      if (!inserted) continue;
      std::set<std::pair<Timestamp, Value>> seen;
      for (const storage::Row& pre : pre_images) {
        storage::Cell cell;  // null cell when the replica had no value
        if (auto c = pre.Get(view->view_key_column)) cell = *c;
        if (cell.tombstone) cell.value.clear();
        const auto fingerprint =
            std::make_pair(cell.ts, cell.tombstone ? Value() : cell.value);
        if (seen.insert(fingerprint).second) {
          it->second.push_back(std::move(cell));
        }
      }
      if (it->second.empty()) {
        it->second.push_back(storage::Cell{});  // nothing collected
      }
    }
    std::vector<CollectedViewKeys> collected;
    collected.reserve(affected.size());
    for (const ViewDef* view : affected) {
      CollectedViewKeys entry;
      entry.view = view;
      entry.full_collection = full_collection;
      entry.old_keys = guesses_by_column[view->view_key_column];
      collected.push_back(std::move(entry));
    }
    view_hook_->OnBasePutCommitted(this, key, cells, std::move(collected),
                                   session, put_group);
  };

  if (config_->combined_get_then_put) {
    Enqueue(config_->perf.coordinator_op,
            [this, table, key, cells, write_quorum,
             read_columns = std::move(read_columns),
             reply = std::move(reply),
             on_collected = std::move(on_collected)]() mutable {
              CoordinateReadThenWrite(table, key, std::move(read_columns),
                                      cells, write_quorum, std::move(reply),
                                      std::move(on_collected));
            });
    return;
  }

  // Paper-prototype mode: a separate Get (line 2) collects the distinct
  // view-key versions from ALL replicas before the Put (line 3) is issued —
  // the simplest way to have every version in hand when propagation starts,
  // and the reason Figure 5's MV write latency is ~2.5x BT's. (The combined
  // mode above fuses both into one round; see bench/ablation_combined_getput.)
  const int preread_quorum = config_->replication_factor;
  Enqueue(config_->perf.coordinator_op, [this, table, key, cells, write_quorum,
                                         preread_quorum,
                                         read_columns = std::move(read_columns),
                                         reply = std::move(reply),
                                         on_collected =
                                             std::move(on_collected)]() mutable {
    CoordinateRead(
        table, key, read_columns, preread_quorum,
        [this, table, key, cells, write_quorum,
         reply = std::move(reply)](StatusOr<storage::Row> pre) mutable {
          // The pre-read's value only feeds propagation guesses; an
          // unreachable replica (Unavailable after the timeout) must not
          // fail the client's Put — Algorithm 1 issues the Put regardless,
          // and collection proceeds with the versions that did arrive.
          CoordinateWrite(table, key, cells, write_quorum, std::move(reply));
        },
        std::move(on_collected));
  });
}

void Server::HandleClientViewGet(
    const std::string& view_name, const Key& view_key,
    std::vector<ColumnName> columns, int read_quorum, SessionId session,
    ReadConsistency consistency, SimTime max_staleness,
    std::function<void(StatusOr<ViewReadOutcome>)> callback) {
  metrics_->client_view_gets++;
  if (RejectIfLeaving(callback)) return;
  const ViewDef* view = schema_->GetView(view_name);
  if (view == nullptr) {
    callback(Status::NotFound("no view '" + view_name + "'"));
    return;
  }
  if (view_hook_ == nullptr) {
    callback(Status::FailedPrecondition("view engine not installed"));
    return;
  }
  ViewReadSpec spec;
  spec.columns = std::move(columns);
  spec.read_quorum = read_quorum;
  spec.session = session;
  spec.consistency = consistency;
  spec.max_staleness = max_staleness;
  auto reply = WrapReply(std::move(callback));
  Enqueue(config_->perf.coordinator_op,
          [this, view, view_key, spec = std::move(spec),
           reply = std::move(reply)]() mutable {
            view_hook_->HandleViewGet(this, *view, view_key, std::move(spec),
                                      std::move(reply));
          });
}

// ---------------------------------------------------------------------------
// Background ticks and clock-driven compaction (tombstone GC in the service
// model).
// ---------------------------------------------------------------------------

void Server::Start() {
  // Capacity slots that never joined (and servers that left) stay silent
  // until ActivateForJoin arms them.
  if (membership_ == MembershipState::kLeft) return;
  SchedulePeriodic(
      config_->anti_entropy_interval, [this] { return anti_entropy_.Active(); },
      [this] { anti_entropy_.RunRound(); });
  SchedulePeriodic(
      config_->hint_replay_interval, [this] { return is_member(); },
      [this] { hints_.Replay(); });
  SchedulePeriodic(
      config_->compaction_interval, [this] { return is_member(); },
      [this] { RunCompactionRound(); });
}

void Server::SchedulePeriodic(SimTime interval, std::function<bool()> guard,
                              std::function<void()> body) {
  if (interval <= 0) return;
  const SimTime phase = interval * static_cast<SimTime>(id_ + 1) /
                        static_cast<SimTime>(config_->num_servers);
  ArmPeriodic(phase, interval, std::move(guard), std::move(body));
}

void Server::ArmPeriodic(SimTime delay, SimTime interval,
                         std::function<bool()> guard,
                         std::function<void()> body) {
  After(delay, [this, interval, guard = std::move(guard),
                body = std::move(body)]() mutable {
    if (!guard()) return;
    body();
    ArmPeriodic(interval, interval, std::move(guard), std::move(body));
  });
}

void Server::RunCompactionRound() {
  for (const auto& [table, engine] : engines_) {
    storage::Engine* eng = engine.get();
    // Demand scales with the merge width; it contends with foreground work
    // on the same cores (the point of modelling compaction at all).
    const SimTime demand =
        config_->perf.compaction_service *
        static_cast<SimTime>(std::max<std::size_t>(1, eng->num_runs()));
    Enqueue(demand, [this, eng, demand] {
      // Both clocks are evaluated at execution time, not scheduling time:
      // the GC cutoff in the client-timestamp domain, and the purge floor
      // from whatever hints are STILL pending when the merge actually runs.
      const Timestamp now = kClientTimestampEpoch + sim_->Now();
      const storage::GcStats stats =
          eng->Compact(now, hints_.OldestTimestamp());
      metrics_->compactions_run++;
      metrics_->tombstones_purged += stats.tombstones_purged;
      metrics_->tombstone_purge_deferred += stats.tombstones_deferred;
      metrics_->stage_compaction.Record(demand);
    });
  }
}

// ---------------------------------------------------------------------------
// Crash-stop fault model.
// ---------------------------------------------------------------------------

std::uint64_t Server::RegisterInflightOp(
    std::function<void()> abort, std::function<void(ServerId)> retarget) {
  const std::uint64_t op_id = ++next_op_id_;
  inflight_.emplace(op_id, InflightOp{std::move(abort), std::move(retarget)});
  return op_id;
}

void Server::DeregisterInflightOp(std::uint64_t op_id) {
  inflight_.erase(op_id);
}

void Server::Crash() {
  MVSTORE_CHECK(!crashed_) << "server " << id_ << " crashed while down";
  crashed_ = true;
  metrics_->server_crashes++;

  // The view engine loses this server's share of its volatile state
  // (propagation tasks, session bookkeeping, propagator queues) FIRST, so
  // the abort callbacks in Shutdown cannot resurrect work on a dead process.
  if (view_hook_ != nullptr) view_hook_->OnServerCrash(this);
  Shutdown();
  // Memtables die too (the commit logs and flushed runs are durable).
  for (auto& [table, engine] : engines_) engine->LoseVolatileState();
  freshness_cache_.by_view.clear();
}

void Server::Shutdown() {
  // Internal callers (the propagation machines) get their error callbacks
  // synchronously; client replies travel through WrapReply -> Enqueue,
  // which is guarded by the incarnation bump below, so clients learn of the
  // crash only through their own request timeouts — exactly like a real
  // silent crash.
  auto ops = std::move(inflight_);
  inflight_.clear();
  for (auto& [op_id, op] : ops) op.abort();
  metrics_->inflight_ops_aborted += ops.size();

  hints_.Clear();
  write_lanes_.clear();
  queue_.Reset();
  streamer_.Reset();

  // Bumping the incarnation (a) drops every in-flight message to/from the
  // dead process at delivery time and (b) invalidates every closure the old
  // incarnation enqueued.
  ++incarnation_;
  network_->BumpIncarnation(id_);
  network_->SetEndpointDown(id_, true);
}

void Server::Restart() {
  MVSTORE_CHECK(crashed_) << "restart of live server " << id_;
  crashed_ = false;
  metrics_->server_restarts++;

  // Rejoin the ring: the endpoint comes back up under the incarnation
  // Crash() already bumped.
  network_->SetEndpointDown(id_, false);

  // Recovery: replay each table's commit log into the fresh memtable
  // (idempotent under LWW; the log was truncated at the last flush).
  for (auto& [table, engine] : engines_) {
    metrics_->wal_cells_replayed += engine->RecoverFromLog();
  }

  // Catch up with the writes this replica missed while down: re-arm the
  // periodic ticks and run one anti-entropy round right away (a draining
  // server shares no ranges, so its round is skipped).
  Start();
  anti_entropy_.RunRound();

  // Let the view engine re-scrub the ranges this server owns, adopting
  // propagations orphaned by the crash.
  if (view_hook_ != nullptr) view_hook_->OnServerRestart(this);

  // A membership transition interrupted by the crash resumes: the plans are
  // durable intent records, only the stream cursors died with the process.
  streamer_.Resume();
}

// ---------------------------------------------------------------------------
// Elastic membership: the server side of a join, and in-flight op fixups.
// The range streams live in MemberStreamer.
// ---------------------------------------------------------------------------

void Server::MarkNeverJoined() {
  membership_ = MembershipState::kLeft;
  network_->SetEndpointDown(id_, true);
}

void Server::ActivateForJoin() {
  MVSTORE_CHECK(membership_ == MembershipState::kLeft)
      << "server " << id_ << " cannot join twice";
  MVSTORE_CHECK(!crashed_) << "crashed server " << id_ << " cannot join";
  // Fresh process generation: stale messages addressed to a previous life of
  // this slot (a decommissioned-then-rejoined server) must not deliver.
  ++incarnation_;
  network_->BumpIncarnation(id_);
  network_->SetEndpointDown(id_, false);
  membership_ = MembershipState::kJoining;
  metrics_->member_joins_started++;
  Start();
}

void Server::RetargetInflightOps(ServerId departed) {
  // Snapshot first: a retargeted op may complete synchronously and
  // deregister itself, mutating the map under iteration.
  std::vector<std::function<void(ServerId)>> retargets;
  for (const auto& [op_id, op] : inflight_) retargets.push_back(op.retarget);
  for (auto& fn : retargets) fn(departed);
}

}  // namespace mvstore::store
