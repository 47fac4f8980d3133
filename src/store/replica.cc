#include "store/replica.h"

#include <algorithm>
#include <optional>
#include <utility>

namespace mvstore::store {

Replica::Replica(ServerId id, sim::Simulation* sim, const Schema* schema,
                 const ClusterConfig* config, Metrics* metrics,
                 Tracer* tracer)
    : id_(id),
      sim_(sim),
      schema_(schema),
      config_(config),
      metrics_(metrics),
      tracer_(tracer) {
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

storage::Engine& Replica::EngineFor(const std::string& table) {
  auto it = engines_.find(table);
  if (it == engines_.end()) {
    it = engines_
             .emplace(table,
                      std::make_unique<storage::Engine>(config_->engine))
             .first;
    if (row_cache_ != nullptr) {
      it->second->set_row_cache(row_cache_.get(), table);
    }
  }
  return *it->second;
}

const storage::Engine* Replica::FindEngine(
    const std::string& table) const {
  auto it = engines_.find(table);
  return it == engines_.end() ? nullptr : it->second.get();
}

SimTime Replica::ReadServiceFor(const std::string& table,
                                const Key& key) const {
  if (row_cache_ != nullptr && row_cache_->Contains(table, key)) {
    return config_->perf.read_cached_local;
  }
  return config_->perf.read_local;
}

SimTime Replica::WriteServiceFor(const std::string& table,
                                 const storage::Row& cells) const {
  SimTime service = config_->perf.write_local;
  for (const IndexDef& index : schema_->IndexesOn(table)) {
    if (cells.Get(index.column)) {
      service += config_->perf.index_update_local;
    }
  }
  return service;
}

void Replica::WarmRowCache(const std::string& table, const Key& key) {
  if (row_cache_ == nullptr) return;
  // GetRow populates the cache as a side effect when the key exists.
  EngineFor(table).GetRow(key);
}

storage::Row Replica::LocalRead(const std::string& table, const Key& key,
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

void Replica::LocalApply(const std::string& table, const Key& key,
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

void Replica::ApplyRows(const std::string& table,
                        const std::vector<storage::KeyedRow>& rows) {
  for (const auto& kr : rows) LocalApply(table, kr.key, kr.row);
}

std::vector<storage::KeyedRow> Replica::LocalScanPrefix(
    const std::string& table, const Key& prefix) {
  metrics_->replica_reads++;
  std::vector<storage::KeyedRow> result;
  EngineFor(table).ScanPrefix(prefix, [&](const Key& key,
                                          const storage::Row& row) {
    result.push_back(storage::KeyedRow{key, row});
  });
  return result;
}

std::vector<storage::KeyedRow> Replica::LocalIndexProbe(
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

std::vector<storage::KeyedRow> Replica::LocalMatchScan(
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

SimTime Replica::CompactionDemand(const storage::Engine& engine) const {
  // Demand scales with the merge width; it contends with foreground work on
  // the same cores (the point of modelling compaction at all).
  return config_->perf.compaction_service *
         static_cast<SimTime>(std::max<std::size_t>(1, engine.num_runs()));
}

void Replica::Compact(storage::Engine& engine, Timestamp purge_floor,
                      SimTime demand) {
  // The GC cutoff is in the client-timestamp domain.
  const Timestamp now = kClientTimestampEpoch + sim_->Now();
  const storage::GcStats stats = engine.Compact(now, purge_floor);
  metrics_->compactions_run++;
  metrics_->tombstones_purged += stats.tombstones_purged;
  metrics_->tombstone_purge_deferred += stats.tombstones_deferred;
  metrics_->stage_compaction.Record(demand);
}

void Replica::LoseVolatileState() {
  for (auto& [table, engine] : engines_) engine->LoseVolatileState();
}

void Replica::RecoverFromLog() {
  // Idempotent under LWW; the log was truncated at the last flush.
  for (auto& [table, engine] : engines_) {
    metrics_->wal_cells_replayed += engine->RecoverFromLog();
  }
}

}  // namespace mvstore::store
