#include "perfbench/workloads.h"

#include "common/logging.h"
#include "workload/key_generator.h"

namespace perfbench {

using mvstore::Micros;
using mvstore::Millis;
using mvstore::store::ClusterConfig;
using mvstore::store::ViewDefBuilder;

namespace {

std::vector<Workload> MakeWorkloads() {
  // Projection view by the unique secondary key, materializing the payload:
  // the paper's Section VI table.
  TableSpec by_skey;
  by_skey.columns = {"skey", "field0"};
  by_skey.views = {{.name = "by_skey",
                    .key_column = 0,
                    .materialized = {1},
                    .sum_column = -1}};

  // A low-cardinality group column carrying a sub-sharded projection view,
  // a SUM aggregate view and a native secondary index.
  TableSpec by_group;
  by_group.columns = {"grp", "price"};
  by_group.views = {
      {.name = "by_grp",
       .key_column = 0,
       .materialized = {1},
       .sum_column = -1},
      {.name = "price_per_grp", .key_column = 0, .materialized = {},
       .sum_column = 1}};
  by_group.indexed = {0};

  std::vector<Workload> all(3);

  // The paper's mix as bench/sim_speed runs it, with background repair on:
  // anti-entropy, clock-driven compaction and small memtables.
  Workload& repair = all[0];
  repair.name = "repair_mix";
  repair.rows = 3000;
  repair.clients = 24;
  repair.session_clients = 8;
  repair.warmup = Millis(300);
  repair.window = Millis(2000);
  repair.sim_passes = 3;
  repair.mix = {{Op::kKeyUpdate, 0.4}, {Op::kViewQuery, 0.4}, {Op::kGet, 0.2}};
  repair.spec = by_skey;
  repair.row_cache_entries = 65536;  // holds every replica
  repair.memtable_flush_entries = 512;
  repair.anti_entropy_interval = Millis(800);
  repair.compaction_interval = Millis(500);

  // Fig 8's skew: view-key updates and view queries on a hot set of rows
  // under the default lock-service propagation, background repair off.
  Workload& hot = all[1];
  hot.name = "hot_rows";
  hot.rows = 10000;
  hot.hot_rows = 1024;
  hot.clients = 16;
  hot.session_clients = 8;
  hot.warmup = Millis(300);
  hot.window = Millis(1500);
  hot.sim_passes = 3;
  hot.mix = {{Op::kKeyUpdate, 0.5}, {Op::kViewQuery, 0.5}};
  hot.spec = by_skey;
  hot.row_cache_entries = 65536;

  // Read-heavy group queries with per-row scan cost (fig9's model), a row
  // cache far smaller than the data, and ~10% writes.
  Workload& group = all[2];
  group.name = "group_reads";
  group.rows = 4000;
  group.groups = 64;
  group.clients = 5;
  group.session_clients = 2;
  group.warmup = Millis(300);
  group.window = Millis(3000);
  group.sim_passes = 4;
  group.mix = {{Op::kViewQuery, 0.25},  {Op::kAggregateQuery, 0.15},
               {Op::kBoundedQuery, 0.10}, {Op::kIndexProbe, 0.10},
               {Op::kGet, 0.30},        {Op::kValueUpdate, 0.07},
               {Op::kKeyUpdate, 0.03}};
  group.spec = by_group;
  group.row_cache_entries = 512;
  group.view_scan_per_row = Micros(8);
  group.view_shards = 8;
  return all;
}

}  // namespace

ClusterConfig Workload::Config(std::uint64_t seed) const {
  // The PerfModel calibrated against the paper's testbed (DESIGN.md §4):
  // four dual-core servers on 1 GbE, N = 3, R = W = 1. Propagation keeps
  // the program's default (lock service).
  ClusterConfig config;
  config.num_servers = 4;
  config.replication_factor = 3;
  config.cores_per_server = 2;
  config.default_read_quorum = 1;
  config.default_write_quorum = 1;
  config.seed = seed;
  config.network.base_latency = Micros(100);
  config.network.jitter_mean = Micros(55);
  config.perf.read_local = Micros(60);
  config.perf.write_local = Micros(50);
  config.perf.coordinator_op = Micros(15);
  config.perf.index_update_local = Micros(20);
  config.perf.index_scan_local = Micros(950);
  config.perf.view_scan_local = Micros(90);
  config.perf.view_scan_per_row = view_scan_per_row;
  config.row_cache_entries = row_cache_entries;
  if (memtable_flush_entries > 0) {
    config.engine.memtable_flush_entries = memtable_flush_entries;
  }
  config.anti_entropy_interval = anti_entropy_interval;
  config.compaction_interval = compaction_interval;
  config.view_shard_count = view_shards;
  return config;
}

mvstore::store::Schema Workload::Schema() const {
  mvstore::store::Schema schema;
  MVSTORE_CHECK(schema.CreateTable({.name = spec.table}).ok());
  for (const ViewSpec& view : spec.views) {
    ViewDefBuilder builder(view.name);
    builder.Base(spec.table)
        .Key(spec.columns[static_cast<std::size_t>(view.key_column)])
        .Shards(view_shards);
    if (view.sum_column >= 0) {
      builder.Aggregate(
          mvstore::store::AggregateFn::kSum,
          spec.columns[static_cast<std::size_t>(view.sum_column)]);
    }
    for (int c : view.materialized) {
      builder.Materialize(spec.columns[static_cast<std::size_t>(c)]);
    }
    auto def = builder.Build();
    MVSTORE_CHECK(def.ok()) << def.status();
    MVSTORE_CHECK(schema.CreateView(std::move(def).value()).ok());
  }
  for (int c : spec.indexed) {
    const ColumnName& column = spec.columns[static_cast<std::size_t>(c)];
    MVSTORE_CHECK(
        schema.CreateIndex({.table = spec.table, .column = column}).ok());
  }
  return schema;
}

std::vector<Value> Workload::Initial(std::size_t rank) const {
  if (groups > 0) {
    return {GroupKey(rank % static_cast<std::size_t>(groups)),
            std::to_string(rank % 100 + 1)};
  }
  return {mvstore::workload::FormatKey("s", rank),
          "payload-" + std::to_string(rank)};
}

Value Workload::GroupKey(std::uint64_t group) {
  return mvstore::workload::FormatKey("g", group, 4);
}

const Workload* FindWorkload(const std::string& name) {
  static const std::vector<Workload> all = MakeWorkloads();
  for (const Workload& w : all) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
