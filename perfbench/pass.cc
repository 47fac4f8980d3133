#include "perfbench/pass.h"

#include <time.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <sstream>

#include "common/logging.h"
#include "common/rng.h"
#include "store/client.h"
#include "store/cluster.h"
#include "view/aggregate.h"
#include "view/maintenance_engine.h"
#include "workload/key_generator.h"

namespace perfbench {

using mvstore::Rng;
using mvstore::SimTime;
using mvstore::TraceId;
using mvstore::store::QuerySpec;
using mvstore::store::ReadConsistency;
using mvstore::store::ReadOptions;
using mvstore::store::ReadResult;
using mvstore::store::ViewRecord;
using mvstore::store::WriteOptions;
using mvstore::store::WriteResult;

double LayerStats::Counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

const mvstore::Histogram& LayerStats::Hist(const std::string& name) const {
  static const mvstore::Histogram kEmpty;
  const auto it = histograms.find(name);
  return it == histograms.end() ? kEmpty : it->second;
}

void LayerStats::Add(const LayerStats& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, h] : other.histograms) histograms[name].Merge(h);
}

std::uint64_t PassResult::SimDigest() const {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (std::uint64_t v : {sim_events, client_ops,
                          static_cast<std::uint64_t>(end_time), attempted,
                          failed, window_ops}) {
    mix(v);
  }
  for (const auto* samples : {&read_us, &write_us, &visible_us}) {
    mix(samples->size());
    for (double v : *samples) mix(static_cast<std::uint64_t>(v));
  }
  return h;
}

namespace {

/// Every this-many-th op completing in the window has its spans reduced.
constexpr std::uint64_t kPathSampleEvery = 8;
constexpr std::size_t kFailuresKept = 5;
/// Ops still outstanding this long after the window count as failed.
constexpr SimTime kDrainLimit = mvstore::Seconds(60);

/// The program histograms the per-layer metrics read.
const char* const kLayerHistograms[] = {
    "get_latency",       "view_get_latency", "index_get_latency",
    "propagation_delay", "stage_queue_wait", "stage_service",
    "stage_batch_flush", "stage_compaction", "view_staleness",
    "freshness_wait"};

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

class Pass {
 public:
  Pass(const Workload& workload, std::uint64_t seed, bool collect_paths)
      : w_(workload),
        spec_(workload.spec),
        seed_(seed),
        collect_paths_(collect_paths),
        rng_(seed ^ 0x5eedf00dull),
        zipf_(workload.groups > 0 ? static_cast<std::uint64_t>(workload.groups)
                                  : 1,
              0.99),
        model_(&workload.spec, workload.rows),
        writing_(workload.rows, false) {}

  PassResult Run();

 private:
  /// kSessionRead is a session's read-your-writes query: its latency is
  /// the propagation wait `visible_us` measures, so it stays out of
  /// `read_us`.
  enum class Class { kRead, kWrite, kSessionRead };

  SimTime Now() const { return cluster_->Now(); }
  bool InWindow() const {
    return Now() >= window_start_ && Now() <= window_end_;
  }

  void Setup();
  void IssueNext(int c);
  void Continue(int c) {
    if (Now() < window_end_) IssueNext(c);
  }
  void IssueOp(int c, Op op);
  void IssueSessionPair(int c);
  /// Issues a Put of one column at a fresh unique timestamp.
  void Write(int c, std::size_t rank, int column, const Value& value,
             std::function<void(const WriteResult&)> then);
  /// Issues a query; `check` returns what is wrong with an OK answer, or
  /// "" when nothing is.
  void Query(int c, const QuerySpec& spec, const ReadOptions& options,
             std::function<std::string(const ReadResult&)> check,
             std::function<void(bool ok)> then);
  /// Books one completed op; `what` describes it if it failed.
  void Record(Class cls, SimTime issued, bool ok, TraceId trace,
              const std::string& what);
  /// Simulation, network and tracer counters, which cannot be reset.
  LayerStats SimCounters() const;
  void SnapshotWindowStart();
  void SnapshotWindowEnd();
  void MeasureStorage();

  std::size_t TargetRow();
  /// TargetRow, skipping rows that already have a write in flight.
  std::size_t WriteTarget();
  std::size_t ZipfGroup();
  Value NewViewKey(std::size_t rank);
  mvstore::Timestamp NextTimestamp();
  /// What is wrong with a Get answer for row `rank` ("" when nothing): it
  /// must carry, in every column, a value that row once held.
  std::string RowProblem(std::size_t rank,
                         const mvstore::storage::Row& row) const;
  /// What is wrong with a view answer for `view_key` ("" when nothing):
  /// every record must name a row that once held `view_key` and
  /// materialize values that row once held.
  std::string RecordsProblem(const ViewSpec& view, const Value& view_key,
                             const std::vector<ViewRecord>& records) const;

  const Workload& w_;
  const TableSpec& spec_;
  std::uint64_t seed_;
  bool collect_paths_;
  Rng rng_;
  mvstore::ZipfianGenerator zipf_;
  Model model_;
  std::unique_ptr<mvstore::store::Cluster> cluster_;
  std::unique_ptr<mvstore::view::MaintenanceEngine> views_;
  std::vector<std::unique_ptr<mvstore::store::Client>> clients_;
  std::vector<std::size_t> hot_set_;
  /// Rows with a Put in flight. Two overlapping Puts to one row from
  /// different coordinators can leave its view row diverged for good (see
  /// README.md), so the workloads never issue them.
  std::vector<bool> writing_;
  std::vector<std::uint64_t> group_order_;
  ColumnName aggregate_column_;  ///< output column of the aggregate view
  std::uint64_t fresh_keys_ = 0;
  mvstore::Timestamp last_ts_ = 0;
  std::uint64_t outstanding_ = 0;
  SimTime window_start_ = 0;
  SimTime window_end_ = 0;
  LayerStats window_base_;  ///< non-resettable counters at window start
  std::uint64_t abandoned_before_window_ = 0;
  PassResult r_;
};

PassResult Pass::Run() {
  const double cpu0 = CpuSeconds();
  Setup();
  const double cpu1 = CpuSeconds();
  r_.setup_cpu_s = cpu1 - cpu0;

  for (int c = 0; c < w_.clients; ++c) {
    clients_.push_back(cluster_->NewClient());
    if (c < w_.session_clients) clients_.back()->BeginSession();
  }
  window_start_ = Now() + w_.warmup;
  window_end_ = window_start_ + w_.window;
  r_.window = w_.window;
  for (int c = 0; c < w_.clients; ++c) IssueNext(c);
  cluster_->simulation().RunUntil(window_start_);
  SnapshotWindowStart();
  cluster_->simulation().RunUntil(window_end_);
  SnapshotWindowEnd();
  while (outstanding_ > 0 && Now() < window_end_ + kDrainLimit &&
         cluster_->simulation().Step()) {
  }
  if (outstanding_ > 0) {
    r_.failed += outstanding_;
    r_.failures.push_back(std::to_string(outstanding_) +
                          " ops never completed");
  }
  const double cpu2 = CpuSeconds();
  r_.run_cpu_s = cpu2 - cpu1;

  views_->Quiesce();
  r_.abandoned = abandoned_before_window_ +
                 cluster_->metrics().propagations_abandoned.value();
  MeasureStorage();
  const double cpu3 = CpuSeconds();
  r_.quiesce_cpu_s = cpu3 - cpu2;

  r_.problems = CompareWithStore(*cluster_, model_);
  r_.check_cpu_s = CpuSeconds() - cpu3;
  r_.sim_events = cluster_->simulation().steps();
  r_.end_time = Now();
  return std::move(r_);
}

void Pass::Setup() {
  cluster_ = std::make_unique<mvstore::store::Cluster>(w_.Config(seed_),
                                                       w_.Schema());
  views_ = std::make_unique<mvstore::view::MaintenanceEngine>(cluster_.get());
  cluster_->Start();
  for (std::size_t rank = 0; rank < w_.rows; ++rank) {
    const std::vector<Value> values = w_.Initial(rank);
    mvstore::store::Mutation mutation;
    for (std::size_t c = 0; c < values.size(); ++c) {
      mutation[spec_.columns[c]] = values[c];
    }
    const mvstore::Timestamp ts = 1000 + static_cast<mvstore::Timestamp>(rank);
    cluster_->BootstrapLoadRow(spec_.table, Model::RowKey(rank), mutation, ts);
    model_.Load(rank, values, ts);
  }
  if (w_.hot_rows > 0) {
    std::vector<std::size_t> ranks(w_.rows);
    std::iota(ranks.begin(), ranks.end(), 0);
    rng_.Shuffle(ranks);
    hot_set_.assign(ranks.begin(),
                    ranks.begin() + static_cast<std::ptrdiff_t>(w_.hot_rows));
  }
  for (const ViewSpec& view : spec_.views) {
    if (view.sum_column >= 0) {
      aggregate_column_ =
          cluster_->schema().GetView(view.name)->AggregateOutputColumn();
    }
  }
  if (w_.groups > 0) {
    group_order_.resize(static_cast<std::size_t>(w_.groups));
    std::iota(group_order_.begin(), group_order_.end(), 0);
    rng_.Shuffle(group_order_);
  }
}

void Pass::IssueNext(int c) {
  if (c < w_.session_clients) {
    IssueSessionPair(c);
    return;
  }
  double draw = rng_.NextDouble();
  for (const auto& [op, weight] : w_.mix) {
    if (draw < weight) {
      IssueOp(c, op);
      return;
    }
    draw -= weight;
  }
  IssueOp(c, w_.mix.back().first);
}

void Pass::IssueOp(int c, Op op) {
  const ViewSpec& projection = spec_.views.front();
  auto next = [this, c](bool) { Continue(c); };
  auto next_after_write = [this, c](const WriteResult&) { Continue(c); };
  switch (op) {
    case Op::kGet: {
      const auto rank = static_cast<std::size_t>(
          rng_.UniformInt(0, static_cast<std::int64_t>(w_.rows) - 1));
      const SimTime issued = Now();
      ++outstanding_;
      ++r_.attempted;
      clients_[static_cast<std::size_t>(c)]->Get(
          spec_.table, Model::RowKey(rank), ReadOptions{},
          [this, c, rank, issued](ReadResult result) {
            std::string problem = result.status.ToString();
            if (result.ok()) problem = RowProblem(rank, result.row);
            Record(Class::kRead, issued, problem.empty(), result.trace,
                   "get " + Model::RowKey(rank) + ": " + problem);
            Continue(c);
          });
      return;
    }
    case Op::kViewQuery:
    case Op::kBoundedQuery: {
      const Value key =
          w_.groups > 0 ? Workload::GroupKey(ZipfGroup())
                        : model_.Current(TargetRow(), projection.key_column);
      ReadOptions options;
      const bool bounded = op == Op::kBoundedQuery;
      if (bounded) options.consistency = ReadConsistency::kBoundedStaleness;
      Query(c, QuerySpec::View(projection.name, key), options,
            [this, key, bounded, &projection](const ReadResult& result) {
              if (!bounded && InWindow()) {
                ++r_.view_queries;
                if (result.records.empty()) ++r_.empty_answers;
              }
              return RecordsProblem(projection, key, result.records);
            },
            next);
      return;
    }
    case Op::kAggregateQuery: {
      const Value key = Workload::GroupKey(ZipfGroup());
      const SimTime issued = Now();
      Query(c, QuerySpec::View(spec_.views.at(1).name, key), ReadOptions{},
            [this, issued](const ReadResult& result) -> std::string {
              if (InWindow()) {
                r_.aggregate_us.push_back(static_cast<double>(Now() - issued));
              }
              if (result.records.empty()) return "";
              if (result.records.size() != 1) {
                return std::to_string(result.records.size()) + " records";
              }
              const auto sum =
                  result.records[0].cells.GetValue(aggregate_column_);
              if (sum && mvstore::view::ParseAggregateValue(*sum)) return "";
              return "no " + aggregate_column_ + " value";
            },
            next);
      return;
    }
    case Op::kIndexProbe: {
      const int column = spec_.indexed.front();
      const Value key = Workload::GroupKey(ZipfGroup());
      Query(c,
            QuerySpec::Index(spec_.table,
                             spec_.columns[static_cast<std::size_t>(column)],
                             key),
            ReadOptions{},
            [this, key, column](const ReadResult& result) -> std::string {
              for (const auto& row : result.rows) {
                const auto rank = model_.RankOf(row.key);
                if (!rank || !model_.EverHeld(*rank, column, key)) {
                  return row.key + " never held it";
                }
              }
              return "";
            },
            next);
      return;
    }
    case Op::kKeyUpdate: {
      const std::size_t rank = WriteTarget();
      Write(c, rank, projection.key_column, NewViewKey(rank), next_after_write);
      return;
    }
    case Op::kValueUpdate: {
      const std::size_t rank = WriteTarget();
      Write(c, rank, projection.materialized.front(),
            std::to_string(rng_.UniformInt(1, 100)), next_after_write);
      return;
    }
  }
}

void Pass::IssueSessionPair(int c) {
  const ViewSpec& projection = spec_.views.front();
  const std::size_t rank = WriteTarget();
  const Value key = NewViewKey(rank);
  const SimTime issued = Now();
  Write(c, rank, projection.key_column, key,
        [this, c, rank, key, issued, &projection](const WriteResult& write) {
          if (!write.ok()) {
            Continue(c);
            return;
          }
          const mvstore::Timestamp ts = write.ts;
          const Key base_key = Model::RowKey(rank);
          Query(c, QuerySpec::View(projection.name, key), ReadOptions{},
                [this, key, rank, base_key, issued, ts,
                 &projection](const ReadResult& result) -> std::string {
                  const bool own = std::any_of(
                      result.records.begin(), result.records.end(),
                      [&base_key](const ViewRecord& record) {
                        return record.base_key == base_key;
                      });
                  // Another client's later write may have moved the row on:
                  // then there is no update of ours left to see.
                  const bool superseded =
                      model_.LastIssued(rank, projection.key_column) != ts;
                  if (!own && !superseded) {
                    return "read-your-writes missed " + base_key;
                  }
                  if (own && !superseded && InWindow()) {
                    r_.visible_us.push_back(
                        static_cast<double>(Now() - issued));
                  }
                  return RecordsProblem(projection, key, result.records);
                },
                [this, c](bool) { Continue(c); });
        });
}

void Pass::Write(int c, std::size_t rank, int column, const Value& value,
                 std::function<void(const WriteResult&)> then) {
  const mvstore::Timestamp ts = NextTimestamp();
  model_.Issued(rank, column, value, ts);
  WriteOptions options;
  options.ts = ts;
  const SimTime issued = Now();
  ++outstanding_;
  ++r_.attempted;
  writing_[rank] = true;
  const ColumnName& name = spec_.columns[static_cast<std::size_t>(column)];
  clients_[static_cast<std::size_t>(c)]->Put(
      spec_.table, Model::RowKey(rank), {{name, value}}, options,
      [this, rank, column, value, ts, issued,
       then = std::move(then)](WriteResult result) {
        writing_[rank] = false;
        if (result.ok()) model_.Acked(rank, column, value, ts);
        Record(Class::kWrite, issued, result.ok(), result.trace,
               "put " + Model::RowKey(rank) + ": " + result.status.ToString());
        then(result);
      });
}

void Pass::Query(int c, const QuerySpec& spec, const ReadOptions& options,
                 std::function<std::string(const ReadResult&)> check,
                 std::function<void(bool)> then) {
  const SimTime issued = Now();
  ++outstanding_;
  ++r_.attempted;
  const std::string what =
      spec.kind == QuerySpec::Kind::kIndex
          ? "index " + spec.column + "=" + spec.value
          : "view " + spec.view + "[" + spec.view_key + "]";
  const Class cls = c < w_.session_clients ? Class::kSessionRead : Class::kRead;
  clients_[static_cast<std::size_t>(c)]->Query(
      spec, options,
      [this, issued, cls, what, check = std::move(check),
       then = std::move(then)](ReadResult result) {
        const std::string problem =
            result.ok() ? check(result) : result.status.ToString();
        Record(cls, issued, problem.empty(), result.trace,
               what + ": " + problem);
        then(problem.empty());
      });
}

void Pass::Record(Class cls, SimTime issued, bool ok, TraceId trace,
                  const std::string& what) {
  --outstanding_;
  ++r_.client_ops;
  if (!ok) {
    ++r_.failed;
    if (r_.failures.size() < kFailuresKept) r_.failures.push_back(what);
  }
  if (!InWindow()) return;
  ++r_.window_ops;
  if (cls == Class::kSessionRead) return;
  const double latency = static_cast<double>(Now() - issued);
  (cls == Class::kRead ? r_.read_us : r_.write_us).push_back(latency);
  if (collect_paths_ && trace != 0 && r_.window_ops % kPathSampleEvery == 0) {
    if (auto path = ReduceCriticalPath(cluster_->tracer().Collect(trace))) {
      (cls == Class::kRead ? r_.read_paths : r_.write_paths).push_back(*path);
    }
  }
}

LayerStats Pass::SimCounters() const {
  LayerStats now;
  now.counters["sim.events"] =
      static_cast<double>(cluster_->simulation().steps());
  now.counters["sim.messages"] =
      static_cast<double>(cluster_->network().messages_sent());
  now.counters["sim.payloads"] =
      static_cast<double>(cluster_->network().payloads_sent());
  now.counters["trace.recorded"] =
      static_cast<double>(cluster_->tracer().recorded());
  now.counters["trace.evicted"] =
      static_cast<double>(cluster_->tracer().evicted());
  return now;
}

void Pass::SnapshotWindowStart() {
  // The program only writes its Metrics, so zeroing them here leaves the
  // simulation untouched; counters that cannot be reset are differenced.
  abandoned_before_window_ = cluster_->metrics().propagations_abandoned.value();
  cluster_->metrics().Reset();
  window_base_ = SimCounters();
}

void Pass::SnapshotWindowEnd() {
  LayerStats& layer = r_.layer;
  for (const auto& [name, value] : cluster_->metrics().Snapshot().counters) {
    layer.counters[name] = static_cast<double>(value);
  }
  const auto& registry = cluster_->metrics().registry;
  for (const char* name : kLayerHistograms) {
    const mvstore::Histogram* h = registry.FindHistogram(name);
    MVSTORE_CHECK(h != nullptr) << name;
    layer.histograms[name] = *h;
  }
  for (const auto& [name, value] : SimCounters().counters) {
    layer.counters[name] = value - window_base_.Counter(name);
  }
}

void Pass::MeasureStorage() {
  std::vector<std::string> tables = {spec_.table};
  for (const ViewSpec& view : spec_.views) tables.push_back(view.name);
  double entries = 0;
  std::size_t runs_max = 0;
  for (const auto& server : cluster_->servers()) {
    for (const std::string& table : tables) {
      const mvstore::storage::Engine& engine = server->EngineFor(table);
      entries += static_cast<double>(engine.ApproxEntries());
      runs_max = std::max(runs_max, engine.num_runs());
    }
  }
  // Each live base row has one live row per view (a projection row or a
  // per-base-key sub-aggregate cell), and every row has N replicas.
  const double live = static_cast<double>(w_.rows * tables.size()) *
                      cluster_->config().replication_factor;
  r_.entries_per_live_row = entries / live;
  r_.runs_max = static_cast<double>(runs_max);
}

std::size_t Pass::TargetRow() {
  if (!hot_set_.empty()) {
    return hot_set_[static_cast<std::size_t>(
        rng_.UniformInt(0, static_cast<std::int64_t>(hot_set_.size()) - 1))];
  }
  return static_cast<std::size_t>(
      rng_.UniformInt(0, static_cast<std::int64_t>(w_.rows) - 1));
}

std::size_t Pass::WriteTarget() {
  std::size_t rank = TargetRow();
  while (writing_[rank]) rank = TargetRow();
  return rank;
}

std::size_t Pass::ZipfGroup() { return group_order_[zipf_.Next(rng_)]; }

Value Pass::NewViewKey(std::size_t rank) {
  if (w_.groups == 0) {
    return mvstore::workload::FormatKey("x", fresh_keys_++, 12);
  }
  // Any other group, uniformly (group keys are zero-padded, so string order
  // is group order).
  const Value& current = model_.Current(rank, spec_.views.front().key_column);
  auto group = static_cast<std::uint64_t>(rng_.UniformInt(0, w_.groups - 2));
  if (Workload::GroupKey(group) >= current) ++group;
  return Workload::GroupKey(group);
}

mvstore::Timestamp Pass::NextTimestamp() {
  last_ts_ = std::max(last_ts_ + 1,
                      mvstore::store::kClientTimestampEpoch + Now());
  return last_ts_;
}

std::string Pass::RowProblem(std::size_t rank,
                             const mvstore::storage::Row& row) const {
  for (std::size_t c = 0; c < spec_.columns.size(); ++c) {
    const auto value = row.GetValue(spec_.columns[c]);
    if (!value) return "no " + spec_.columns[c];
    if (!model_.EverHeld(rank, static_cast<int>(c), *value)) {
      return spec_.columns[c] + " '" + *value + "' never written";
    }
  }
  return "";
}

std::string Pass::RecordsProblem(const ViewSpec& view, const Value& view_key,
                                 const std::vector<ViewRecord>& records) const {
  for (const ViewRecord& record : records) {
    const auto rank = model_.RankOf(record.base_key);
    if (!rank || !model_.EverHeld(*rank, view.key_column, view_key)) {
      return record.base_key + " never held this key";
    }
    for (int c : view.materialized) {
      const ColumnName& column = spec_.columns[static_cast<std::size_t>(c)];
      const auto value = record.cells.GetValue(column);
      if (!value) return record.base_key + " has no " + column;
      if (!model_.EverHeld(*rank, c, *value)) {
        return record.base_key + "." + column + " '" + *value +
               "' never written";
      }
    }
  }
  return "";
}

}  // namespace

PassResult RunPass(const Workload& workload, std::uint64_t seed,
                   bool collect_paths) {
  return Pass(workload, seed, collect_paths).Run();
}

}  // namespace perfbench
