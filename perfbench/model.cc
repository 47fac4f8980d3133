#include "perfbench/model.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "common/logging.h"
#include "store/client.h"
#include "view/aggregate.h"
#include "workload/key_generator.h"

namespace perfbench {

using mvstore::store::QuerySpec;
using mvstore::store::ReadOptions;
using mvstore::store::ReadResult;

Model::Model(const TableSpec* spec, std::size_t rows) : spec_(spec) {
  const std::size_t columns = spec_->columns.size();
  rows_.resize(rows);
  for (Row& row : rows_) {
    row.value.resize(columns);
    row.ts.assign(columns, mvstore::kNullTimestamp);
    row.last_issued.assign(columns, mvstore::kNullTimestamp);
    row.history.resize(columns);
  }
}

Key Model::RowKey(std::size_t rank) {
  return mvstore::workload::FormatKey("k", rank);
}

std::optional<std::size_t> Model::RankOf(const Key& key) const {
  if (key.size() != 9 || key[0] != 'k') return std::nullopt;
  std::size_t rank = 0;
  for (std::size_t i = 1; i < key.size(); ++i) {
    if (key[i] < '0' || key[i] > '9') return std::nullopt;
    rank = rank * 10 + static_cast<std::size_t>(key[i] - '0');
  }
  if (rank >= rows_.size()) return std::nullopt;
  return rank;
}

void Model::Load(std::size_t rank, const std::vector<Value>& values,
                 Timestamp ts) {
  MVSTORE_CHECK_EQ(values.size(), spec_->columns.size());
  for (std::size_t c = 0; c < values.size(); ++c) {
    Issued(rank, static_cast<int>(c), values[c], ts);
    Acked(rank, static_cast<int>(c), values[c], ts);
  }
}

void Model::Issued(std::size_t rank, int column, const Value& value,
                   Timestamp ts) {
  Row& row = rows_[rank];
  const auto c = static_cast<std::size_t>(column);
  row.history[c].push_back(value);
  row.last_issued[c] = std::max(row.last_issued[c], ts);
}

Timestamp Model::LastIssued(std::size_t rank, int column) const {
  return rows_[rank].last_issued[static_cast<std::size_t>(column)];
}

void Model::Acked(std::size_t rank, int column, const Value& value,
                  Timestamp ts) {
  Row& row = rows_[rank];
  const auto c = static_cast<std::size_t>(column);
  MVSTORE_CHECK_NE(ts, row.ts[c]) << "write timestamps must be unique";
  if (ts > row.ts[c]) {
    row.ts[c] = ts;
    row.value[c] = value;
  }
}

const Value& Model::Current(std::size_t rank, int column) const {
  return rows_[rank].value[static_cast<std::size_t>(column)];
}

bool Model::EverHeld(std::size_t rank, int column, const Value& value) const {
  const auto& history = rows_[rank].history[static_cast<std::size_t>(column)];
  return std::find(history.begin(), history.end(), value) != history.end();
}

std::vector<Value> Model::AllValues(int column) const {
  std::set<Value> values;
  for (const Row& row : rows_) {
    const auto& history = row.history[static_cast<std::size_t>(column)];
    values.insert(history.begin(), history.end());
  }
  return {values.begin(), values.end()};
}

namespace {

/// Reads stay this many at a time in flight: enough to keep the check
/// short in simulated time (background repair then runs few rounds), few
/// enough that no replica queues past the coordinator's rpc timeout.
constexpr std::size_t kReadsInFlight = 128;

class Comparison {
 public:
  Comparison(mvstore::store::Cluster& cluster, const Model& model)
      : cluster_(cluster),
        model_(model),
        spec_(model.spec()),
        client_(cluster.NewClient()) {
    all_replicas_.quorum = cluster.config().replication_factor;
  }

  std::vector<std::string> Run() {
    QueueBaseRowReads();
    for (const ViewSpec& view : spec_.views) QueueViewReads(view);
    for (int column : spec_.indexed) QueueIndexReads(column);
    Launch();
    while (in_flight_ > 0) MVSTORE_CHECK(cluster_.simulation().Step());
    std::sort(problems_.begin(), problems_.end());
    return std::move(problems_);
  }

 private:
  using Read = std::function<void(std::function<void()> done)>;

  template <typename... Parts>
  void Report(const Parts&... parts) {
    std::ostringstream line;
    (line << ... << parts);
    problems_.push_back(line.str());
  }

  void Launch() {
    while (in_flight_ < kReadsInFlight && next_read_ < reads_.size()) {
      ++in_flight_;
      reads_[next_read_++]([this] {
        --in_flight_;
        Launch();
      });
    }
  }

  void QueueBaseRowReads() {
    for (std::size_t rank = 0; rank < model_.rows(); ++rank) {
      reads_.push_back([this, rank](std::function<void()> done) {
        client_->Get(spec_.table, Model::RowKey(rank), all_replicas_,
                     [this, rank, done](ReadResult read) {
                       CompareBaseRow(rank, read);
                       done();
                     });
      });
    }
  }

  void CompareBaseRow(std::size_t rank, const ReadResult& read) {
    const Key key = Model::RowKey(rank);
    if (!read.ok()) {
      Report("base ", key, ": read failed: ", read.status);
      return;
    }
    for (std::size_t c = 0; c < spec_.columns.size(); ++c) {
      const auto got = read.row.GetValue(spec_.columns[c]);
      const Value& want = model_.Current(rank, static_cast<int>(c));
      if (!got || *got != want) {
        Report("base ", key, ".", spec_.columns[c], ": store has '",
               got.value_or("<none>"), "', model has '", want, "'");
      }
    }
  }

  /// Rows whose current value of `column` is each value (built once per
  /// column, kept for the reads' callbacks).
  const std::map<Value, std::vector<std::size_t>>& RowsByValue(int column) {
    auto [it, fresh] = rows_by_value_.try_emplace(column);
    if (fresh) {
      for (std::size_t rank = 0; rank < model_.rows(); ++rank) {
        it->second[model_.Current(rank, column)].push_back(rank);
      }
    }
    return it->second;
  }

  const std::vector<std::size_t>& Expected(int column, const Value& value) {
    static const std::vector<std::size_t> kNone;
    const auto& by_value = RowsByValue(column);
    const auto it = by_value.find(value);
    return it == by_value.end() ? kNone : it->second;
  }

  void QueueViewReads(const ViewSpec& view) {
    const mvstore::store::ViewDef* def = cluster_.schema().GetView(view.name);
    MVSTORE_CHECK(def != nullptr) << view.name;
    for (const Value& view_key : model_.AllValues(view.key_column)) {
      const std::vector<std::size_t>* expected =
          &Expected(view.key_column, view_key);
      reads_.push_back([this, &view, def, view_key,
                        expected](std::function<void()> done) {
        client_->Query(
            QuerySpec::View(view.name, view_key), all_replicas_,
            [this, &view, def, view_key, expected, done](ReadResult read) {
              if (!read.ok()) {
                Report("view ", view.name, "[", view_key,
                       "]: read failed: ", read.status);
              } else if (view.sum_column >= 0) {
                CompareAggregate(view, *def, view_key, *expected, read);
              } else {
                CompareProjection(view, view_key, *expected, read);
              }
              done();
            });
      });
    }
  }

  void CompareProjection(const ViewSpec& view, const Value& view_key,
                         const std::vector<std::size_t>& expected,
                         const ReadResult& read) {
    std::set<std::size_t> seen;
    for (const auto& record : read.records) {
      const auto rank = model_.RankOf(record.base_key);
      if (!rank || std::find(expected.begin(), expected.end(), *rank) ==
                       expected.end()) {
        Report("view ", view.name, "[", view_key, "]: holds ",
               record.base_key, ", whose ",
               spec_.columns[static_cast<std::size_t>(view.key_column)],
               " is '", rank ? model_.Current(*rank, view.key_column) : "?",
               "'");
        continue;
      }
      seen.insert(*rank);
      for (int c : view.materialized) {
        const ColumnName& column = spec_.columns[static_cast<std::size_t>(c)];
        const auto got = record.cells.GetValue(column);
        const Value& want = model_.Current(*rank, c);
        if (!got || *got != want) {
          Report("view ", view.name, "[", view_key, "] ", record.base_key,
                 ".", column, ": store has '", got.value_or("<none>"),
                 "', model has '", want, "'");
        }
      }
    }
    for (std::size_t rank : expected) {
      if (seen.count(rank) == 0) {
        Report("view ", view.name, "[", view_key, "]: missing ",
               Model::RowKey(rank));
      }
    }
  }

  void CompareAggregate(const ViewSpec& view,
                        const mvstore::store::ViewDef& def,
                        const Value& view_key,
                        const std::vector<std::size_t>& expected,
                        const ReadResult& read) {
    std::int64_t want = 0;
    for (std::size_t rank : expected) {
      const auto value = mvstore::view::ParseAggregateValue(
          model_.Current(rank, view.sum_column));
      MVSTORE_CHECK(value.has_value());
      want += *value;
    }
    std::optional<std::int64_t> got;
    if (read.records.size() == 1) {
      if (auto cell = read.records[0].cells.GetValue(
              def.AggregateOutputColumn())) {
        got = mvstore::view::ParseAggregateValue(*cell);
      }
    }
    const bool ok = expected.empty()
                        ? read.records.empty()
                        : (got.has_value() && *got == want);
    if (!ok) {
      Report("aggregate ", view.name, "[", view_key, "]: store ",
             got ? std::to_string(*got)
                 : std::to_string(read.records.size()) + " records",
             ", model ",
             expected.empty() ? std::string("empty") : std::to_string(want));
    }
  }

  void QueueIndexReads(int column) {
    const ColumnName& name = spec_.columns[static_cast<std::size_t>(column)];
    for (const Value& value : model_.AllValues(column)) {
      const std::vector<std::size_t>* expected = &Expected(column, value);
      reads_.push_back([this, column, &name, value,
                        expected](std::function<void()> done) {
        client_->Query(QuerySpec::Index(spec_.table, name, value),
                       ReadOptions{},
                       [this, column, &name, value, expected,
                        done](ReadResult read) {
                         CompareIndexValue(column, name, value, *expected,
                                           read);
                         done();
                       });
      });
    }
  }

  void CompareIndexValue(int column, const ColumnName& name,
                         const Value& value,
                         const std::vector<std::size_t>& expected,
                         const ReadResult& read) {
    if (!read.ok()) {
      Report("index ", name, "[", value, "]: read failed: ", read.status);
      return;
    }
    std::set<std::size_t> got;
    for (const auto& row : read.rows) {
      const auto rank = model_.RankOf(row.key);
      if (!rank || model_.Current(*rank, column) != value) {
        Report("index ", name, "[", value, "]: holds ", row.key);
        continue;
      }
      got.insert(*rank);
    }
    for (std::size_t rank : expected) {
      if (got.count(rank) == 0) {
        Report("index ", name, "[", value, "]: missing ", Model::RowKey(rank));
      }
    }
  }

  mvstore::store::Cluster& cluster_;
  const Model& model_;
  const TableSpec& spec_;
  std::unique_ptr<mvstore::store::Client> client_;
  ReadOptions all_replicas_;
  std::map<int, std::map<Value, std::vector<std::size_t>>> rows_by_value_;
  std::vector<Read> reads_;
  std::size_t next_read_ = 0;
  std::size_t in_flight_ = 0;
  std::vector<std::string> problems_;
};

}  // namespace

std::vector<std::string> CompareWithStore(mvstore::store::Cluster& cluster,
                                          const Model& model) {
  return Comparison(cluster, model).Run();
}

}  // namespace perfbench
