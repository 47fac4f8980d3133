// Shows that the end-of-run model check is not vacuous. For each table
// shape the workloads use, a small cluster takes a few updates and
// quiesces; the comparison must then accept the benchmark's model, and must
// report a copy of the model with one base row altered and one view key
// moved. Exits 0 when both hold for every shape.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "perfbench/model.h"
#include "perfbench/workloads.h"
#include "store/client.h"
#include "view/maintenance_engine.h"

namespace perfbench {
namespace {

using mvstore::store::kClientTimestampEpoch;

constexpr std::size_t kRows = 48;
constexpr std::size_t kAlteredRow = 5;
constexpr std::size_t kMovedRow = 9;

bool Mentions(const std::vector<std::string>& problems,
              const std::string& a, const std::string& b) {
  for (const std::string& line : problems) {
    if (line.find(a) != std::string::npos &&
        line.find(b) != std::string::npos) {
      return true;
    }
  }
  return false;
}

bool CheckShape(const std::string& name) {
  Workload w = *FindWorkload(name);
  w.rows = kRows;
  w.anti_entropy_interval = 0;
  w.compaction_interval = 0;
  mvstore::store::Cluster cluster(w.Config(7), w.Schema());
  mvstore::view::MaintenanceEngine views(&cluster);
  cluster.Start();
  Model model(&w.spec, kRows);
  for (std::size_t rank = 0; rank < kRows; ++rank) {
    const std::vector<Value> values = w.Initial(rank);
    mvstore::store::Mutation mutation;
    for (std::size_t c = 0; c < values.size(); ++c) {
      mutation[w.spec.columns[c]] = values[c];
    }
    cluster.BootstrapLoadRow(w.spec.table, Model::RowKey(rank), mutation,
                             1000 + static_cast<Timestamp>(rank));
    model.Load(rank, values, 1000 + static_cast<Timestamp>(rank));
  }
  // A few acknowledged updates of both columns, at unique timestamps.
  auto client = cluster.NewClient();
  Timestamp ts = kClientTimestampEpoch;
  for (std::size_t rank = 0; rank < kRows; rank += 4) {
    const int column = rank % 8 == 0 ? 0 : 1;
    Value value = std::to_string(rank + 7);
    if (column == 0) {
      value = w.groups > 0 ? Workload::GroupKey(rank % 3)
                           : "moved-" + std::to_string(rank);
    }
    mvstore::store::WriteOptions options;
    options.ts = ++ts;
    model.Issued(rank, column, value, ts);
    MVSTORE_CHECK(client
                      ->PutSync(w.spec.table, Model::RowKey(rank),
                                {{w.spec.columns[static_cast<std::size_t>(
                                      column)],
                                  value}},
                                options)
                      .ok());
    model.Acked(rank, column, value, ts);
  }
  views.Quiesce();
  cluster.RunFor(mvstore::Millis(500));

  const std::vector<std::string> clean = CompareWithStore(cluster, model);
  for (const std::string& line : clean) {
    std::printf("  unexpected: %s\n", line.c_str());
  }

  Model planted = model;
  planted.Issued(kAlteredRow, 1, "1234567", ++ts);
  planted.Acked(kAlteredRow, 1, "1234567", ts);
  const Value old_key = planted.Current(kMovedRow, 0);
  const Value new_key =
      w.groups > 0 ? Workload::GroupKey(w.groups - 1) : "planted-key";
  planted.Issued(kMovedRow, 0, new_key, ++ts);
  planted.Acked(kMovedRow, 0, new_key, ts);
  const std::vector<std::string> found = CompareWithStore(cluster, planted);
  for (const std::string& line : found) {
    std::printf("  reported: %s\n", line.c_str());
  }

  const bool altered =
      Mentions(found, "base " + Model::RowKey(kAlteredRow), "1234567");
  const bool moved = Mentions(found, "[" + old_key + "]: holds ",
                              Model::RowKey(kMovedRow));
  const bool ok = clean.empty() && altered && moved;
  std::printf("%s: clean model %s; altered base row %s; moved view key %s\n",
              name.c_str(), clean.empty() ? "accepted" : "REJECTED",
              altered ? "reported" : "MISSED", moved ? "reported" : "MISSED");
  return ok;
}

}  // namespace
}  // namespace perfbench

int main() {
  bool ok = true;
  for (const char* shape : {"repair_mix", "group_reads"}) {
    ok = perfbench::CheckShape(shape) && ok;
  }
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
