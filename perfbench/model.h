// The benchmark's reference model of the store.
//
// The model holds the expected state of the one base table a workload
// writes, derived only from the benchmark's own writes: every write carries
// a timestamp the benchmark assigned and keeps unique, so the expected final
// value of each cell is simply the acknowledged write with the largest
// timestamp — no copy of the store's LWW tie-break is needed. It also keeps,
// per row and column, every value ever issued, which is what lets a read
// during the run tell a stale-but-legal answer (a value the row once held)
// from a wrong one (a value it never held).
//
// CompareWithStore is the end-of-run check: after quiescing, it reads every
// base row at R = N and every view key, aggregate group and index value any
// row ever held, and reports each disagreement with the model:
// view = π(base) (Theorem 1), aggregate = fold(base), index = σ(base), and
// no record under a key its row has moved away from.

#ifndef MVSTORE_PERFBENCH_MODEL_H_
#define MVSTORE_PERFBENCH_MODEL_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "store/cluster.h"

namespace perfbench {

using mvstore::ColumnName;
using mvstore::Key;
using mvstore::Timestamp;
using mvstore::Value;

/// One view over the base table; columns are indexes into
/// TableSpec::columns.
struct ViewSpec {
  std::string name;
  int key_column = 0;
  /// Projection views: the materialized columns.
  std::vector<int> materialized;
  /// >= 0: a SUM aggregate over this column (no projection columns).
  int sum_column = -1;
};

/// What the model and the comparison know about the schema under test.
struct TableSpec {
  std::string table = "usertable";
  std::vector<ColumnName> columns;
  std::vector<ViewSpec> views;
  /// Columns carrying a native secondary index.
  std::vector<int> indexed;
};

class Model {
 public:
  Model(const TableSpec* spec, std::size_t rows);

  /// Primary key of row `rank` ("k00000042").
  static Key RowKey(std::size_t rank);
  /// Inverse of RowKey; nullopt for keys the model never produced.
  std::optional<std::size_t> RankOf(const Key& key) const;

  const TableSpec& spec() const { return *spec_; }
  std::size_t rows() const { return rows_.size(); }

  /// The bootstrap state of row `rank`: one value per spec column.
  void Load(std::size_t rank, const std::vector<Value>& values, Timestamp ts);
  /// A write of `value` to (rank, column) was issued at `ts`: from now on a
  /// read may legally observe it.
  void Issued(std::size_t rank, int column, const Value& value, Timestamp ts);
  /// The write issued at `ts` was acknowledged.
  void Acked(std::size_t rank, int column, const Value& value, Timestamp ts);

  /// Latest acknowledged value of (rank, column).
  const Value& Current(std::size_t rank, int column) const;
  /// Timestamp of the latest write issued to (rank, column).
  Timestamp LastIssued(std::size_t rank, int column) const;
  /// True when (rank, column) held `value` at some point (issued or loaded).
  bool EverHeld(std::size_t rank, int column, const Value& value) const;
  /// Distinct values `column` ever held in any row, sorted.
  std::vector<Value> AllValues(int column) const;

 private:
  struct Row {
    std::vector<Value> value;
    std::vector<Timestamp> ts;
    std::vector<Timestamp> last_issued;
    std::vector<std::vector<Value>> history;
  };

  const TableSpec* spec_;
  std::vector<Row> rows_;
};

/// Reads the quiesced cluster through a fresh client and returns one line
/// per disagreement with `model` (empty = the store matches the model).
std::vector<std::string> CompareWithStore(mvstore::store::Cluster& cluster,
                                          const Model& model);

}  // namespace perfbench

#endif  // MVSTORE_PERFBENCH_MODEL_H_
