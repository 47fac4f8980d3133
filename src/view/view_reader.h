// The view read path: Algorithm 4's partition scan (only live, initialized
// rows are served), Definition 4's session wait, and the freshness
// contract's bounded-staleness ladder (prove -> repair -> park -> SI/base
// fallback). MaintenanceEngine owns one reader and routes every
// ViewMaintenanceHook::HandleViewGet to it; the write side stays in the
// engine.

#ifndef MVSTORE_VIEW_VIEW_READER_H_
#define MVSTORE_VIEW_VIEW_READER_H_

#include <functional>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "store/cluster.h"
#include "store/hooks.h"

namespace mvstore::view {

class ViewReader {
 public:
  using Callback = std::function<void(StatusOr<store::ViewReadOutcome>)>;
  /// Whether a propagation of the (view, base key) family is still in
  /// flight; the targeted repair leaves such families to propagation.
  using FamilyInFlight =
      std::function<bool(const std::string& view, const Key& base_key)>;

  ViewReader(store::Cluster* cluster, FamilyInFlight family_in_flight);

  ViewReader(const ViewReader&) = delete;
  ViewReader& operator=(const ViewReader&) = delete;

  /// Serves a client Get on a view under `spec`'s consistency contract
  /// (see store::ViewMaintenanceHook::HandleViewGet).
  void HandleViewGet(store::Server* coordinator, const store::ViewDef& view,
                     const Key& view_key, store::ViewReadSpec spec,
                     Callback callback);

 private:
  /// What DoViewGet's partition scan produced: the live records plus how
  /// many sub-shards the scatter could not reach (nonzero only on the
  /// allow-partial path, where ServeFromView must clamp its freshness claim
  /// because the missing shards' rows are simply absent).
  struct ViewScanResult {
    std::vector<store::ViewRecord> records;
    int failed_shards = 0;
  };

  /// The bounded-staleness policy ladder: prove the bound from the tracker,
  /// else repair wounded families, else park briefly for in-flight
  /// propagations, else route to the SI/base path (FallbackRead). `deadline`
  /// caps the total parked time; `bound` is the resolved staleness bound.
  void BoundedViewGet(store::Server* coordinator, const store::ViewDef& view,
                      const Key& view_key, store::ViewReadSpec spec,
                      SimTime bound, SimTime deadline, int attempt,
                      Callback callback);

  /// DoViewGet wrapped into the outcome vocabulary: freshness claimed from
  /// the tracker, served_by = kView.
  void ServeFromView(store::Server* coordinator, const store::ViewDef& view,
                     const Key& view_key, const store::ViewReadSpec& spec,
                     int read_quorum, Callback callback);

  /// Serves the read from the secondary index on the view-key column when
  /// one exists, else from a broadcast base-table match scan. Both paths
  /// read the base table's current state, so the outcome claims freshness
  /// "now" (staleness 0) — the router's escape hatch when the view cannot
  /// satisfy a bound in time.
  void FallbackRead(store::Server* coordinator, const store::ViewDef& view,
                    const Key& view_key, const store::ViewReadSpec& spec,
                    Callback callback);

  /// Algorithm 4 with the Section IV-F wait-on-initializing-row rule.
  void DoViewGet(store::Server* coordinator, const store::ViewDef& view,
                 const Key& view_key, std::vector<ColumnName> columns,
                 int read_quorum, bool allow_partial, int attempt,
                 std::function<void(StatusOr<ViewScanResult>)> callback);

  /// Last step of every served read: folds an aggregate view's per-base-key
  /// records into the one record the client sees, records the claimed
  /// staleness (none for a null freshness claim), and answers.
  void Finish(const store::ViewDef& view, store::ViewReadOutcome outcome,
              Callback& callback);

  static constexpr int kMaxReadSpins = 64;
  static constexpr SimTime kReadSpinDelay = Millis(1);

  store::Cluster* cluster_;
  FamilyInFlight family_in_flight_;
};

}  // namespace mvstore::view

#endif  // MVSTORE_VIEW_VIEW_READER_H_
