#include "view/view_reader.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "common/trace.h"
#include "store/codec.h"
#include "view/aggregate.h"
#include "view/scrub.h"
#include "view/view_row.h"

namespace mvstore::view {

namespace {

/// The client's image of one row: the wanted columns (every materialized
/// column when the read names none), tombstoned cells dropped.
store::ViewRecord ProjectRecord(const store::ViewDef& view,
                                const std::vector<ColumnName>& columns,
                                const Key& base_key, const storage::Row& row) {
  store::ViewRecord record;
  record.base_key = base_key;
  for (const ColumnName& col :
       columns.empty() ? view.materialized_columns : columns) {
    if (auto cell = row.Get(col); cell && !cell->tombstone) {
      record.cells.Apply(col, *cell);
    }
  }
  return record;
}

}  // namespace

ViewReader::ViewReader(store::Cluster* cluster,
                       FamilyInFlight family_in_flight)
    : cluster_(cluster), family_in_flight_(std::move(family_in_flight)) {}

// ---------------------------------------------------------------------------
// Algorithm 4: reading from a versioned view.
// ---------------------------------------------------------------------------

void ViewReader::HandleViewGet(store::Server* coordinator,
                               const store::ViewDef& view, const Key& view_key,
                               store::ViewReadSpec spec, Callback callback) {
  // The ViewDef lives in the cluster schema, which is immutable for the
  // cluster's lifetime; hold it by pointer across the async hops.
  const store::ViewDef* view_def = &view;

  if (view.IsAggregate()) {
    // The client sees only the folded output column; a caller-supplied
    // projection would starve the fold of the per-base-key sub-aggregate
    // cells it reads. Every path below (view scan, SI/base fallback) folds
    // from the view's own materialized columns.
    spec.columns.clear();
  }

  if (spec.consistency == store::ReadConsistency::kBoundedStaleness) {
    const SimTime bound = spec.max_staleness > 0
                              ? spec.max_staleness
                              : cluster_->config().max_staleness_default;
    const SimTime deadline =
        cluster_->simulation().Now() + cluster_->config().freshness_wait_max;
    BoundedViewGet(coordinator, view, view_key, std::move(spec), bound,
                   deadline, /*attempt=*/0, std::move(callback));
    return;
  }

  // Definition 4: a session's "my own writes" are the freshness intents its
  // coordinator registered under (coordinator, session).
  store::FreshnessTracker& tracker = cluster_->freshness();
  const ServerId origin = coordinator->id();
  if (cluster_->config().session_guarantees && spec.session != 0 &&
      spec.consistency == store::ReadConsistency::kReadYourWrites &&
      tracker.SessionMustDefer(origin, spec.session, view.name)) {
    cluster_->metrics().view_get_deferrals++;
    // The deferred continuation fires from the tracker's session layer,
    // under whatever context THAT runs in — capture this read's context
    // explicitly and span the blocked interval (Definition 4's wait, Fig 7).
    Tracer& tracer = cluster_->tracer();
    const TraceContext ctx = tracer.current();
    const TraceContext defer =
        tracer.StartSpan(ctx, "view.session_defer", static_cast<int>(origin),
                         cluster_->simulation().Now());
    const store::SessionId session = spec.session;
    tracker.SessionDefer(origin, session, view.name,
                         [this, coordinator, view_def, view_key, ctx, defer,
                          spec = std::move(spec),
                          callback = std::move(callback)]() mutable {
                           cluster_->tracer().EndSpan(
                               defer, cluster_->simulation().Now());
                           Tracer::Scope scope(&cluster_->tracer(), ctx);
                           ServeFromView(coordinator, *view_def, view_key,
                                         spec, spec.read_quorum,
                                         std::move(callback));
                         });
    return;
  }
  ServeFromView(coordinator, view, view_key, spec, spec.read_quorum,
                std::move(callback));
}

// ---------------------------------------------------------------------------
// Freshness contract: the bounded-staleness policy ladder.
// ---------------------------------------------------------------------------

void ViewReader::BoundedViewGet(store::Server* coordinator,
                                const store::ViewDef& view,
                                const Key& view_key, store::ViewReadSpec spec,
                                SimTime bound, SimTime deadline, int attempt,
                                Callback callback) {
  const store::ViewDef* view_def = &view;
  store::FreshnessTracker& tracker = cluster_->freshness();
  const Timestamp now_ts =
      store::kClientTimestampEpoch + cluster_->simulation().Now();
  const Timestamp need = std::max<Timestamp>(0, now_ts - bound);

  const store::FreshnessTracker::BlockerSummary blockers =
      tracker.BlockersBefore(view.name, view_key, need);

  if (blockers.live == 0 && blockers.wounded == 0) {
    // The bound is proven: no unsettled intent older than (now - bound) can
    // reach this partition. Serve from the view — at a quorum that
    // intersects propagation's majority write quorum, so the scan cannot
    // read a single replica that missed an applied (settled) propagation.
    ServeFromView(coordinator, view, view_key, spec,
                  std::max(spec.read_quorum, coordinator->MajorityQuorum()),
                  std::move(callback));
    return;
  }

  if (attempt == 0) cluster_->metrics().freshness_bound_misses++;

  if (blockers.live == 0) {
    // Only wounded families block: their propagations died, so no amount of
    // waiting helps. Fire a targeted repair of exactly those families (the
    // owned-range scrub's audit, scoped to the blockers), then re-prove.
    cluster_->metrics().freshness_targeted_repairs++;
    std::vector<Key> wounded = blockers.wounded_keys;
    coordinator->Enqueue(
        cluster_->config().perf.view_scan_local,
        [this, coordinator, view_def, view_key, spec = std::move(spec), bound,
         deadline, attempt, wounded = std::move(wounded),
         callback = std::move(callback)]() mutable {
          RepairViewFamilies(*cluster_, *view_def, wounded,
                             [this, view_def](const Key& base_key) {
                               return family_in_flight_(view_def->name,
                                                        base_key);
                             });
          // The audited families provably match Definition 1 now; clearing
          // their intents guarantees the re-entry below cannot see the same
          // wounded blockers (no repair loop).
          for (const Key& base_key : wounded) {
            cluster_->freshness().FamilyAudited(view_def->name, base_key);
          }
          BoundedViewGet(coordinator, *view_def, view_key, std::move(spec),
                         bound, deadline, attempt + 1, std::move(callback));
        });
    return;
  }

  // Live propagations block. Ask the router: will they plausibly settle
  // within the bound/wait budget? The coordinator's advisory cache answers
  // without a tracker round trip; fall through to the tracker's own
  // estimate when the cache is cold.
  SimTime lag = coordinator->freshness_cache().LagEstimate(view.name);
  if (lag < 0) lag = tracker.LagEstimate(view.name);
  const SimTime now = cluster_->simulation().Now();
  if (now >= deadline ||
      (cluster_->config().freshness_router && lag >= 0 && lag > bound)) {
    // Waiting is hopeless (deadline spent) or pointless (typical
    // propagation lag exceeds the bound): route around the view.
    FallbackRead(coordinator, view, view_key, spec, std::move(callback));
    return;
  }

  // Park until the view's freshness improves (an intent applies, discards,
  // or audits away) or the wait deadline fires — whichever comes first.
  cluster_->metrics().freshness_bound_waits++;
  Tracer& tracer = cluster_->tracer();
  const TraceContext ctx = tracer.current();
  auto fired = std::make_shared<bool>(false);
  auto wake = std::make_shared<std::function<void()>>(
      [this, coordinator, view_def, view_key, spec = std::move(spec), bound,
       deadline, attempt, ctx, fired, parked_at = now,
       callback = std::move(callback)]() mutable {
        if (*fired) return;
        *fired = true;
        cluster_->metrics().freshness_wait.Record(
            cluster_->simulation().Now() - parked_at);
        Tracer::Scope scope(&cluster_->tracer(), ctx);
        BoundedViewGet(coordinator, *view_def, view_key, std::move(spec),
                       bound, deadline, attempt + 1, std::move(callback));
      });
  tracker.NotifyOnImprovement(view.name, [wake] { (*wake)(); });
  cluster_->simulation().After(std::max<SimTime>(1, deadline - now),
                               [wake] { (*wake)(); });
}

void ViewReader::ServeFromView(store::Server* coordinator,
                               const store::ViewDef& view, const Key& view_key,
                               const store::ViewReadSpec& spec,
                               int read_quorum, Callback callback) {
  const store::ViewDef* view_def = &view;
  // Only eventual reads may degrade to a partial scatter: RYW and bounded
  // reads promised something about the rows they return, and rows missing
  // with their sub-shard would silently break that promise.
  const bool allow_partial =
      spec.consistency == store::ReadConsistency::kEventual;
  DoViewGet(coordinator, view, view_key, spec.columns, read_quorum,
            allow_partial, /*attempt=*/0,
            [this, view_def, view_key, callback = std::move(callback)](
                StatusOr<ViewScanResult> scan) mutable {
              if (!scan.ok()) {
                callback(scan.status());
                return;
              }
              store::ViewReadOutcome outcome;
              outcome.records = std::move(scan->records);
              outcome.served_by = store::ServedBy::kView;
              if (scan->failed_shards > 0) {
                // Partial coverage: some sub-shards' rows are simply absent,
                // so no freshness can honestly be claimed — clamp to the
                // null timestamp ("everything after the epoch may be
                // missing"): a degradation, not a staleness.
                outcome.freshness = kNullTimestamp;
              } else {
                // Every intent routes to exactly one sub-shard, so the
                // view-wide claim is exactly the min over the shards a
                // scatter-gather read merged.
                outcome.freshness = cluster_->freshness().FreshAsOf(
                    view_def->name, view_key,
                    store::kClientTimestampEpoch +
                        cluster_->simulation().Now());
              }
              Finish(*view_def, std::move(outcome), callback);
            });
}

void ViewReader::FallbackRead(store::Server* coordinator,
                              const store::ViewDef& view, const Key& view_key,
                              const store::ViewReadSpec& spec,
                              Callback callback) {
  const store::ViewDef* view_def = &view;
  const bool si = cluster_->schema().FindIndex(view.base_table,
                                               view.view_key_column) != nullptr;
  const store::ServedBy path =
      si ? store::ServedBy::kSiPath : store::ServedBy::kBaseScan;
  if (si) {
    cluster_->metrics().freshness_fallback_si++;
  } else {
    cluster_->metrics().freshness_fallback_base++;
  }
  auto on_rows = [this, view_def, path, columns = spec.columns,
                  callback = std::move(callback)](
                     StatusOr<std::vector<storage::KeyedRow>> rows) mutable {
    if (!rows.ok()) {
      callback(rows.status());
      return;
    }
    // Evaluate the view definition inline over the base rows: selection
    // filter, then project the wanted materialized columns.
    store::ViewReadOutcome outcome;
    for (const storage::KeyedRow& kr : *rows) {
      if (view_def->selection.has_value()) {
        auto selected = kr.row.GetValue(view_def->selection->column);
        if (!selected || *selected != view_def->selection->equals) continue;
      }
      outcome.records.push_back(
          ProjectRecord(*view_def, columns, kr.key, kr.row));
    }
    // Both fallback paths read the base table's CURRENT state (the SI is
    // maintained synchronously with each replica write), so the outcome
    // claims freshness "now": staleness zero by construction. An aggregate
    // folds the freshly evaluated records — recompute-on-read, the baseline
    // fig10 measures against.
    outcome.freshness =
        store::kClientTimestampEpoch + cluster_->simulation().Now();
    outcome.served_by = path;
    Finish(*view_def, std::move(outcome), callback);
  };
  const store::PerfModel& perf = cluster_->config().perf;
  if (si) {
    coordinator->CoordinateBroadcastMatch(
        "index_scan", &store::Server::LocalIndexProbe, perf.index_scan_local,
        "index fragments unreachable", view.base_table, view.view_key_column,
        view_key, std::move(on_rows));
  } else {
    // Every server walks its whole local fragment of the table — the
    // router's priced-in worst case.
    coordinator->CoordinateBroadcastMatch(
        "base_match_scan", &store::Server::LocalMatchScan,
        perf.base_scan_local, "base-scan replicas unreachable",
        view.base_table, view.view_key_column, view_key, std::move(on_rows));
  }
}

void ViewReader::Finish(const store::ViewDef& view,
                        store::ViewReadOutcome outcome, Callback& callback) {
  if (view.IsAggregate()) {
    const AggregateFold fold = FoldAggregateRecords(view, outcome.records);
    cluster_->metrics().view_aggregate_folds++;
    cluster_->metrics().view_aggregate_fold_skipped += fold.skipped;
    outcome.records = FoldedAggregateView(view, fold);
  }
  if (outcome.freshness != kNullTimestamp) {
    const Timestamp now_ts =
        store::kClientTimestampEpoch + cluster_->simulation().Now();
    cluster_->metrics().view_staleness.Record(
        std::max<Timestamp>(0, now_ts - outcome.freshness));
  }
  callback(std::move(outcome));
}

void ViewReader::DoViewGet(
    store::Server* coordinator, const store::ViewDef& view,
    const Key& view_key, std::vector<ColumnName> columns, int read_quorum,
    bool allow_partial, int attempt,
    std::function<void(StatusOr<ViewScanResult>)> callback) {
  const store::ViewDef* view_def = &view;
  // Sharded views scatter one scan per sub-shard and merge at the
  // coordinator; a single-shard view degenerates to the classic one-prefix
  // scan inside CoordinateViewScatterScan.
  std::vector<Key> prefixes;
  prefixes.reserve(static_cast<std::size_t>(std::max(1, view.shard_count)));
  for (int shard = 0; shard < std::max(1, view.shard_count); ++shard) {
    prefixes.push_back(
        store::ShardedViewPartitionPrefix(view_key, shard, view.shard_count));
  }
  coordinator->CoordinateViewScatterScan(
      view.name, std::move(prefixes), read_quorum, allow_partial,
      [this, coordinator, view_def, view_key, columns, read_quorum,
       allow_partial, attempt, callback = std::move(callback)](
          StatusOr<store::ScatterScanResult> scan) mutable {
        if (!scan.ok()) {
          callback(scan.status());
          return;
        }
        std::map<Key, const storage::Row*> live_rows;  // by base key
        std::map<Key, bool> initializing;              // by base key
        for (const storage::KeyedRow& kr : scan->rows) {
          auto split =
              store::SplitShardedViewRowKey(kr.key, view_def->shard_count);
          if (!split || split->first != view_key) continue;
          const Key& base_key = split->second;
          RowStatus status = ClassifyViewRow(kr.row, view_key);
          if (!status.exists) continue;
          if (!status.live) {
            cluster_->metrics().stale_rows_filtered++;
            continue;
          }
          if (!status.initialized) {
            initializing[base_key] = true;
            continue;
          }
          if (status.hidden) continue;
          live_rows[base_key] = &kr.row;
        }
        // Section IV-F: never expose a window where the row's only live
        // version is still being initialized — wait for the promotion to
        // finish (bounded).
        bool must_spin = false;
        for (const auto& [base_key, unused] : initializing) {
          if (live_rows.count(base_key) == 0) {
            must_spin = true;
            break;
          }
        }
        if (must_spin && attempt < kMaxReadSpins) {
          cluster_->metrics().view_get_spins++;
          // The retry crosses a bare timer; carry the context over it and
          // span the wait so initialization spins show in the timeline.
          Tracer& tracer = cluster_->tracer();
          const TraceContext ctx = tracer.current();
          const TraceContext spin =
              tracer.StartSpan(ctx, "view.read_spin",
                               static_cast<int>(coordinator->id()),
                               cluster_->simulation().Now());
          cluster_->simulation().After(
              kReadSpinDelay,
              [this, coordinator, view_def, view_key, ctx, spin,
               columns = std::move(columns), read_quorum, allow_partial,
               attempt, callback = std::move(callback)]() mutable {
                cluster_->tracer().EndSpan(spin, cluster_->simulation().Now());
                Tracer::Scope scope(&cluster_->tracer(), ctx);
                DoViewGet(coordinator, *view_def, view_key, std::move(columns),
                          read_quorum, allow_partial, attempt + 1,
                          std::move(callback));
              });
          return;
        }
        ViewScanResult result;
        result.failed_shards = scan->failed_shards;
        result.records.reserve(live_rows.size());
        for (const auto& [base_key, row] : live_rows) {
          result.records.push_back(
              ProjectRecord(*view_def, columns, base_key, *row));
        }
        callback(std::move(result));
      });
}

}  // namespace mvstore::view
