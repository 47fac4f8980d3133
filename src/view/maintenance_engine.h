// The view-maintenance engine: Algorithm 1's asynchronous propagation under
// both Section IV-F concurrency-control designs, plus the crash, membership
// and scrub handling around it. View reads (Algorithm 4, the session
// guarantee, bounded staleness) are served by the ViewReader it owns.
//
// One engine serves the whole cluster. It installs itself as every server's
// ViewMaintenanceHook. Per-server state (in the dedicated mode the
// per-propagator row queues) is kept per server id.

#ifndef MVSTORE_VIEW_MAINTENANCE_ENGINE_H_
#define MVSTORE_VIEW_MAINTENANCE_ENGINE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "store/cluster.h"
#include "store/hooks.h"
#include "view/lock_service.h"
#include "view/propagation.h"
#include "view/view_reader.h"

namespace mvstore::view {

class MaintenanceEngine : public store::ViewMaintenanceHook {
 public:
  /// Creates the engine and installs it on every server of `cluster`.
  explicit MaintenanceEngine(store::Cluster* cluster);

  MaintenanceEngine(const MaintenanceEngine&) = delete;
  MaintenanceEngine& operator=(const MaintenanceEngine&) = delete;

  // --- store::ViewMaintenanceHook ---
  std::uint64_t OnBasePutIssued(store::Server* coordinator, const Key& key,
                                const std::vector<const store::ViewDef*>& views,
                                Timestamp ts,
                                store::SessionId session) override;
  void OnBasePutCommitted(store::Server* coordinator, const Key& base_key,
                          const storage::Row& written,
                          std::vector<store::CollectedViewKeys> views,
                          store::SessionId session,
                          std::uint64_t put_group) override;
  void HandleViewGet(
      store::Server* coordinator, const store::ViewDef& view,
      const Key& view_key, store::ViewReadSpec spec,
      std::function<void(StatusOr<store::ViewReadOutcome>)> callback) override;
  void OnServerCrash(store::Server* server) override;
  void OnServerRestart(store::Server* server) override;
  void OnServerJoin(store::Server* server) override;
  void OnServerLeave(store::Server* server) override;

  /// Number of propagations registered but not yet completed or abandoned.
  std::uint64_t active_propagations() const { return active_; }

  /// Drives the simulation until every registered propagation has completed
  /// (tests and examples; CHECK-fails if the simulation runs dry first).
  void Quiesce();

  LockService& lock_service() { return locks_; }

  /// Retry budget per propagation before it is abandoned (counted in
  /// attempts; generous — Section IV-D argues success is eventually
  /// guaranteed when propagations are retried).
  static constexpr int kMaxAttempts = 500;

 private:
  struct RowQueue {
    std::deque<std::shared_ptr<PropagationTask>> tasks;
    bool running = false;
  };

  /// Serialization resource name for a task (one lock / one queue per
  /// (view, base key), Section IV-F).
  static std::string ResourceOf(const PropagationTask& task);

  /// Whether a propagation of the (view, base key) family is in flight; the
  /// owned-range scrub and the reader's targeted repair skip such families.
  bool FamilyInFlight(const std::string& view, const Key& base_key) const;

  const storage::Cell& CurrentGuess(const PropagationTask& task) const;

  /// Linear backoff (capped) for retrying a failed attempt.
  SimTime RetryDelay(const PropagationTask& task) const;

  SimTime SampleDispatchDelay();

  // Lock-service mode.
  void RunWithLocks(std::shared_ptr<PropagationTask> task);

  // Paper-prototype mode: no concurrency control.
  void RunUnsynchronized(std::shared_ptr<PropagationTask> task);

  // Dedicated-propagator mode.
  void EnqueueOnPropagator(std::shared_ptr<PropagationTask> task);
  void PumpRowQueue(ServerId propagator, const std::string& resource);

  /// Handles one attempt's outcome: completion, retry with the next guess
  /// (optionally refreshing guesses from the base row), or abandonment.
  void OnAttemptDone(std::shared_ptr<PropagationTask> task, Status status,
                     std::function<void(bool /*completed*/)> then);

  void RefreshGuesses(std::shared_ptr<PropagationTask> task,
                      std::function<void()> then);

  /// Re-enters a task through its mode's execution path.
  void DispatchTask(std::shared_ptr<PropagationTask> task);

  /// Parks a failed task until a same-row propagation completes (or a
  /// fallback timer fires); Section IV-F modes only.
  void ParkForRetry(const std::string& resource,
                    std::shared_ptr<PropagationTask> task);
  void WakeParked(const std::string& resource);

  void TaskCompleted(const std::shared_ptr<PropagationTask>& task);
  void TaskAbandoned(const std::shared_ptr<PropagationTask>& task);
  /// Settles the task's freshness intent (and with it the origin's session
  /// bookkeeping): MarkApplied when `completed`, MarkWounded otherwise. In
  /// dedicated-propagator mode the settlement notice crosses the network to
  /// the tracker shard colocated with the origin.
  void NotifyOrigin(const std::shared_ptr<PropagationTask>& task,
                    bool completed);

  // --- propagation coalescing ---

  /// Whether `task` may be merged into `winner` (same resource assumed):
  /// the winner must not be writing or in write-limbo, must share the
  /// origin, and must not need a lock upgrade from the merge.
  bool CanAbsorb(const PropagationTask& winner,
                 const PropagationTask& task) const;
  /// LWW-merges `task`'s payload into `winner` and records it for
  /// settlement when the winner finishes.
  void AbsorbTask(const std::shared_ptr<PropagationTask>& winner,
                  const std::shared_ptr<PropagationTask>& task);
  /// Settles the bookkeeping of every task the winner absorbed.
  void FinishAbsorbed(const std::shared_ptr<PropagationTask>& winner,
                      bool completed);

  // --- crash-stop fault model ---

  /// The server a task's attempts execute on: the origin coordinator, or the
  /// base key's primary in dedicated-propagator mode.
  ServerId ExecutorOf(const PropagationTask& task) const;

  void RegisterTask(const std::shared_ptr<PropagationTask>& task);
  void UnregisterTask(const std::shared_ptr<PropagationTask>& task);

  /// Marks a task lost to a crash: it leaves the active set, every pending
  /// closure that still holds it bails out, and the scrub inherits recovery.
  void OrphanTask(const std::shared_ptr<PropagationTask>& task);

  /// Scrubs the view families whose base key is primarily owned by `server`
  /// (skipping families with a propagation still in flight); returns the
  /// number of broken families repaired.
  std::size_t RunOwnedRangeScrub(ServerId server);
  void OwnedRangeScrubTick(ServerId server);

  /// Piggybacks (applied high-water, observed lag) for the task's view onto
  /// replica traffic toward the view partition's replicas, feeding their
  /// advisory FreshnessCaches.
  void GossipFreshness(const std::shared_ptr<PropagationTask>& task);

  store::Cluster* cluster_;
  Rng rng_;
  LockService locks_;
  ViewReader reader_;
  std::vector<std::map<std::string, RowQueue>> row_queues_;  // by propagator
  std::map<std::string, std::vector<std::shared_ptr<PropagationTask>>>
      parked_;  // retry parking lot, by resource
  std::uint64_t active_ = 0;
  std::uint64_t next_task_id_ = 0;

  /// Every not-yet-finished task, so OnServerCrash can orphan a crashed
  /// server's share eagerly (closures dropped by the network would otherwise
  /// leak them out of the active count).
  std::map<std::uint64_t, std::shared_ptr<PropagationTask>> live_tasks_;
  /// In-flight tasks per serialization resource; the owned-range scrub skips
  /// families that propagation is still working on.
  std::map<std::string, int> active_per_resource_;
  /// The most recently created still-pending task per resource — the merge
  /// target for propagation coalescing. Erased when that task finishes.
  std::map<std::string, std::shared_ptr<PropagationTask>> coalesce_anchor_;

  /// Freshness intents registered at Put issue but not yet attached to
  /// their propagation tasks (OnBasePutIssued -> OnBasePutCommitted window).
  /// A crash of the origin in that window wounds the whole group.
  struct PutGroup {
    ServerId origin;
    std::map<std::string, std::uint64_t> intents;  // by view name
  };
  std::map<std::uint64_t, PutGroup> put_groups_;
  std::uint64_t next_put_group_ = 0;
};

}  // namespace mvstore::view

#endif  // MVSTORE_VIEW_MAINTENANCE_ENGINE_H_
