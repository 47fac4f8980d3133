// A storage server: the coordinator role around one Replica (storage and
// local secondary-index fragments, see store/replica.h).
//
// Every server can coordinate any request (multi-master, Section II): the
// coordinator locates the N replicas via the ring, fans the request out, and
// acknowledges once the quorum (R or W) has answered. Late replica responses
// keep flowing into the finished operation, driving read repair and — on the
// write path — the collection of pre-update view-key versions that
// Algorithm 1 hands to the view-maintenance hook.

#ifndef MVSTORE_STORE_SERVER_H_
#define MVSTORE_STORE_SERVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/statusor.h"
#include "common/unique_fn.h"
#include "common/trace.h"
#include "common/types.h"
#include "sim/network.h"
#include "sim/service_queue.h"
#include "sim/simulation.h"
#include "store/anti_entropy.h"
#include "store/config.h"
#include "store/freshness.h"
#include "store/hint_store.h"
#include "store/hooks.h"
#include "store/member_streamer.h"
#include "store/metrics.h"
#include "store/replica.h"
#include "store/ring.h"
#include "store/schema.h"

namespace mvstore::store {

/// Write payload: column -> new value (nullopt = delete the cell).
using Mutation = std::map<ColumnName, std::optional<Value>>;

/// Heap-based k-way merge of sorted per-shard scan results into one sorted
/// stream. Sub-shard key spaces are disjoint by construction (distinct shard
/// header bytes), so duplicate keys only arise from overlapping prefixes —
/// they LWW-merge cell-by-cell (Row::MergeFrom). Exposed at namespace scope
/// so tests can fuzz it against a single-map oracle (ISSUE 10).
std::vector<storage::KeyedRow> MergeSortedShardScans(
    std::vector<std::vector<storage::KeyedRow>> shards);

/// What a scatter-gather view scan produced (ISSUE 10): the merged rows plus
/// how much of the partition they actually cover. `failed_shards` > 0 only
/// on the allow-partial path — the merged image is missing those sub-shards'
/// rows, so callers must degrade their freshness claim accordingly.
struct ScatterScanResult {
  std::vector<storage::KeyedRow> rows;
  int failed_shards = 0;
  int total_shards = 0;
};

/// A server's ring-membership lifecycle, orthogonal to the crash state (a
/// joining or draining server can crash and resume the transition after
/// Restart).
///
///   kLeft ──ActivateForJoin──▶ kJoining ──stream done──▶ kServing
///   kServing ──BeginLeave──▶ kDraining ──streamed+drained──▶ kLeft
enum class MembershipState { kServing, kJoining, kDraining, kLeft };

class Server {
 public:
  Server(ServerId id, sim::Simulation* sim, sim::Network* network,
         const Schema* schema, const Ring* ring, const ClusterConfig* config,
         Metrics* metrics, Tracer* tracer = nullptr);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  ServerId id() const { return id_; }
  sim::Simulation* simulation() const { return sim_; }
  sim::Network* network() const { return network_; }
  const Schema& schema() const { return *schema_; }
  const Ring& ring() const { return *ring_; }
  const ClusterConfig& config() const { return *config_; }
  Metrics* metrics() const { return metrics_; }
  /// The cluster's trace recorder (null in bare standalone construction).
  Tracer* tracer() const { return tracer_; }

  /// Installed by the Cluster after construction; may be null (no views).
  void set_view_hook(ViewMaintenanceHook* hook) { view_hook_ = hook; }

  /// This server's storage: engines, index fragments, row cache and the
  /// local handlers peer messages run.
  Replica& replica() { return replica_; }

  // ---------------------------------------------------------------------
  // Crash-stop fault model.
  // ---------------------------------------------------------------------

  /// Crash-stops this server: the view hook is told first (it orphans the
  /// server's propagation tasks and session state), every in-flight
  /// coordinator operation is aborted with an error callback, stored hints
  /// are dropped, the endpoint disappears from the network (in-flight
  /// messages to/from this incarnation are lost), and all volatile storage
  /// (memtables) is discarded. Durable commit logs and flushed runs survive.
  void Crash();

  /// Restarts a crashed server: replays the per-table commit logs into fresh
  /// memtables, rejoins the ring (endpoint back up, new incarnation already
  /// in effect), re-arms background tasks, kicks one anti-entropy round to
  /// catch up with peers, lets the view hook re-scrub owned ranges, and
  /// resumes an interrupted join or decommission.
  void Restart();

  bool crashed() const { return crashed_; }

  /// Monotonic process generation: bumped on every crash. Closures created
  /// by one incarnation refuse to run under a later one.
  std::uint64_t incarnation() const { return incarnation_; }

  // ---------------------------------------------------------------------
  // Elastic membership (ISSUE 6). The Cluster drives the transitions: it
  // owns the ring, so it performs the token (re)assignment and hands the
  // affected ranges down to streamer().
  // ---------------------------------------------------------------------

  MembershipState membership() const { return membership_; }
  /// Whether this server participates in replication (everything but
  /// kLeft). Draining servers still apply replica writes and answer reads;
  /// they only reject NEW client coordination.
  bool is_member() const { return membership_ != MembershipState::kLeft; }
  /// Whether this server accepts NEW client coordination: serving or still
  /// bootstrapping (a joiner is already in the ring and can fan out to
  /// replicas). Draining and left servers reject with Unavailable.
  bool AcceptsCoordination() const {
    return membership_ == MembershipState::kServing ||
           membership_ == MembershipState::kJoining;
  }
  /// Answers `callback` with Unavailable when !AcceptsCoordination().
  template <typename Callback>
  bool RejectIfLeaving(Callback& callback) const {
    if (AcceptsCoordination()) return false;
    callback(Status::Unavailable("server leaving the ring"));
    return true;
  }

  /// Marks a capacity slot constructed above `num_servers` as never joined:
  /// outside the ring, endpoint down, no background ticks until a join.
  void MarkNeverJoined();

  /// Brings a kLeft slot up as a joiner: fresh incarnation, endpoint up,
  /// background ticks armed. The Cluster calls this BEFORE adding the
  /// server to the ring, then starts streamer().BeginJoin.
  void ActivateForJoin();

  /// Moves the unanswered slots of in-flight quorum ops off `departed` and
  /// onto a current replica of the op's key, so acked writes are never
  /// stranded waiting on a server that left the ring.
  void RetargetInflightOps(ServerId departed);

  // ---------------------------------------------------------------------
  // Background subsystems. Each owns its state, counters and spans.
  // ---------------------------------------------------------------------

  AntiEntropy& anti_entropy() { return anti_entropy_; }
  HintStore& hints() { return hints_; }
  MemberStreamer& streamer() { return streamer_; }

  /// All servers of the cluster, indexed by ServerId (set by the Cluster;
  /// used to address peers).
  void set_peers(const std::vector<Server*>* peers) { peers_ = peers; }
  /// Server `id` of the cluster.
  const Server& peer(ServerId id) const { return *(*peers_)[id]; }

  // ---------------------------------------------------------------------
  // Client-facing entry points (invoked on the coordinator, typically via
  // store::Client which models the client<->coordinator network hop).
  // ---------------------------------------------------------------------

  /// Get on a base table (paper Get): merged cells of the first R replica
  /// responses. `columns` empty = whole row.
  void HandleClientGet(const std::string& table, const Key& key,
                       std::vector<ColumnName> columns, int read_quorum,
                       std::function<void(StatusOr<storage::Row>)> callback);

  /// Put on a base table (paper Put), with Algorithm 1's view-key
  /// collection and asynchronous view maintenance when views are affected.
  void HandleClientPut(const std::string& table, const Key& key,
                       const Mutation& mutation, Timestamp ts,
                       int write_quorum, SessionId session,
                       std::function<void(Status)> callback);

  /// Get on a view by view key (Algorithm 4; set of live records), under
  /// the consistency contract in `consistency` / `max_staleness` (ISSUE 7).
  void HandleClientViewGet(
      const std::string& view, const Key& view_key,
      std::vector<ColumnName> columns, int read_quorum, SessionId session,
      ReadConsistency consistency, SimTime max_staleness,
      std::function<void(StatusOr<ViewReadOutcome>)> callback);

  /// Lookup by secondary key through the native secondary index: broadcast
  /// to every server, probe local fragments, merge.
  void HandleClientIndexGet(
      const std::string& table, const ColumnName& column, const Value& value,
      std::function<void(StatusOr<std::vector<storage::KeyedRow>>)> callback);

  // ---------------------------------------------------------------------
  // Coordinator primitives (used internally and by the view-maintenance
  // engine, which issues quorum reads/writes on view tables).
  // ---------------------------------------------------------------------

  /// Fires once with the merge of the first `read_quorum` responses (or
  /// Unavailable on timeout). If `collect_all` is provided it fires once
  /// more, after every replica answered or the timeout expired, with each
  /// reachable replica's raw response; read repair happens at that point.
  void CoordinateRead(
      const std::string& table, const Key& key,
      std::vector<ColumnName> columns, int read_quorum,
      std::function<void(StatusOr<storage::Row>)> callback,
      std::function<void(std::vector<storage::Row>)> collect_all = nullptr);

  /// Applies `cells` (already timestamped) at the key's replicas; fires at
  /// `write_quorum` acks or Unavailable at timeout.
  void CoordinateWrite(const std::string& table, const Key& key,
                       const storage::Row& cells, int write_quorum,
                       std::function<void(Status)> callback);

  /// Combined Get-then-Put (Section IV-C): one message per replica that
  /// returns the pre-update `read_columns` and then applies `cells`.
  /// `callback` fires at the write quorum; `collect_pre_images` fires when
  /// all replicas answered or the timeout expired.
  void CoordinateReadThenWrite(
      const std::string& table, const Key& key,
      std::vector<ColumnName> read_columns, const storage::Row& cells,
      int write_quorum, std::function<void(Status)> callback,
      std::function<void(std::vector<storage::Row>)> collect_pre_images);

  /// Merged prefix scan over the key's partition (composite-key tables):
  /// merge of the first `read_quorum` replica scans.
  void CoordinateScan(
      const std::string& table, const Key& partition_prefix, int read_quorum,
      std::function<void(StatusOr<std::vector<storage::KeyedRow>>)> callback);

  /// Scatter-gather scan over a sharded view partition (ISSUE 9): one
  /// CoordinateScan QuorumOp per sub-shard prefix, answered with a streaming
  /// k-way merge of the per-shard sorted results (duplicate keys LWW-merge;
  /// by construction sub-shard key spaces are disjoint). A single prefix
  /// (an unsharded view) takes the same path with one scan, and is not
  /// counted in `view_scatter_scans`.
  ///
  /// With `allow_partial` false, fails with the first sub-scan error: a
  /// partition's answer must cover every shard or rows silently vanish from
  /// the merged image. With `allow_partial` true (eventual-consistency
  /// reads, ISSUE 10), one quorum-dead shard no longer fails the whole
  /// query: the reachable shards' merge is served with `failed_shards` set,
  /// and only all-shards-failed surfaces the error.
  void CoordinateViewScatterScan(
      const std::string& table, std::vector<Key> shard_prefixes,
      int read_quorum, bool allow_partial,
      std::function<void(StatusOr<ScatterScanResult>)> callback);

  /// A local probe of `table` for rows whose `column` equals `value`:
  /// LocalIndexProbe (index fragment) or LocalMatchScan (whole fragment).
  using MatchProbe = std::vector<storage::KeyedRow> (Replica::*)(
      const std::string& table, const ColumnName& column, const Value& value);

  /// Broadcast match as a coordinator primitive: every ring member runs
  /// `probe` at `service` each, and the merged image is re-filtered on
  /// `column` == `value`. The machinery of HandleClientIndexGet, also the
  /// bounded-read router's SI path and, when no index covers the column,
  /// its deliberately expensive base-table fallback. `name` names the
  /// quorum op (and its trace span); `quorum_error` is its failure message.
  void CoordinateBroadcastMatch(
      std::string name, MatchProbe probe, SimTime service,
      std::string quorum_error, const std::string& table,
      const ColumnName& column, const Value& value,
      std::function<void(StatusOr<std::vector<storage::KeyedRow>>)> callback);

  /// Sends `handler` to run on peer `to` under its service queue; the
  /// returned value travels back and `on_reply` runs here. Either leg may
  /// be dropped by the network. The demand `remote_service(*peer)`, plus the
  /// fixed per-message receive overhead, is resolved on the peer at
  /// delivery, so it can depend on replica-local state the sender cannot
  /// know (is the row cached there?); FixedService wraps a constant one.
  /// `payloads` is the logical request count the message carries (> 1 for a
  /// batched replica-write flush). The closures are move-only, so a request
  /// may own its payload vector outright.
  template <typename Response>
  void CallPeer(ServerId to, UniqueFn<SimTime(Server&)> remote_service,
                UniqueFn<Response(Server&)> handler,
                UniqueFn<void(Response)> on_reply,
                std::uint64_t payloads = 1);

  /// This server's advisory freshness cache (ISSUE 7), merged from gossip
  /// the maintenance engine piggybacks on propagation-completion traffic.
  /// Volatile: cleared on crash.
  FreshnessCache& freshness_cache() { return freshness_cache_; }

  /// One clock-driven compaction round: flush + merge + tombstone GC on
  /// every engine, each charged through the service queue. The purge floor
  /// is the oldest pending hint's timestamp. Exposed for tests; also runs
  /// periodically when `compaction_interval` > 0.
  void RunCompactionRound();

  /// Runs `fn` on this server after (queueing +) `service` time — unless the
  /// server has crashed (or crashed and restarted) in between: work queued
  /// by one process incarnation dies with it.
  void Enqueue(SimTime service, UniqueFn<void()> fn) {
    queue_.Submit(service, [this, incarnation = incarnation_,
                            fn = std::move(fn)]() mutable {
      if (incarnation != incarnation_ || crashed_) return;
      fn();
    });
  }

  /// Runs `fn` after `delay` unless the server has crashed (or crashed and
  /// restarted, or left) in between: the timer counterpart of Enqueue.
  void After(SimTime delay, UniqueFn<void()> fn) {
    sim_->After(delay, [this, incarnation = incarnation_,
                        fn = std::move(fn)]() mutable {
      if (incarnation != incarnation_ || crashed_) return;
      fn();
    });
  }

  /// Replicas of `key` in `table` (partition prefix for composite keys).
  /// Served from a per-server placement cache keyed by the interned
  /// partition key and the ring version, so repeated routing of the same
  /// partition (every write, every anti-entropy row) costs one hash and one
  /// probe instead of a ring walk and a fresh allocation. The reference is
  /// stable until the ring membership changes.
  const std::vector<ServerId>& ReplicasOf(const std::string& table,
                                          const Key& key) const;

  /// Majority quorum for the replication factor (view maintenance ops).
  int MajorityQuorum() const { return config_->replication_factor / 2 + 1; }

  /// replica().EngineFor(table).
  storage::Engine& EngineFor(const std::string& table) {
    return replica_.EngineFor(table);
  }

  /// (Re-)arms the periodic background ticks for the current incarnation,
  /// in a fixed order: anti-entropy, hint replay, compaction. A no-op for a
  /// server outside the ring.
  void Start();

  /// Ships one replica mutation to `to` and acks through `on_ack`. With
  /// `write_batch_max` > 1, batching is Nagle-style per destination: a
  /// mutation ships immediately while the lane is idle (no added latency at
  /// low concurrency), and parks while a batch is in flight. Parked
  /// mutations flush as ONE network message when the in-flight batch acks,
  /// when `write_batch_max` accumulated, or after `write_batch_delay` at
  /// the latest. With batching off every mutation is its own message.
  /// `service` is the per-mutation replica-side demand (batching saves the
  /// per-message receive overhead, not the apply work).
  void SendReplicaWrite(ServerId to, const std::string& table, const Key& key,
                        const storage::Row& cells, SimTime service,
                        UniqueFn<void(bool)> on_ack);

 private:
  /// The generic coordinator state machine drives fan-out/abort via the
  /// private registration primitives below.
  template <typename Response>
  friend class QuorumOp;
  /// Membership streaming drives the lifecycle: the membership state, the
  /// process stop of a completed leave, and the view hook's join/leave.
  friend class MemberStreamer;

  /// Wraps a reply callback so that assembling the reply charges coordinator
  /// service time (reply processing contributes to saturation under load).
  template <typename ResultT>
  std::function<void(ResultT)> WrapReply(
      std::function<void(ResultT)> callback);

  /// Arms one periodic chain for the current incarnation: `body` runs every
  /// `interval`, first after a phase staggered by server id so the servers'
  /// rounds do not align. The chain ends at the first tick where `guard`
  /// fails, and dies with the incarnation (Restart arms a fresh one).
  /// `interval` <= 0 arms nothing.
  void SchedulePeriodic(SimTime interval, std::function<bool()> guard,
                        std::function<void()> body);
  void ArmPeriodic(SimTime delay, SimTime interval,
                   std::function<bool()> guard, std::function<void()> body);

  /// The process stop shared by Crash and a completed leave (after the view
  /// hook was told): aborts every in-flight op, drops hints, parked writes,
  /// the queue backlog and stream progress, and leaves the network under a
  /// fresh incarnation.
  void Shutdown();

  /// Registers an abort closure for an in-flight coordinator operation;
  /// Shutdown() invokes every registered closure. `retarget` is invoked
  /// with the id of a server that left the ring mid-operation so the op can
  /// move unanswered slots onto a live replica. Returns the registration id
  /// the op passes to DeregisterInflightOp when it finalizes normally.
  std::uint64_t RegisterInflightOp(std::function<void()> abort,
                                   std::function<void(ServerId)> retarget);
  void DeregisterInflightOp(std::uint64_t op_id);

  /// The partition key used for ring placement: a slice of `key` (valid
  /// while `key` lives).
  std::string_view PartitionViewFor(const std::string& table,
                                    const Key& key) const;

  /// One parked replica mutation awaiting a batch flush. Move-only (the ack
  /// is a UniqueFn), so a flushed batch MOVES into the request closure —
  /// cells and keys ride to the replica without a copy or a shared_ptr.
  struct PendingReplicaWrite {
    std::string table;
    Key key;
    storage::Row cells;
    SimTime service;
    UniqueFn<void(bool)> on_ack;
    SimTime enqueued_at;
  };

  /// Per-destination batching lane: parked mutations plus the number of
  /// shipped-but-unacknowledged batches (the Nagle gate).
  struct ReplicaWriteLane {
    std::vector<PendingReplicaWrite> parked;
    int in_flight = 0;
  };

  /// Ships everything parked for `to` as one network message whose replica
  /// service demand is the sum of the batched mutations' demands.
  void FlushReplicaWrites(ServerId to);

  ServerId id_;
  sim::Simulation* sim_;
  sim::Network* network_;
  const Schema* schema_;
  const Ring* ring_;
  const ClusterConfig* config_;
  Metrics* metrics_;
  Tracer* tracer_ = nullptr;
  ViewMaintenanceHook* view_hook_ = nullptr;
  const std::vector<Server*>* peers_ = nullptr;

  sim::ServiceQueue queue_;
  Replica replica_;
  /// Per-destination replica-write lanes (write_batch_max > 1 only);
  /// cleared on crash — parked mutations die with the coordinator.
  std::map<ServerId, ReplicaWriteLane> write_lanes_;
  /// Advisory per-view freshness facts gossiped by the maintenance engine;
  /// volatile (cleared on crash).
  FreshnessCache freshness_cache_;

  bool crashed_ = false;
  std::uint64_t incarnation_ = 0;
  std::uint64_t next_op_id_ = 0;
  /// In-flight coordinator ops by registration id (ordered: Shutdown aborts
  /// in deterministic id order).
  struct InflightOp {
    std::function<void()> abort;
    std::function<void(ServerId)> retarget;
  };
  std::map<std::uint64_t, InflightOp> inflight_;

  // --- placement cache ---
  /// Cached ring placements, one slot per interned partition key, revalidated
  /// against the ring version (a deque so entries never relocate — returned
  /// references survive cache growth).
  struct PlacementEntry {
    std::uint64_t ring_version = 0;
    bool valid = false;
    std::vector<ServerId> replicas;
  };
  mutable KeyInterner placement_keys_;
  mutable std::deque<PlacementEntry> placement_cache_;

  MembershipState membership_ = MembershipState::kServing;

  AntiEntropy anti_entropy_{*this};
  HintStore hints_{*this};
  MemberStreamer streamer_{*this};
};

// ---------------------------------------------------------------------------
// Implementation details only below here.
// ---------------------------------------------------------------------------

/// A service demand that does not depend on the receiving replica.
inline auto FixedService(SimTime service) {
  return [service](Server&) { return service; };
}

template <typename Response>
void Server::CallPeer(ServerId to, UniqueFn<SimTime(Server&)> remote_service,
                      UniqueFn<Response(Server&)> handler,
                      UniqueFn<void(Response)> on_reply,
                      std::uint64_t payloads) {
  Server* self = this;
  Server* peer = (*peers_)[to];
  network_->Send(
      id_, to,
      [peer, self, remote_service = std::move(remote_service),
       handler = std::move(handler),
       on_reply = std::move(on_reply)]() mutable {
        // Receiving a message costs a fixed deserialization/dispatch
        // overhead on top of the handler's own demand — charged per
        // MESSAGE, which is what a batched flush amortizes across its
        // payloads.
        const SimTime service =
            peer->config_->perf.message_process + remote_service(*peer);
        // Enqueue (not a bare queue submit) so work delivered to an
        // incarnation that crashes before servicing it dies with that
        // incarnation.
        peer->Enqueue(
            service,
            [peer, self, handler = std::move(handler),
             on_reply = std::move(on_reply)]() mutable {
              Response response = handler(*peer);
              peer->network_->Send(
                  peer->id_, self->id_,
                  [on_reply = std::move(on_reply),
                   response = std::move(response)]() mutable {
                    on_reply(std::move(response));
                  });
            });
      },
      payloads);
}

}  // namespace mvstore::store

#endif  // MVSTORE_STORE_SERVER_H_
