// Membership streaming (DESIGN.md §7): the range transfers behind a join
// and a decommission. Streams are resumable: an unanswered slice is
// re-requested from the last acknowledged cursor, and a crash resumes from
// the durable plan after Restart.

#ifndef MVSTORE_STORE_MEMBER_STREAMER_H_
#define MVSTORE_STORE_MEMBER_STREAMER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/trace.h"
#include "common/types.h"
#include "storage/row.h"
#include "store/ring.h"

namespace mvstore::store {

class Server;

class MemberStreamer {
 public:
  explicit MemberStreamer(Server& server) : server_(server) {}
  MemberStreamer(const MemberStreamer&) = delete;
  MemberStreamer& operator=(const MemberStreamer&) = delete;

  /// Streaming bootstrap of a joiner (already kJoining and in the ring):
  /// pulls every range in `plan` (one task per range and table,
  /// `join_stream_batch` rows per message, retry with linear backoff
  /// rotating through the sources), then flips the server to kServing.
  void BeginJoin(std::vector<Ring::RangeTransfer> plan);

  /// Decommission of a server the Cluster already removed from the ring:
  /// pushes each range in `plan` to its new owners (a full sweep, then a
  /// tail sweep for writes that raced the ring change), drains the hinted
  /// handoffs, then leaves (kLeft, endpoint down). New coordination is
  /// rejected from this call on.
  void BeginLeave(std::vector<Ring::RangeTransfer> plan);

  /// Restarts an interrupted join or decommission after a crash.
  void Resume();
  /// Drops the volatile stream progress (crash, leave).
  void Reset();

  /// One batch of a range stream: rows of `table` whose partition key falls
  /// in `range`, with keys strictly greater than `from`, holding at least
  /// one cell with ts >= `min_ts`; at most `limit` rows, in key order.
  /// `resume` is the next cursor; `done` means the range is exhausted. Runs
  /// on the source (join pulls) or locally (decommission pushes).
  struct RangeSlice {
    std::vector<storage::KeyedRow> rows;
    Key resume;
    bool done = true;
  };
  RangeSlice CollectRangeRows(const std::string& table,
                              Ring::TokenRange range, const Key& from,
                              int limit, Timestamp min_ts) const;

 private:
  /// One (range, table) unit of a stream. Join tasks pull from `peers`
  /// (rotating on retry); decommission tasks push to the one server in
  /// `peers`.
  struct StreamTask {
    std::string table;
    Ring::TokenRange range;
    std::vector<ServerId> peers;
    Key cursor;
    int attempt = 0;
    std::uint64_t rows_streamed = 0;
  };

  /// Base delay before re-requesting an unanswered slice; grows linearly
  /// with the attempt, capped at 8x.
  static constexpr SimTime kRetryBackoff = Millis(50);

  /// Streams `plan` from scratch, keeping rows stamped at/after `min_ts`.
  void StartSweep(const std::vector<Ring::RangeTransfer>& plan,
                  Timestamp min_ts);
  void BuildTasks(const std::vector<Ring::RangeTransfer>& plan);
  /// Issues the front task's next slice with a silence timeout.
  void Pump();
  void SliceSettled(std::uint64_t seq, std::size_t rows_acked, Key resume,
                    bool done);
  void FinishTask();
  void FinishJoin();
  /// Advances the decommission phases once a sweep's tasks have drained.
  void ContinueDecommission();
  /// Polls the hint queues; leaves when empty, reroutes them at the drain
  /// deadline.
  void DrainHintsThenLeave();
  void FinishLeave(bool forced);
  void EmitSpan(const char* name, const std::string& note);
  void EndTrace();

  Server& server_;
  std::deque<StreamTask> tasks_;
  /// Matches slice replies and timeout probes to the CURRENT slice.
  std::uint64_t seq_ = 0;
  bool pull_pending_ = false;
  /// The join or decommission plan: a durable intent record that outlives
  /// a crash (the cursors do not).
  std::vector<Ring::RangeTransfer> plan_;
  /// 0 = idle, 1 = full sweep, 2 = tail sweep, 3 = hint drain.
  int decommission_phase_ = 0;
  Timestamp min_ts_ = 0;
  /// Tail-sweep filter: rows written since shortly before the full sweep.
  Timestamp tail_cutoff_ = 0;
  SimTime drain_deadline_ = 0;
  /// Root span of the join or drain; child spans mark each streamed range.
  TraceContext trace_;
};

}  // namespace mvstore::store

#endif  // MVSTORE_STORE_MEMBER_STREAMER_H_
