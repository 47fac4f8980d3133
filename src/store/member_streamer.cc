#include "store/member_streamer.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "store/server.h"

namespace mvstore::store {

void MemberStreamer::BeginJoin(std::vector<Ring::RangeTransfer> plan) {
  MVSTORE_CHECK(server_.membership() == MembershipState::kJoining);
  if (Tracer* tracer = server_.tracer(); tracer != nullptr) {
    trace_ = tracer->StartTrace("member.join", static_cast<int>(server_.id()),
                                server_.simulation()->Now());
  }
  plan_ = std::move(plan);
  StartSweep(plan_, 0);
}

void MemberStreamer::BeginLeave(std::vector<Ring::RangeTransfer> plan) {
  MVSTORE_CHECK(server_.membership() == MembershipState::kServing)
      << "server " << server_.id() << " is not serving";
  MVSTORE_CHECK(!server_.crashed());
  server_.membership_ = MembershipState::kDraining;
  plan_ = std::move(plan);
  server_.metrics()->member_leaves_started++;
  const SimTime now = server_.simulation()->Now();
  if (Tracer* tracer = server_.tracer(); tracer != nullptr) {
    trace_ =
        tracer->StartTrace("member.drain", static_cast<int>(server_.id()), now);
  }
  drain_deadline_ = now + server_.config().decommission_drain_timeout;
  // Writes coordinated while the ring change raced this call may still land
  // here; the tail sweep (phase 2) re-ships anything stamped since shortly
  // before the full sweep began. Client timestamps are epoch + client time.
  tail_cutoff_ =
      kClientTimestampEpoch + (now > Seconds(1) ? now - Seconds(1) : 0);
  decommission_phase_ = 1;
  StartSweep(plan_, 0);
}

void MemberStreamer::Resume() {
  // A no-op for a serving server: its plan is empty and Pump() idles.
  if (server_.membership() == MembershipState::kDraining) {
    decommission_phase_ = 1;
  }
  StartSweep(plan_, 0);
}

void MemberStreamer::Reset() {
  tasks_.clear();
  pull_pending_ = false;
}

void MemberStreamer::StartSweep(const std::vector<Ring::RangeTransfer>& plan,
                                Timestamp min_ts) {
  min_ts_ = min_ts;
  BuildTasks(plan);
  Pump();
}

void MemberStreamer::BuildTasks(const std::vector<Ring::RangeTransfer>& plan) {
  Reset();
  const bool push = server_.membership() == MembershipState::kDraining;
  for (const Ring::RangeTransfer& transfer : plan) {
    // No peers: the remaining members already replicate the range (leave at
    // low replication pressure) — nothing to move.
    if (transfer.peers.empty()) continue;
    for (const std::string& table : server_.schema().TableNames()) {
      if (push) {
        // Push: one task per NEW owner — each must receive its own copy.
        for (ServerId owner : transfer.peers) {
          tasks_.push_back(
              StreamTask{table, transfer.range, {owner}, Key{}, 0, 0});
        }
      } else {
        // Pull: one task per range, rotating through the sources on retry.
        tasks_.push_back(
            StreamTask{table, transfer.range, transfer.peers, Key{}, 0, 0});
      }
    }
  }
}

void MemberStreamer::Pump() {
  const MembershipState membership = server_.membership();
  if (server_.crashed() || pull_pending_) return;
  if (membership != MembershipState::kJoining &&
      membership != MembershipState::kDraining) {
    return;
  }
  if (tasks_.empty()) {
    if (membership == MembershipState::kJoining) {
      FinishJoin();
    } else {
      ContinueDecommission();
    }
    return;
  }

  const ClusterConfig& config = server_.config();
  StreamTask& task = tasks_.front();
  const std::uint64_t seq = ++seq_;
  pull_pending_ = true;
  const int limit = std::max(1, config.join_stream_batch);
  const std::string table = task.table;
  const Ring::TokenRange range = task.range;
  const Key from = task.cursor;
  const Timestamp min_ts = min_ts_;
  const int attempt = task.attempt;

  if (membership == MembershipState::kJoining) {
    // Pull the next slice from a source replica.
    const ServerId source =
        task.peers[static_cast<std::size_t>(attempt) % task.peers.size()];
    server_.CallPeer<RangeSlice>(
        source, FixedService(config.perf.view_scan_local),
        [table, range, from, limit, min_ts](Server& s) {
          return s.streamer().CollectRangeRows(table, range, from, limit,
                                               min_ts);
        },
        [this, seq, table](RangeSlice slice) {
          if (seq != seq_) return;  // superseded by a retry
          // Applying the slice is real replica work: charge it through the
          // service queue before acknowledging progress.
          const SimTime service =
              server_.config().perf.write_local *
              static_cast<SimTime>(slice.rows.size() + 1);
          server_.Enqueue(service, [this, seq, table,
                                    slice = std::move(slice)]() mutable {
            if (seq != seq_) return;
            server_.replica().ApplyRows(table, slice.rows);
            SliceSettled(seq, slice.rows.size(), slice.resume, slice.done);
          });
        });
  } else {
    // Decommission push: collect locally (scan demand on our own cores),
    // then ship the slice to the single new owner of this task.
    const ServerId target = task.peers.front();
    server_.Enqueue(config.perf.view_scan_local, [this, seq, table, range,
                                                  from, limit, min_ts,
                                                  target] {
      if (seq != seq_) return;
      RangeSlice slice = CollectRangeRows(table, range, from, limit, min_ts);
      const std::size_t n = slice.rows.size();
      if (n == 0) {  // nothing (left) in this slice: just advance the cursor
        SliceSettled(seq, 0, std::move(slice.resume), slice.done);
        return;
      }
      const SimTime service =
          server_.config().perf.write_local * static_cast<SimTime>(n + 1);
      server_.CallPeer<bool>(
          target, FixedService(service),
          [table, rows = std::move(slice.rows)](Server& s) {
            s.replica().ApplyRows(table, rows);
            return true;
          },
          [this, seq, n, resume = std::move(slice.resume),
           done = slice.done](bool) { SliceSettled(seq, n, resume, done); });
    });
  }

  // Arm the silence probe: an unacknowledged slice is re-requested from the
  // last acked cursor after a linearly growing backoff, rotating to the next
  // candidate source. Idempotent on the receiving side (LWW applies).
  server_.After(config.rpc_timeout, [this, seq] {
    if (seq != seq_ || !pull_pending_) return;
    pull_pending_ = false;
    server_.metrics()->member_stream_retries++;
    // A draining server cannot wait forever on an unreachable new owner:
    // past the drain deadline the remaining slices for that range are
    // abandoned (counted as a forced drain) and the surviving replicas'
    // anti-entropy covers the gap once the owner returns. A joiner has no
    // such deadline — it keeps rotating sources until one answers.
    if (server_.membership() == MembershipState::kDraining &&
        server_.simulation()->Now() >= drain_deadline_ && !tasks_.empty()) {
      server_.metrics()->member_drains_forced++;
      FinishTask();
      Pump();
      return;
    }
    int next_attempt = 1;
    if (!tasks_.empty()) next_attempt = ++tasks_.front().attempt;
    const SimTime backoff =
        kRetryBackoff * static_cast<SimTime>(std::min(next_attempt, 8));
    server_.After(backoff, [this] { Pump(); });
  });
}

void MemberStreamer::SliceSettled(std::uint64_t seq, std::size_t rows_acked,
                                  Key resume, bool done) {
  if (seq != seq_) return;  // a retry superseded this slice
  pull_pending_ = false;
  if (tasks_.empty()) return;
  StreamTask& task = tasks_.front();
  task.cursor = std::move(resume);
  task.attempt = 0;
  task.rows_streamed += rows_acked;
  server_.metrics()->member_rows_streamed += rows_acked;
  if (done) FinishTask();
  Pump();
}

void MemberStreamer::FinishTask() {
  const StreamTask& task = tasks_.front();
  server_.metrics()->member_ranges_streamed++;
  EmitSpan("member.stream_range",
           task.table + " rows=" + std::to_string(task.rows_streamed) +
               " peer=" + std::to_string(task.peers.front()));
  tasks_.pop_front();
}

void MemberStreamer::FinishJoin() {
  server_.membership_ = MembershipState::kServing;
  plan_.clear();
  server_.metrics()->member_joins_completed++;
  EndTrace();
  // The streams carried a snapshot; one immediate anti-entropy round closes
  // any gap with writes replicated while the bootstrap was in flight.
  server_.anti_entropy().RunRound();
  if (server_.view_hook_ != nullptr) server_.view_hook_->OnServerJoin(&server_);
}

void MemberStreamer::ContinueDecommission() {
  if (decommission_phase_ == 1) {
    // Full sweep done. Tail sweep: only rows stamped since shortly before
    // the full sweep began (straggler writes in flight at the ring change).
    decommission_phase_ = 2;
    StartSweep(plan_, tail_cutoff_);
  } else if (decommission_phase_ == 2) {
    decommission_phase_ = 3;
    DrainHintsThenLeave();
  }
}

void MemberStreamer::DrainHintsThenLeave() {
  if (server_.crashed() ||
      server_.membership() != MembershipState::kDraining) {
    return;
  }
  HintStore& hints = server_.hints();
  if (hints.outstanding() == 0) {
    FinishLeave(/*forced=*/false);
    return;
  }
  if (server_.simulation()->Now() >= drain_deadline_) {
    // The deadline expired with hints still owed: the data must not leave
    // with this server, so re-send every queued write to the keys' current
    // replicas and go.
    server_.metrics()->member_drains_forced++;
    hints.RerouteAll();
    FinishLeave(/*forced=*/true);
    return;
  }
  hints.Replay();
  server_.After(Millis(100), [this] { DrainHintsThenLeave(); });
}

void MemberStreamer::FinishLeave(bool forced) {
  MVSTORE_CHECK(server_.membership() == MembershipState::kDraining);
  EmitSpan("member.leave",
           forced ? std::string("forced") : std::string("drained"));
  // Same order as Crash: the view engine sheds this server's share of
  // volatile maintenance state first, then the in-flight ops (internal ones
  // — hint replays, view maintenance — may still be open) are aborted.
  if (server_.view_hook_ != nullptr) {
    server_.view_hook_->OnServerLeave(&server_);
  }
  if (!forced) {
    MVSTORE_CHECK_EQ(server_.hints().outstanding(), std::size_t{0})
        << "server " << server_.id() << " left with hints still owed";
  }
  server_.Shutdown();
  plan_.clear();
  decommission_phase_ = 0;
  server_.membership_ = MembershipState::kLeft;
  server_.metrics()->member_leaves_completed++;
  EndTrace();
}

MemberStreamer::RangeSlice MemberStreamer::CollectRangeRows(
    const std::string& table, Ring::TokenRange range, const Key& from,
    int limit, Timestamp min_ts) const {
  RangeSlice slice;
  const storage::Engine* engine = server_.replica().FindEngine(table);
  if (engine == nullptr) return slice;  // nothing stored: done
  // Bounded window of keys in the range past the cursor (cheap: no row
  // merges), then point lookups for just those rows. The cursor advances
  // over EXAMINED keys, so a min_ts tail sweep that filters everything out
  // still makes progress.
  bool more = false;
  const std::vector<Key> keys = engine->CollectKeysAfter(
      from, limit,
      [&](const Key& key) {
        return range.Covers(
            Ring::TokenOf(server_.PartitionViewFor(table, key)));
      },
      &more);
  slice.done = !more;
  if (keys.empty()) return slice;
  slice.resume = keys.back();
  const auto fresh = [min_ts](const auto& col_cell) {
    return col_cell.second.ts >= min_ts;
  };
  for (const Key& key : keys) {
    auto row = engine->GetRow(key);
    if (!row.has_value()) continue;
    if (min_ts > 0 &&
        std::none_of(row->cells().begin(), row->cells().end(), fresh)) {
      continue;
    }
    slice.rows.push_back(storage::KeyedRow{key, *std::move(row)});
  }
  return slice;
}

void MemberStreamer::EmitSpan(const char* name, const std::string& note) {
  if (server_.tracer() == nullptr || !trace_) return;
  server_.tracer()->Mark(trace_, name, static_cast<int>(server_.id()),
                         server_.simulation()->Now(), note);
}

void MemberStreamer::EndTrace() {
  if (server_.tracer() == nullptr || !trace_) return;
  server_.tracer()->EndSpan(trace_, server_.simulation()->Now());
  trace_ = {};
}

}  // namespace mvstore::store
