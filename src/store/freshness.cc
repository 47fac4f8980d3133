#include "store/freshness.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "store/metrics.h"

namespace mvstore::store {

FreshnessTracker::FreshnessTracker(Metrics* metrics) : metrics_(metrics) {}

// ---------------------------------------------------------------------------
// Intent lifecycle.
// ---------------------------------------------------------------------------

std::uint64_t FreshnessTracker::RegisterIntent(const std::string& view,
                                               const Key& base_key,
                                               Timestamp ts, SessionId session,
                                               ServerId origin) {
  const std::uint64_t id = ++next_intent_;
  Intent intent;
  intent.view = view;
  intent.base_key = base_key;
  intent.ts = ts;
  intent.session = session;
  intent.origin = origin;
  intents_.emplace(id, std::move(intent));
  by_view_[view].insert(id);
  if (metrics_ != nullptr) metrics_->freshness_intents_registered++;
  SessionStarted(origin, session, view);
  return id;
}

void FreshnessTracker::ResolvePartitions(std::uint64_t intent,
                                         std::set<Key> partitions) {
  if (intent == 0 || partitions.empty()) return;
  auto it = intents_.find(intent);
  if (it == intents_.end()) return;
  it->second.partitions = std::move(partitions);
}

void FreshnessTracker::SettleSession(Intent& intent) {
  if (intent.session_settled) return;
  intent.session_settled = true;
  SessionFinished(intent.origin, intent.session, intent.view);
}

void FreshnessTracker::EraseIntent(
    std::map<std::uint64_t, Intent>::iterator it) {
  auto view_it = by_view_.find(it->second.view);
  if (view_it != by_view_.end()) {
    view_it->second.erase(it->first);
    if (view_it->second.empty()) by_view_.erase(view_it);
  }
  intents_.erase(it);
}

void FreshnessTracker::Discard(std::uint64_t intent) {
  if (intent == 0) return;
  auto it = intents_.find(intent);
  if (it == intents_.end()) return;
  SettleSession(it->second);
  const std::string view = it->second.view;
  EraseIntent(it);
  FireImprovement(view);
}

void FreshnessTracker::MarkApplied(std::uint64_t intent) {
  if (intent == 0) return;
  auto it = intents_.find(intent);
  if (it == intents_.end()) return;
  Intent& record = it->second;
  for (const Key& partition : record.partitions) {
    auto [hw, inserted] = applied_high_water_.try_emplace(
        std::make_pair(record.view, partition), record.ts);
    if (!inserted) hw->second = std::max(hw->second, record.ts);
  }
  SettleSession(record);
  const std::string view = record.view;
  EraseIntent(it);
  FireImprovement(view);
}

void FreshnessTracker::MarkWounded(std::uint64_t intent) {
  if (intent == 0) return;
  auto it = intents_.find(intent);
  if (it == intents_.end() || it->second.wounded) return;
  it->second.wounded = true;
  if (metrics_ != nullptr) metrics_->freshness_intents_wounded++;
  SettleSession(it->second);
}

std::size_t FreshnessTracker::FamilyAudited(const std::string& view,
                                            const Key& base_key) {
  auto view_it = by_view_.find(view);
  if (view_it == by_view_.end()) return 0;
  std::vector<std::uint64_t> matched;
  for (std::uint64_t id : view_it->second) {
    if (intents_.at(id).base_key == base_key) matched.push_back(id);
  }
  for (std::uint64_t id : matched) {
    auto it = intents_.find(id);
    if (it->second.wounded && metrics_ != nullptr) {
      metrics_->freshness_wounds_cleared++;
    }
    SettleSession(it->second);
    EraseIntent(it);
  }
  if (!matched.empty()) FireImprovement(view);
  return matched.size();
}

// ---------------------------------------------------------------------------
// Queries.
// ---------------------------------------------------------------------------

Timestamp FreshnessTracker::FreshAsOf(const std::string& view,
                                      const Key& partition,
                                      Timestamp now_ts) const {
  Timestamp fresh = now_ts;
  auto view_it = by_view_.find(view);
  if (view_it == by_view_.end()) return fresh;
  for (std::uint64_t id : view_it->second) {
    const Intent& intent = intents_.at(id);
    if (!Covers(intent, partition)) continue;
    fresh = std::min(fresh, intent.ts - 1);
  }
  return fresh;
}

FreshnessTracker::BlockerSummary FreshnessTracker::BlockersBefore(
    const std::string& view, const Key& partition, Timestamp need) const {
  BlockerSummary summary;
  auto view_it = by_view_.find(view);
  if (view_it == by_view_.end()) return summary;
  for (std::uint64_t id : view_it->second) {
    const Intent& intent = intents_.at(id);
    if (!Covers(intent, partition)) continue;
    if (intent.ts > need) continue;  // within the allowed staleness window
    if (intent.wounded) {
      summary.wounded++;
      summary.wounded_keys.push_back(intent.base_key);
    } else {
      summary.live++;
    }
  }
  return summary;
}

Timestamp FreshnessTracker::AppliedHighWater(const std::string& view,
                                             const Key& partition) const {
  auto it = applied_high_water_.find({view, partition});
  return it == applied_high_water_.end() ? kNullTimestamp : it->second;
}

void FreshnessTracker::NotifyOnImprovement(const std::string& view,
                                           std::function<void()> callback) {
  improvement_[view].push_back(std::move(callback));
}

void FreshnessTracker::FireImprovement(const std::string& view) {
  auto it = improvement_.find(view);
  if (it == improvement_.end()) return;
  std::vector<std::function<void()>> callbacks = std::move(it->second);
  improvement_.erase(it);
  for (auto& callback : callbacks) callback();
}

void FreshnessTracker::RecordLag(const std::string& view, SimTime lag,
                                 double alpha) {
  LagEwma& ewma = lag_[view];
  if (!ewma.primed) {
    ewma.value = static_cast<double>(lag);
    ewma.primed = true;
    return;
  }
  ewma.value = alpha * static_cast<double>(lag) + (1.0 - alpha) * ewma.value;
}

SimTime FreshnessTracker::LagEstimate(const std::string& view) const {
  auto it = lag_.find(view);
  if (it == lag_.end() || !it->second.primed) return -1;
  return static_cast<SimTime>(it->second.value);
}

// ---------------------------------------------------------------------------
// Session layer (Section V).
// ---------------------------------------------------------------------------

void FreshnessTracker::SessionStarted(ServerId origin, SessionId session,
                                      const std::string& view) {
  if (session == 0) return;
  session_pending_[{origin, session, view}]++;
}

void FreshnessTracker::SessionFinished(ServerId origin, SessionId session,
                                       const std::string& view) {
  if (session == 0) return;
  const SessionKey key{origin, session, view};
  auto it = session_pending_.find(key);
  // A finish with no matching start is possible under the crash model: the
  // coordinator crashed (resetting its session bookkeeping) and a completion
  // notice for a pre-crash propagation arrived afterwards.
  if (it == session_pending_.end()) return;
  if (--it->second > 0) return;
  session_pending_.erase(it);
  auto waiting = session_waiting_.find(key);
  if (waiting == session_waiting_.end()) return;
  std::vector<std::function<void()>> resumes = std::move(waiting->second);
  session_waiting_.erase(waiting);
  for (auto& resume : resumes) resume();
}

bool FreshnessTracker::SessionMustDefer(ServerId origin, SessionId session,
                                        const std::string& view) const {
  if (session == 0) return false;
  return session_pending_.count({origin, session, view}) != 0;
}

void FreshnessTracker::SessionDefer(ServerId origin, SessionId session,
                                    const std::string& view,
                                    std::function<void()> resume) {
  MVSTORE_CHECK(SessionMustDefer(origin, session, view));
  ++session_deferred_[origin];
  session_waiting_[{origin, session, view}].push_back(std::move(resume));
}

void FreshnessTracker::ResetSessions(ServerId origin) {
  auto drop = [origin](auto& map) {
    for (auto it = map.begin(); it != map.end();) {
      if (std::get<0>(it->first) == origin) {
        it = map.erase(it);
      } else {
        ++it;
      }
    }
  };
  drop(session_pending_);
  drop(session_waiting_);
}

std::uint64_t FreshnessTracker::deferred_total(ServerId origin) const {
  auto it = session_deferred_.find(origin);
  return it == session_deferred_.end() ? 0 : it->second;
}

}  // namespace mvstore::store
