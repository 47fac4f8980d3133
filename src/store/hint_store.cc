#include "store/hint_store.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "store/quorum_op.h"
#include "store/server.h"

namespace mvstore::store {

void HintStore::Store(ServerId target, const std::string& table,
                      const Key& key, const storage::Row& cells) {
  // A write owed to a server on its way out of the ring (or already gone)
  // must not park behind it — the target will never come back for it.
  // Re-coordinate straight to the key's current replicas instead.
  if (server_.peers_ != nullptr) {
    const MembershipState target_state =
        (*server_.peers_)[target]->membership();
    if (target_state == MembershipState::kDraining ||
        target_state == MembershipState::kLeft) {
      server_.metrics()->member_hints_rerouted++;
      RerouteWrite(table, key, cells);
      return;
    }
  }
  std::deque<Hint>& queue = hints_[target];
  if (queue.size() >= server_.config().max_hints_per_target) {
    queue.pop_front();  // oldest first; anti-entropy is the backstop
    server_.metrics()->hints_dropped++;
  }
  Hint hint{table, key, cells, {}};
  if (server_.tracer() != nullptr) hint.trace = server_.tracer()->current();
  Mark(hint, "hint.stored", target);
  queue.push_back(std::move(hint));
  server_.metrics()->hints_stored++;
}

std::size_t HintStore::pending(ServerId target) const {
  auto it = hints_.find(target);
  return it == hints_.end() ? 0 : it->second.size();
}

std::size_t HintStore::outstanding() const {
  std::size_t total = 0;
  for (const auto& [target, queue] : hints_) total += queue.size();
  return total;
}

Timestamp HintStore::OldestTimestamp() const {
  Timestamp oldest = std::numeric_limits<Timestamp>::max();
  for (const auto& [target, queue] : hints_) {
    for (const Hint& hint : queue) {
      for (const auto& [col, cell] : hint.cells.cells()) {
        oldest = std::min(oldest, cell.ts);
      }
    }
  }
  return oldest;
}

void HintStore::Replay() {
  for (auto& [target, queue] : hints_) {
    if (queue.empty()) continue;
    // The target left the ring since these queued: replaying at it is
    // pointless, move the writes to the keys' current replicas.
    if (server_.peers_ != nullptr && !(*server_.peers_)[target]->is_member()) {
      RerouteQueue(target, queue);
      continue;
    }
    // Ship the whole queue; drop it only when the target acknowledges.
    // (Re-delivery after a lost ack is harmless: LWW applies are
    // idempotent.)
    auto batch =
        std::make_shared<std::vector<Hint>>(queue.begin(), queue.end());
    const std::size_t count = batch->size();
    // Markers tie each originating write's trace to the replay attempt that
    // finally delivers it.
    for (const Hint& hint : *batch) Mark(hint, "hint.replay", target);
    // The replay is a single-target QuorumOp: it inherits the framework's
    // silence retry, crash abort, and uniform tracing for free.
    using Op = QuorumOp<bool>;
    Op::Spec spec;
    spec.name = "hint_replay";
    spec.targets = {target};
    spec.quorum = 1;
    spec.service = FixedService(server_.config().perf.write_local *
                                static_cast<SimTime>(count));
    spec.request = [batch](Server& s) {
      for (const Hint& hint : *batch) {
        s.LocalApply(hint.table, hint.key, hint.cells);
      }
      return true;
    };
    spec.quorum_error = "hint replay unacknowledged";
    spec.on_quorum = [this, target, count](Op&) {
      // Acked: retire the replayed prefix (new hints may have queued
      // behind it meanwhile).
      std::deque<Hint>& q = hints_[target];
      const std::size_t drop = std::min(count, q.size());
      q.erase(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(drop));
      server_.metrics()->hints_replayed += drop;
    };
    spec.on_error = [](Op&, const Status&) {
      // Target still unreachable: the queue stays put for the next tick.
    };
    Op::Start(&server_, std::move(spec));
  }
}

void HintStore::RerouteFor(ServerId departed) {
  auto it = hints_.find(departed);
  if (it != hints_.end()) RerouteQueue(departed, it->second);
}

void HintStore::RerouteAll() {
  for (auto& [target, queue] : hints_) RerouteQueue(target, queue);
}

void HintStore::RerouteQueue(ServerId target, std::deque<Hint>& queue) {
  std::deque<Hint> moved;
  moved.swap(queue);
  for (const Hint& hint : moved) {
    server_.metrics()->member_hints_rerouted++;
    Mark(hint, "hint.rerouted", target);
    RerouteWrite(hint.table, hint.key, hint.cells);
  }
}

void HintStore::Mark(const Hint& hint, const char* name,
                     ServerId target) const {
  if (server_.tracer() == nullptr || !hint.trace) return;
  server_.tracer()->Mark(hint.trace, name, static_cast<int>(server_.id()),
                         server_.simulation()->Now(),
                         "target=" + std::to_string(target));
}

void HintStore::RerouteWrite(const std::string& table, const Key& key,
                             const storage::Row& cells) {
  for (ServerId replica : server_.ReplicasOf(table, key)) {
    const SimTime service = server_.WriteServiceFor(table, cells);
    if (replica == server_.id()) {
      server_.Enqueue(service, [this, table, key, cells] {
        server_.LocalApply(table, key, cells);
      });
      continue;
    }
    server_.SendReplicaWrite(replica, table, key, cells, service,
                             [this, replica, table, key, cells](bool acked) {
                               if (!acked) Store(replica, table, key, cells);
                             });
  }
}

}  // namespace mvstore::store
