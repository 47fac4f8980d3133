// Hinted handoff: the writes a coordinator's replicas failed to acknowledge,
// queued per target and replayed until the target acks.

#ifndef MVSTORE_STORE_HINT_STORE_H_
#define MVSTORE_STORE_HINT_STORE_H_

#include <cstddef>
#include <deque>
#include <map>
#include <string>

#include "common/trace.h"
#include "common/types.h"
#include "storage/row.h"

namespace mvstore::store {

class Server;

class HintStore {
 public:
  explicit HintStore(Server& server) : server_(server) {}
  HintStore(const HintStore&) = delete;
  HintStore& operator=(const HintStore&) = delete;

  struct Hint {
    std::string table;
    Key key;
    storage::Row cells;
    /// Context of the write that spawned the hint; replay records a marker
    /// span under it, so a trace shows how a missed write eventually landed.
    TraceContext trace;
  };

  /// Records a hint for a write `target` did not acknowledge. A write owed
  /// to a server leaving (or gone from) the ring re-coordinates to the key's
  /// current replicas instead.
  void Store(ServerId target, const std::string& table, const Key& key,
             const storage::Row& cells);

  /// One replay pass: re-sends queued hints; a hint is dropped only when its
  /// target acknowledges. Runs every `hint_replay_interval` (when > 0).
  void Replay();

  std::size_t pending(ServerId target) const;
  /// Total hints queued across all targets (the decommission drain gate).
  std::size_t outstanding() const;
  /// The oldest write timestamp among the stored hints (Timestamp max when
  /// none): the tombstone purge floor, as such a tombstone may still be owed.
  Timestamp OldestTimestamp() const;

  /// Re-coordinates the hints queued FOR `departed` (it will never ack them)
  /// to the hinted keys' current replicas.
  void RerouteFor(ServerId departed);
  /// Re-coordinates every queued hint (the drain deadline expired; the data
  /// must not leave with this server).
  void RerouteAll();
  void Clear() { hints_.clear(); }

 private:
  void RerouteQueue(ServerId target, std::deque<Hint>& queue);
  /// Re-coordinates one write to the key's CURRENT replicas: local apply
  /// when this server is one, replica-write (hinting on silence) otherwise.
  void RerouteWrite(const std::string& table, const Key& key,
                    const storage::Row& cells);
  /// Marks `hint`'s originating trace with an instant `name` span.
  void Mark(const Hint& hint, const char* name, ServerId target) const;

  Server& server_;
  std::map<ServerId, std::deque<Hint>> hints_;
};

}  // namespace mvstore::store

#endif  // MVSTORE_STORE_HINT_STORE_H_
