// Merkle-style anti-entropy: a server's background repair against every
// ring peer. Per (peer, table) the two servers exchange per-bucket digests
// over the keys they both replicate, then ship rows of the mismatched
// buckets in both directions.

#ifndef MVSTORE_STORE_ANTI_ENTROPY_H_
#define MVSTORE_STORE_ANTI_ENTROPY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "storage/row.h"

namespace mvstore::store {

class Server;

class AntiEntropy {
 public:
  explicit AntiEntropy(Server& server) : server_(server) {}
  AntiEntropy(const AntiEntropy&) = delete;
  AntiEntropy& operator=(const AntiEntropy&) = delete;

  /// False while draining or left: such a server shares no ranges with
  /// anyone (its handoff runs through the decommission streams instead).
  bool Active() const;

  /// One round against every ring peer, under its own root trace; a no-op
  /// while !Active(). Runs every `anti_entropy_interval` (when > 0), after
  /// a restart, and when a join completes.
  void RunRound();

  /// Per-bucket digests (by key hash) of this server's rows of `table` that
  /// are co-replicated with `peer`: order-insensitive, and not cancellable
  /// by dependent entry sets the way an XOR fold is.
  std::vector<std::uint64_t> ComputeDigests(const std::string& table,
                                            ServerId peer, int buckets) const;

  /// This server's rows of `table`, co-replicated with `peer`, in `buckets`.
  std::vector<storage::KeyedRow> CollectBucketRows(
      const std::string& table, ServerId peer,
      const std::vector<int>& buckets, int total_buckets) const;

 private:
  void SyncTable(const std::string& table, ServerId peer);
  bool Shared(const std::string& table, const Key& key, ServerId peer) const;

  Server& server_;
};

}  // namespace mvstore::store

#endif  // MVSTORE_STORE_ANTI_ENTROPY_H_
