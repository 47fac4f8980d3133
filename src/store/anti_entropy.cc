#include "store/anti_entropy.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"
#include "store/server.h"

namespace mvstore::store {

/// Salt mixed into each anti-entropy digest entry before summation, so the
/// combiner is not the plain entry hash (defense against crafted inputs
/// that target the entry-hash function directly).
constexpr std::uint64_t kSyncDigestSalt = 0x9e3779b97f4a7c15ULL;

bool AntiEntropy::Active() const {
  return server_.membership() != MembershipState::kLeft &&
         server_.membership() != MembershipState::kDraining;
}

void AntiEntropy::RunRound() {
  if (!Active()) return;
  // Each round is its own root trace: background repair has no client
  // operation to hang off, but its fan-out is still worth reconstructing.
  Tracer* tracer = server_.tracer();
  TraceContext round;
  if (tracer != nullptr) {
    round = tracer->StartTrace("anti_entropy.round",
                               static_cast<int>(server_.id()),
                               server_.simulation()->Now());
  }
  Tracer::Scope scope(tracer, round);
  for (ServerId peer : server_.ring().members()) {
    if (peer == server_.id()) continue;
    for (const auto& [table, engine] : server_.engines_) {
      SyncTable(table, peer);
    }
  }
  if (round) tracer->EndSpan(round, server_.simulation()->Now());
}

bool AntiEntropy::Shared(const std::string& table, const Key& key,
                         ServerId peer) const {
  const auto& replicas = server_.ReplicasOf(table, key);
  return std::find(replicas.begin(), replicas.end(), server_.id()) !=
             replicas.end() &&
         std::find(replicas.begin(), replicas.end(), peer) != replicas.end();
}

std::vector<std::uint64_t> AntiEntropy::ComputeDigests(const std::string& table,
                                                       ServerId peer,
                                                       int buckets) const {
  std::vector<std::uint64_t> digests(static_cast<std::size_t>(buckets), 0);
  auto it = server_.engines_.find(table);
  if (it == server_.engines_.end()) return digests;
  // Sum (mod 2^64) of salted entry hashes, folded with the bucket's row
  // count. Addition is commutative, so the digest is still set-like — but
  // unlike the XOR combiner this used to be, it is not a GF(2) linear map:
  // with XOR, any bucket whose entry hashes form a linearly dependent set
  // (guaranteed once a bucket holds > 64 rows, and constructible with far
  // fewer) could cancel to the same digest on two replicas holding
  // DIFFERENT rows, silently skipping the bucket forever.
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(buckets), 0);
  it->second->ForEach([&](const Key& key, const storage::Row& row) {
    if (!Shared(table, key, peer)) return;
    const std::uint64_t key_hash = Hash64(key);
    const std::size_t bucket =
        key_hash % static_cast<std::uint64_t>(buckets);
    digests[bucket] +=
        HashCombine(HashCombine(key_hash, storage::RowDigest(row)),
                    kSyncDigestSalt);
    ++counts[bucket];
  });
  for (std::size_t b = 0; b < digests.size(); ++b) {
    // Empty buckets stay 0 so a server with no engine for the table (all-zero
    // fast path above) agrees with a peer that has the engine but no shared
    // rows.
    if (counts[b] > 0) digests[b] = HashCombine(digests[b], counts[b]);
  }
  return digests;
}

std::vector<storage::KeyedRow> AntiEntropy::CollectBucketRows(
    const std::string& table, ServerId peer, const std::vector<int>& buckets,
    int total_buckets) const {
  std::vector<storage::KeyedRow> rows;
  auto it = server_.engines_.find(table);
  if (it == server_.engines_.end()) return rows;
  std::vector<bool> wanted(static_cast<std::size_t>(total_buckets), false);
  for (int bucket : buckets) wanted[static_cast<std::size_t>(bucket)] = true;
  it->second->ForEach([&](const Key& key, const storage::Row& row) {
    const std::size_t bucket =
        Hash64(key) % static_cast<std::uint64_t>(total_buckets);
    if (!wanted[bucket]) return;
    if (Shared(table, key, peer)) rows.push_back(storage::KeyedRow{key, row});
  });
  return rows;
}

void AntiEntropy::SyncTable(const std::string& table, ServerId peer) {
  const ClusterConfig& config = server_.config();
  Metrics* metrics = server_.metrics();
  const int buckets = config.anti_entropy_buckets;
  const std::vector<std::uint64_t> mine = ComputeDigests(table, peer, buckets);
  metrics->anti_entropy_digest_exchanges++;
  const ServerId self_id = server_.id();
  // Phase 1: the peer compares digests and answers with mismatched buckets.
  server_.CallPeer<std::vector<int>>(
      peer, FixedService(config.perf.read_local),
      [table, self_id, buckets, mine](Server& s) {
        const std::vector<std::uint64_t> theirs =
            s.anti_entropy().ComputeDigests(table, self_id, buckets);
        std::vector<int> mismatched;
        for (int b = 0; b < buckets; ++b) {
          if (mine[static_cast<std::size_t>(b)] !=
              theirs[static_cast<std::size_t>(b)]) {
            mismatched.push_back(b);
          }
        }
        return mismatched;
      },
      [this, table, peer, buckets, self_id,
       metrics](std::vector<int> mismatched) {
        if (mismatched.empty()) return;
        metrics->anti_entropy_buckets_synced += mismatched.size();
        // Phase 2: ship our rows of the mismatched buckets; the peer applies
        // them and answers with ITS rows of the same buckets (bidirectional).
        std::vector<storage::KeyedRow> ours =
            CollectBucketRows(table, peer, mismatched, buckets);
        metrics->anti_entropy_rows_pushed += ours.size();
        const SimTime service = server_.config().perf.write_local *
                                static_cast<SimTime>(ours.size() + 1);
        server_.CallPeer<std::vector<storage::KeyedRow>>(
            peer, FixedService(service),
            [table, self_id, mismatched, buckets,
             ours = std::move(ours)](Server& s) {
              for (const auto& kr : ours) s.LocalApply(table, kr.key, kr.row);
              return s.anti_entropy().CollectBucketRows(table, self_id,
                                                        mismatched, buckets);
            },
            [this, table, metrics](std::vector<storage::KeyedRow> theirs) {
              metrics->anti_entropy_rows_pushed += theirs.size();
              for (const auto& kr : theirs) {
                server_.LocalApply(table, kr.key, kr.row);
              }
            });
      });
}

}  // namespace mvstore::store
