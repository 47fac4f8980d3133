// Partial-shard degradation of scatter-gather reads (ISSUE 10).
//
// Pre-ISSUE-10, CoordinateViewScatterScan failed the WHOLE query when any
// one sub-shard's scan missed its quorum — an eventual-consistency read of
// a 128-shard partition went dark because one shard's replicas were down.
// Now kEventual reads serve the merge of the reachable shards, clamp the
// claimed freshness to kNullTimestamp (nothing can honestly be promised
// about the missing shards), and count the degradation; stronger reads
// keep the all-or-nothing contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "store/client.h"
#include "store/codec.h"
#include "tests/test_util.h"

namespace mvstore {
namespace {

using store::QuerySpec;
using store::ReadConsistency;
using store::WriteOptions;
using test::TestCluster;

constexpr int kShards = 8;

struct PartialFixture {
  PartialFixture()
      : t([] {
          store::ClusterConfig config = test::DefaultTestConfig();
          config.rpc_timeout = Millis(50);
          return config;
        }(),
          test::TicketSchema(/*with_index=*/false, /*with_view=*/true,
                             kShards)) {}

  /// Loads `rows` tickets for view key "hot" and quiesces.
  void Load(int rows) {
    auto client = t.cluster.NewClient();
    for (int k = 0; k < rows; ++k) {
      keys.push_back("t" + std::to_string(k));
      EXPECT_TRUE(client
                      ->PutSync("ticket", keys.back(),
                                {{"assigned_to", std::string("hot")},
                                 {"status", std::string("open")}},
                                WriteOptions{})
                      .ok());
    }
    t.Quiesce();
  }

  /// Picks a server whose death quorum-kills SOME sub-shards of "hot" but
  /// not all of them (with RF=3 over 4 servers each prefix excludes exactly
  /// one server, so such a server exists unless every prefix excludes the
  /// same one). Returns -1 if the layout degenerated.
  ServerId VictimServer() {
    std::vector<std::set<ServerId>> replica_sets;
    for (int shard = 0; shard < kShards; ++shard) {
      const Key prefix =
          store::ShardedViewPartitionPrefix("hot", shard, kShards);
      const auto& replicas =
          t.cluster.server(0).ReplicasOf("assigned_to_view", prefix);
      replica_sets.emplace_back(replicas.begin(), replicas.end());
    }
    for (ServerId s = 0; s < static_cast<ServerId>(t.cluster.num_servers());
         ++s) {
      int in = 0;
      for (const auto& set : replica_sets) in += set.count(s) ? 1 : 0;
      if (in > 0 && in < kShards) {
        for (int shard = 0; shard < kShards; ++shard) {
          if (replica_sets[static_cast<std::size_t>(shard)].count(s)) {
            dead_shards.insert(shard);
          }
        }
        return s;
      }
    }
    return -1;
  }

  TestCluster t;
  std::vector<Key> keys;
  std::set<int> dead_shards;  ///< shards quorum-killed by the victim crash
};

TEST(ViewPartialScatterTest, EventualReadServesReachableShards) {
  PartialFixture f;
  f.Load(32);
  const ServerId victim = f.VictimServer();
  ASSERT_GE(victim, 0) << "degenerate replica layout";
  ASSERT_FALSE(f.dead_shards.empty());
  ASSERT_LT(static_cast<int>(f.dead_shards.size()), kShards);
  f.t.cluster.CrashServer(victim);

  auto client = f.t.cluster.NewClient(
      victim == 0 ? ServerId{1} : ServerId{0});
  client->set_request_timeout(Seconds(2));
  // Read quorum 3 = every replica: any shard touching the dead server
  // cannot assemble its scan quorum.
  auto result = client->QuerySync(QuerySpec::View("assigned_to_view", "hot"),
                                  {.quorum = 3});
  ASSERT_TRUE(result.ok()) << result.status;

  // Exactly the rows whose sub-shard survived are served.
  std::set<Key> want;
  for (const Key& key : f.keys) {
    if (f.dead_shards.count(store::ShardOfBaseKey(key, kShards)) == 0) {
      want.insert(key);
    }
  }
  std::set<Key> got;
  for (const store::ViewRecord& r : result.records) got.insert(r.base_key);
  EXPECT_EQ(got, want);
  EXPECT_FALSE(got.empty());
  EXPECT_LT(got.size(), f.keys.size());

  // The degradation is visible: clamped freshness claim plus the counter.
  EXPECT_EQ(result.freshness, kNullTimestamp);
  EXPECT_GT(f.t.cluster.metrics().view_scatter_partial, 0u);
}

TEST(ViewPartialScatterTest, StrongerReadsKeepAllOrNothing) {
  PartialFixture f;
  f.Load(32);
  const ServerId victim = f.VictimServer();
  ASSERT_GE(victim, 0) << "degenerate replica layout";
  f.t.cluster.CrashServer(victim);

  auto client = f.t.cluster.NewClient(
      victim == 0 ? ServerId{1} : ServerId{0});
  client->set_request_timeout(Seconds(2));
  // Read-your-writes promised to reflect the session's writes wherever they
  // hashed — a merge missing sub-shards could silently drop them, so the
  // query must fail outright instead of degrading.
  auto result = client->QuerySync(
      QuerySpec::View("assigned_to_view", "hot"),
      {.quorum = 3, .consistency = ReadConsistency::kReadYourWrites});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(f.t.cluster.metrics().view_scatter_partial, 0u);
}

TEST(ViewPartialScatterTest, RecoveryRestoresFullCoverageAndFreshness) {
  PartialFixture f;
  f.Load(16);
  const ServerId victim = f.VictimServer();
  ASSERT_GE(victim, 0) << "degenerate replica layout";
  f.t.cluster.CrashServer(victim);
  auto client = f.t.cluster.NewClient(
      victim == 0 ? ServerId{1} : ServerId{0});
  client->set_request_timeout(Seconds(2));
  auto degraded = client->QuerySync(
      QuerySpec::View("assigned_to_view", "hot"), {.quorum = 3});
  ASSERT_TRUE(degraded.ok());
  ASSERT_LT(degraded.records.size(), f.keys.size());

  f.t.cluster.RestartServer(victim);
  f.t.cluster.RunFor(Seconds(1));
  auto healed = client->QuerySync(QuerySpec::View("assigned_to_view", "hot"),
                                  {.quorum = 3});
  ASSERT_TRUE(healed.ok()) << healed.status;
  EXPECT_EQ(healed.records.size(), f.keys.size());
  EXPECT_GT(healed.freshness, kNullTimestamp);
}

// An unsharded view's partition is one scan, so that scan failing is every
// shard failing: a kEventual read must fail rather than serve an empty
// "partial" answer, and nothing counts as a scatter.
TEST(ViewPartialScatterTest, UnshardedEventualReadFailsWhenItsScanFails) {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.rpc_timeout = Millis(50);
  TestCluster t(config, test::TicketSchema(/*with_index=*/false,
                                           /*with_view=*/true,
                                           /*view_shards=*/1));
  auto writer = t.cluster.NewClient();
  for (int k = 0; k < 8; ++k) {
    ASSERT_TRUE(writer
                    ->PutSync("ticket", std::to_string(k),
                              {{"assigned_to", std::string("hot")},
                               {"status", std::string("open")}},
                              WriteOptions{})
                    .ok());
  }
  t.Quiesce();

  const auto& replicas = t.cluster.server(0).ReplicasOf(
      "assigned_to_view", store::ShardedViewPartitionPrefix("hot", 0, 1));
  const ServerId victim = replicas.front();
  t.cluster.CrashServer(victim);

  auto client =
      t.cluster.NewClient(victim == 0 ? ServerId{1} : ServerId{0});
  client->set_request_timeout(Seconds(2));
  // Read quorum 3 = every replica, one of which is down.
  auto result = client->QuerySync(QuerySpec::View("assigned_to_view", "hot"),
                                  {.quorum = 3});
  EXPECT_FALSE(result.ok()) << result.records.size() << " records served";
  EXPECT_EQ(result.status.message(), "scan quorum not reached");
  EXPECT_EQ(t.cluster.metrics().view_scatter_scans, 0u);
  EXPECT_EQ(t.cluster.metrics().view_scatter_partial, 0u);
}

}  // namespace
}  // namespace mvstore
