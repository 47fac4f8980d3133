// Native secondary indexes: local-fragment unit tests plus end-to-end
// broadcast queries, synchronous maintenance, and stale-hit filtering.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "index/local_index.h"
#include "store/client.h"
#include "tests/test_util.h"

namespace mvstore {
namespace {

TEST(LocalIndexTest, InsertLookupRemove) {
  index::LocalIndex index("t", "c");
  index.Update("k1", std::nullopt, std::string("red"));
  index.Update("k2", std::nullopt, std::string("red"));
  index.Update("k3", std::nullopt, std::string("blue"));
  EXPECT_EQ(index.Lookup("red"), (std::vector<Key>{"k1", "k2"}));
  EXPECT_EQ(index.Lookup("blue"), (std::vector<Key>{"k3"}));
  EXPECT_EQ(index.entries(), 3u);
  EXPECT_EQ(index.distinct_values(), 2u);

  index.Update("k1", std::string("red"), std::string("blue"));
  EXPECT_EQ(index.Lookup("red"), (std::vector<Key>{"k2"}));
  EXPECT_EQ(index.Lookup("blue"), (std::vector<Key>{"k1", "k3"}));

  index.Update("k2", std::string("red"), std::nullopt);
  EXPECT_TRUE(index.Lookup("red").empty());
  EXPECT_EQ(index.distinct_values(), 1u);
}

TEST(LocalIndexTest, NoopUpdateIgnored) {
  index::LocalIndex index("t", "c");
  index.Update("k", std::string("v"), std::string("v"));
  EXPECT_TRUE(index.Lookup("v").empty());  // old==new: nothing recorded
}

TEST(LocalIndexTest, UnknownValueLookupIsEmpty) {
  index::LocalIndex index("t", "c");
  EXPECT_TRUE(index.Lookup("ghost").empty());
}

TEST(IndexEndToEndTest, LookupBySecondaryKey) {
  test::TestCluster tc;
  for (int i = 0; i < 20; ++i) {
    tc.cluster.BootstrapLoadRow(
        "ticket", "t" + std::to_string(i),
        {{"assigned_to", std::string(i % 2 == 0 ? "alice" : "bob")},
         {"status", std::string("open")}},
        100 + i);
  }
  auto client = tc.cluster.NewClient();
  auto rows = client->QuerySync(
      store::QuerySpec::Index("ticket", "assigned_to", "alice"),
      store::ReadOptions{});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.rows.size(), 10u);
  for (const auto& kr : rows.rows) {
    EXPECT_EQ(kr.row.GetValue("assigned_to").value_or(""), "alice");
  }
}

TEST(IndexEndToEndTest, IndexMaintainedSynchronouslyOnWrites) {
  test::TestCluster tc;
  auto client = tc.cluster.NewClient();
  ASSERT_TRUE(client
                  ->PutSync("ticket", "9",
                            {{"assigned_to", std::string("carol")},
                             {"status", std::string("new")}}, {.quorum = 3})
.ok());
  // No quiescing: native index maintenance is synchronous with the write.
  auto rows = client->QuerySync(
      store::QuerySpec::Index("ticket", "assigned_to", "carol"),
      store::ReadOptions{});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0].key, "9");

  // Reassign: the old posting disappears, the new one appears.
  ASSERT_TRUE(client
                  ->PutSync("ticket", "9", {{"assigned_to", std::string("dave")}}, {.quorum = 3})
.ok());
  auto old_rows = client->QuerySync(
      store::QuerySpec::Index("ticket", "assigned_to", "carol"),
      store::ReadOptions{});
  ASSERT_TRUE(old_rows.ok());
  EXPECT_TRUE(old_rows.rows.empty());
  auto new_rows = client->QuerySync(
      store::QuerySpec::Index("ticket", "assigned_to", "dave"),
      store::ReadOptions{});
  ASSERT_TRUE(new_rows.ok());
  EXPECT_EQ(new_rows.rows.size(), 1u);
}

TEST(IndexEndToEndTest, DeletedColumnLeavesIndex) {
  test::TestCluster tc;
  auto client = tc.cluster.NewClient();
  ASSERT_TRUE(client
                  ->PutSync("ticket", "9", {{"assigned_to", std::string("eve")}}, {.quorum = 3})
.ok());
  ASSERT_TRUE(client->DeleteSync("ticket", "9", {"assigned_to"}, {.quorum = 3})
.ok());
  tc.Quiesce();
  auto rows = client->QuerySync(
      store::QuerySpec::Index("ticket", "assigned_to", "eve"),
      store::ReadOptions{});
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows.rows.empty());
}

TEST(IndexEndToEndTest, StaleFragmentHitsConvergeViaAntiEntropy) {
  // A fragment on a lagging replica can return a stale hit — native indexes
  // are only as consistent as the replicas they index. Once anti-entropy
  // brings the replica up to date, its fragment self-corrects (index
  // maintenance is synchronous with the local apply).
  store::ClusterConfig config = test::DefaultTestConfig();
  config.anti_entropy_interval = Seconds(1);
  test::TestCluster tc(config);
  tc.cluster.BootstrapLoadRow("ticket", "5",
                              {{"assigned_to", std::string("frank")}}, 100);
  // Update ONE replica only (simulating lost replication messages).
  const auto replicas = tc.cluster.server(0).ReplicasOf("ticket", "5");
  storage::Row newer;
  newer.Apply("assigned_to",
              storage::Cell::Live("grace", store::kClientTimestampEpoch + 1));
  tc.cluster.server(replicas[0]).replica().LocalApply("ticket", "5", newer);

  auto client = tc.cluster.NewClient();
  // The new value is immediately findable through the updated fragment.
  auto current = client->QuerySync(
      store::QuerySpec::Index("ticket", "assigned_to", "grace"),
      store::ReadOptions{});
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current.rows.size(), 1u);
  // The old value still surfaces through the lagging fragments (the merged
  // row the coordinator sees from them predates the update).
  auto stale = client->QuerySync(
      store::QuerySpec::Index("ticket", "assigned_to", "frank"),
      store::ReadOptions{});
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale.rows.size(), 1u);

  // After anti-entropy converges the replicas, the stale posting is gone.
  tc.cluster.RunFor(Seconds(3));
  auto after = client->QuerySync(
      store::QuerySpec::Index("ticket", "assigned_to", "frank"),
      store::ReadOptions{});
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.rows.empty());
}

TEST(IndexEndToEndTest, MissingIndexErrors) {
  test::TestCluster tc;
  auto client = tc.cluster.NewClient();
  auto rows = client->QuerySync(
      store::QuerySpec::Index("ticket", "status", "open"),
      store::ReadOptions{});
  EXPECT_TRUE(rows.status.IsNotFound());
}

TEST(IndexEndToEndTest, BroadcastTouchesEveryServer) {
  test::TestCluster tc;
  tc.cluster.BootstrapLoadRow("ticket", "1",
                              {{"assigned_to", std::string("x")}}, 100);
  auto client = tc.cluster.NewClient();
  const std::uint64_t probes_before =
      tc.cluster.metrics().index_fragment_probes;
  ASSERT_TRUE(client->QuerySync(
      store::QuerySpec::Index("ticket", "assigned_to", "x"),
      store::ReadOptions{}).ok());
  EXPECT_EQ(tc.cluster.metrics().index_fragment_probes - probes_before,
            static_cast<std::uint64_t>(tc.cluster.num_servers()));
}

TEST(IndexEndToEndTest, UnavailableWhenAFragmentIsDown) {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.rpc_timeout = Millis(50);
  test::TestCluster tc(config);
  tc.cluster.network().SetEndpointDown(3, true);
  auto client = tc.cluster.NewClient(0);
  auto rows = client->QuerySync(
      store::QuerySpec::Index("ticket", "assigned_to", "x"),
      store::ReadOptions{});
  EXPECT_TRUE(rows.status.IsUnavailable());
}

}  // namespace
}  // namespace mvstore
