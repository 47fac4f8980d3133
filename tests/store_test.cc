// Record-store integration tests: Put/Get semantics, quorum consistency
// (R+W>N vs R+W<=N), deletions, read repair, failure handling, and
// anti-entropy convergence.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "store/client.h"
#include "store/cluster.h"
#include "tests/test_util.h"

namespace mvstore {
namespace {

using store::Mutation;
using store::ReadOptions;
using store::WriteOptions;

store::Schema PlainSchema() {
  store::Schema schema;
  MVSTORE_CHECK(schema.CreateTable({.name = "t"}).ok());
  return schema;
}

TEST(StoreTest, PutThenGetRoundTrip) {
  test::TestCluster tc(test::DefaultTestConfig(), PlainSchema());
  auto client = tc.cluster.NewClient();
  ASSERT_TRUE(client->PutSync("t", "k",
                              {{"a", std::string("1")}, {"b", std::string("2")}},
                              WriteOptions{})
                  .ok());
  auto got = client->GetSync("t", "k", ReadOptions{});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.row.GetValue("a").value_or(""), "1");
  EXPECT_EQ(got.row.GetValue("b").value_or(""), "2");
}

TEST(StoreTest, GetOfMissingKeyReturnsEmptyRow) {
  test::TestCluster tc(test::DefaultTestConfig(), PlainSchema());
  auto client = tc.cluster.NewClient();
  auto got = client->GetSync("t", "missing", ReadOptions{});
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.row.empty());
}

TEST(StoreTest, GetSubsetOfColumns) {
  test::TestCluster tc(test::DefaultTestConfig(), PlainSchema());
  auto client = tc.cluster.NewClient();
  ASSERT_TRUE(client->PutSync("t", "k",
                              {{"a", std::string("1")}, {"b", std::string("2")}},
                              WriteOptions{})
                  .ok());
  auto got = client->GetSync("t", "k", {.columns = {"b"}});
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.row.GetValue("a").has_value());
  EXPECT_EQ(got.row.GetValue("b").value_or(""), "2");
}

TEST(StoreTest, UnknownTableErrors) {
  test::TestCluster tc(test::DefaultTestConfig(), PlainSchema());
  auto client = tc.cluster.NewClient();
  EXPECT_TRUE(
      client->GetSync("nope", "k", ReadOptions{}).status.IsNotFound());
  EXPECT_TRUE(client->PutSync("nope", "k", {{"a", std::string("1")}},
                              WriteOptions{})
                  .status.IsNotFound());
}

TEST(StoreTest, EmptyMutationRejected) {
  test::TestCluster tc(test::DefaultTestConfig(), PlainSchema());
  auto client = tc.cluster.NewClient();
  EXPECT_EQ(client->PutSync("t", "k", {}, WriteOptions{}).status.code(),
            StatusCode::kInvalidArgument);
}

TEST(StoreTest, LastWriterWinsAcrossClients) {
  test::TestCluster tc(test::DefaultTestConfig(), PlainSchema());
  auto c1 = tc.cluster.NewClient(0);
  auto c2 = tc.cluster.NewClient(1);
  const Timestamp t1 = store::kClientTimestampEpoch + 100;
  const Timestamp t2 = store::kClientTimestampEpoch + 200;
  // Issue the NEWER write first; the older one must not clobber it.
  ASSERT_TRUE(
      c1->PutSync("t", "k", {{"a", std::string("new")}}, {.ts = t2}).ok());
  ASSERT_TRUE(
      c2->PutSync("t", "k", {{"a", std::string("old")}}, {.ts = t1}).ok());
  auto got = c1->GetSync("t", "k", {.quorum = 3});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.row.GetValue("a").value_or(""), "new");
}

TEST(StoreTest, DeleteHidesValue) {
  test::TestCluster tc(test::DefaultTestConfig(), PlainSchema());
  auto client = tc.cluster.NewClient();
  ASSERT_TRUE(
      client->PutSync("t", "k", {{"a", std::string("1")}}, WriteOptions{})
          .ok());
  ASSERT_TRUE(client->DeleteSync("t", "k", {"a"}, WriteOptions{}).ok());
  auto got = client->GetSync("t", "k", {.quorum = 3});
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.row.GetValue("a").has_value());
}

TEST(StoreTest, QuorumOverlapGuaranteesReadYourWrites) {
  // R + W > N: every read overlaps the write quorum (Section II).
  store::ClusterConfig config = test::DefaultTestConfig();
  config.default_write_quorum = 2;
  config.default_read_quorum = 2;  // 2 + 2 > 3
  test::TestCluster tc(config, PlainSchema());
  auto client = tc.cluster.NewClient();
  for (int i = 0; i < 50; ++i) {
    const std::string v = std::to_string(i);
    ASSERT_TRUE(client->PutSync("t", "k", {{"a", v}}, WriteOptions{}).ok());
    auto got = client->GetSync("t", "k", ReadOptions{});
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.row.GetValue("a").value_or(""), v) << "iteration " << i;
  }
}

TEST(StoreTest, ReadRepairConvergesReplicas) {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.default_write_quorum = 1;
  test::TestCluster tc(config, PlainSchema());
  auto client = tc.cluster.NewClient();
  ASSERT_TRUE(
      client->PutSync("t", "k", {{"a", std::string("v")}}, WriteOptions{})
          .ok());
  // Writes were acked at W=1 but sent to all replicas; wait for the tail,
  // then check that a read triggered no divergence... instead force the
  // issue: apply a NEWER cell at only one replica, then read with R=3 so
  // read repair pushes it to the others.
  const auto replicas = tc.cluster.server(0).ReplicasOf("t", "k");
  tc.cluster.server(replicas[0])
      .replica()
      .LocalApply("t", "k",
                  [] {
                    storage::Row row;
                    row.Apply("a", storage::Cell::Live(
                                       "newer", store::kClientTimestampEpoch +
                                                    Seconds(500)));
                    return row;
                  }());
  auto got = client->GetSync("t", "k", {.quorum = 3});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.row.GetValue("a").value_or(""), "newer");
  tc.cluster.RunFor(Millis(100));  // let repair writes land
  EXPECT_GT(tc.cluster.metrics().read_repairs, 0u);
  for (ServerId replica : replicas) {
    auto cell = tc.cluster.server(replica).EngineFor("t").GetCell("t", "a");
    (void)cell;  // wrong key on purpose? no: check real key below
    auto repaired = tc.cluster.server(replica).EngineFor("t").GetCell("k", "a");
    ASSERT_TRUE(repaired.has_value()) << "replica " << replica;
    EXPECT_EQ(repaired->value, "newer") << "replica " << replica;
  }
}

TEST(StoreTest, WriteFailsWithoutQuorumOfReplicas) {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.rpc_timeout = Millis(50);
  test::TestCluster tc(config, PlainSchema());
  auto client = tc.cluster.NewClient(0);

  // Take down two of the three replicas of "k": W=3 cannot be met.
  const auto replicas = tc.cluster.server(0).ReplicasOf("t", "k");
  tc.cluster.network().SetEndpointDown(replicas[1], true);
  tc.cluster.network().SetEndpointDown(replicas[2], true);

  // The coordinator itself must stay reachable; pick it as the surviving
  // replica's server if needed. Route through the surviving replica.
  auto surviving_client = tc.cluster.NewClient(replicas[0]);
  store::WriteResult w3 = surviving_client->PutSync(
      "t", "k", {{"a", std::string("x")}}, {.quorum = 3});
  EXPECT_TRUE(w3.status.IsUnavailable());

  // W=1 still succeeds through the surviving replica.
  store::WriteResult w1 = surviving_client->PutSync(
      "t", "k", {{"a", std::string("x")}}, {.quorum = 1});
  EXPECT_TRUE(w1.ok());
}

TEST(StoreTest, ReadFailsWithoutQuorumOfReplicas) {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.rpc_timeout = Millis(50);
  test::TestCluster tc(config, PlainSchema());
  const auto replicas = tc.cluster.server(0).ReplicasOf("t", "k");
  tc.cluster.network().SetEndpointDown(replicas[1], true);
  tc.cluster.network().SetEndpointDown(replicas[2], true);
  auto client = tc.cluster.NewClient(replicas[0]);
  auto r3 = client->GetSync("t", "k", {.quorum = 3});
  EXPECT_TRUE(r3.status.IsUnavailable());
  auto r1 = client->GetSync("t", "k", {.quorum = 1});
  EXPECT_TRUE(r1.ok());
}

TEST(StoreTest, AntiEntropyConvergesAfterMessageLoss) {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.anti_entropy_interval = Seconds(1);
  test::TestCluster tc(config, PlainSchema());
  auto client = tc.cluster.NewClient();

  // Drop 60% of messages while writing; W=1 acks still mostly succeed.
  tc.cluster.network().set_drop_probability(0.6);
  int acked = 0;
  for (int i = 0; i < 30; ++i) {
    client->Put("t", "key" + std::to_string(i), {{"a", std::to_string(i)}},
                {.quorum = 1}, [&acked](store::WriteResult result) {
                  if (result.ok()) ++acked;
                });
  }
  tc.cluster.RunFor(Seconds(2));
  tc.cluster.network().set_drop_probability(0.0);

  // Several anti-entropy rounds: replicas of every acked key converge.
  tc.cluster.RunFor(Seconds(5));
  EXPECT_GT(acked, 0);
  EXPECT_GT(tc.cluster.metrics().anti_entropy_rows_pushed, 0u);

  int converged = 0;
  for (int i = 0; i < 30; ++i) {
    const Key key = "key" + std::to_string(i);
    const auto replicas = tc.cluster.server(0).ReplicasOf("t", key);
    std::optional<storage::Cell> reference;
    bool all_equal = true;
    bool any = false;
    for (ServerId replica : replicas) {
      auto cell = tc.cluster.server(replica).EngineFor("t").GetCell(key, "a");
      if (!cell) {
        all_equal = false;
        continue;
      }
      any = true;
      if (!reference) {
        reference = cell;
      } else if (!(*reference == *cell)) {
        all_equal = false;
      }
    }
    if (any && all_equal) ++converged;
  }
  // Every key that reached at least one replica must now be on all three.
  EXPECT_GE(converged, acked);
}

TEST(StoreTest, DownCoordinatorTimesOutClient) {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.rpc_timeout = Millis(50);
  test::TestCluster tc(config, PlainSchema());
  tc.cluster.network().SetEndpointDown(2, true);
  auto client = tc.cluster.NewClient(2);
  bool called = false;
  client->Get("t", "k", ReadOptions{},
              [&called](store::ReadResult) { called = true; });
  tc.cluster.RunFor(Seconds(1));
  // The request vanished into the dead coordinator: no reply at all. (A real
  // client library would time out locally; the simulation surfaces the hang.)
  EXPECT_FALSE(called);
}

TEST(StoreTest, ConcurrentClientsOnDifferentKeysAllSucceed) {
  test::TestCluster tc(test::DefaultTestConfig(), PlainSchema());
  constexpr int kClients = 8;
  constexpr int kOpsPerClient = 20;
  std::vector<std::unique_ptr<store::Client>> clients;
  int completed = 0;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(tc.cluster.NewClient(static_cast<ServerId>(c % 4)));
  }
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kOpsPerClient; ++i) {
      clients[static_cast<std::size_t>(c)]->Put(
          "t", "k" + std::to_string(c) + "_" + std::to_string(i),
          {{"v", std::to_string(i)}}, WriteOptions{},
          [&completed](store::WriteResult result) {
            ASSERT_TRUE(result.ok());
            ++completed;
          });
    }
  }
  while (completed < kClients * kOpsPerClient) {
    ASSERT_TRUE(tc.cluster.simulation().Step());
  }
  auto got = clients[0]->GetSync("t", "k3_7", {.quorum = 2});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.row.GetValue("v").value_or(""), "7");
}

}  // namespace
}  // namespace mvstore
