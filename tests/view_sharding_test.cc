// Sub-sharded views (ISSUE 9): scatter-gather reads over a view key split
// into sub-shards, maintenance routing by base-key hash, the shard_count=1
// byte-layout regression, and convergence of sharded views under a zipfian
// workload with crashes and membership churn.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/nemesis.h"
#include "store/client.h"
#include "store/codec.h"
#include "tests/test_util.h"
#include "view/scrub.h"
#include "workload/key_generator.h"

namespace mvstore {
namespace {

using store::kClientTimestampEpoch;
using store::QuerySpec;
using store::ReadOptions;
using store::WriteOptions;
using test::TestCluster;

constexpr int kShards = 8;

TestCluster ShardedCluster(store::ClusterConfig config =
                               test::DefaultTestConfig()) {
  return TestCluster(std::move(config),
                     test::TicketSchema(/*with_index=*/true,
                                        /*with_view=*/true, kShards));
}

// A hot view key whose rows land in several sub-shards must still be served
// whole: the scatter-gather read merges every sub-scan.
TEST(ViewShardingTest, ScatterGatherServesTheWholeHotKey) {
  TestCluster t = ShardedCluster();
  const int kRows = 32;
  std::set<int> shards_hit;
  for (int k = 0; k < kRows; ++k) {
    const Key key = "t" + std::to_string(k);
    shards_hit.insert(store::ShardOfBaseKey(key, kShards));
    t.cluster.BootstrapLoadRow(
        "ticket", key,
        {{"assigned_to", std::string("hot")},
         {"status", "s" + std::to_string(k)}},
        100 + k);
  }
  // The point of the test is a multi-shard merge; 32 hashed keys into 8
  // shards leave no shard empty with overwhelming probability.
  ASSERT_GT(shards_hit.size(), 1u);

  auto client = t.cluster.NewClient();
  auto result = client->QuerySync(QuerySpec::View("assigned_to_view", "hot"),
                                  {.quorum = 3});
  ASSERT_TRUE(result.ok()) << result.status;
  ASSERT_EQ(result.records.size(), static_cast<std::size_t>(kRows));
  std::set<Key> base_keys;
  for (const store::ViewRecord& r : result.records) {
    base_keys.insert(r.base_key);
    const int k = std::stoi(r.base_key.substr(1));
    EXPECT_EQ(r.cells.GetValue("status").value_or(""),
              "s" + std::to_string(k));
  }
  EXPECT_EQ(base_keys.size(), static_cast<std::size_t>(kRows));
  EXPECT_GT(t.cluster.metrics().view_scatter_scans, 0u);
}

// Incremental maintenance routes each base key's family to one sub-shard;
// moves and deletes must be visible through the scattered read exactly as
// they are through an unsharded view.
TEST(ViewShardingTest, MaintainedIncrementallyAcrossShards) {
  TestCluster t = ShardedCluster();
  auto client = t.cluster.NewClient();
  const int kRows = 16;
  for (int k = 0; k < kRows; ++k) {
    ASSERT_TRUE(client
                    ->PutSync("ticket", "t" + std::to_string(k),
                              {{"assigned_to", std::string("hot")},
                               {"status", std::string("open")}},
                              WriteOptions{})
                    .ok());
  }
  t.Quiesce();

  // Move half the rows to another assignee, delete two, restatus one.
  for (int k = 0; k < kRows; k += 2) {
    ASSERT_TRUE(client
                    ->PutSync("ticket", "t" + std::to_string(k),
                              {{"assigned_to", std::string("cold")}},
                              WriteOptions{})
                    .ok());
  }
  ASSERT_TRUE(
      client->DeleteSync("ticket", "t1", {"assigned_to"}, WriteOptions{})
          .ok());
  ASSERT_TRUE(
      client->DeleteSync("ticket", "t3", {"assigned_to"}, WriteOptions{})
          .ok());
  ASSERT_TRUE(client
                  ->PutSync("ticket", "t5",
                            {{"status", std::string("closed")}},
                            WriteOptions{})
                  .ok());
  t.Quiesce();

  auto hot = client->QuerySync(QuerySpec::View("assigned_to_view", "hot"),
                               {.quorum = 3});
  ASSERT_TRUE(hot.ok());
  std::map<Key, std::string> got;
  for (const store::ViewRecord& r : hot.records) {
    got[r.base_key] = r.cells.GetValue("status").value_or("");
  }
  // Odd keys stayed hot, minus the two deletes; t5 shows its new status.
  std::map<Key, std::string> want;
  for (int k = 1; k < kRows; k += 2) {
    if (k == 1 || k == 3) continue;
    want["t" + std::to_string(k)] = k == 5 ? "closed" : "open";
  }
  EXPECT_EQ(got, want);

  auto cold = client->QuerySync(QuerySpec::View("assigned_to_view", "cold"),
                                {.quorum = 3});
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.records.size(), static_cast<std::size_t>(kRows / 2));

  // Structural invariants hold with the sharded layout.
  view::ScrubReport report =
      view::CheckView(t.cluster, test::TicketView(t.cluster));
  EXPECT_TRUE(report.clean()) << report.Summary();
}

// Unsharded views never take the scatter path and never write shard
// headers — the byte layout is exactly the classic one.
TEST(ViewShardingTest, ShardCountOneKeepsClassicLayoutAndReadPath) {
  TestCluster t;  // default schema: shard_count = 1
  auto client = t.cluster.NewClient();
  for (int k = 0; k < 8; ++k) {
    ASSERT_TRUE(client
                    ->PutSync("ticket", "t" + std::to_string(k),
                              {{"assigned_to", "a" + std::to_string(k % 3)},
                               {"status", std::string("open")}},
                              WriteOptions{})
                    .ok());
  }
  t.Quiesce();
  auto result = client->QuerySync(QuerySpec::View("assigned_to_view", "a1"),
                                  {.quorum = 3});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.records.empty());
  EXPECT_EQ(t.cluster.metrics().view_scatter_scans, 0u);

  // Every stored view row parses with the CLASSIC (headerless) splitter.
  for (int s = 0; s < t.cluster.num_servers(); ++s) {
    t.cluster.server(s).EngineFor("assigned_to_view")
        .ForEach([](const Key& key, const storage::Row&) {
          EXPECT_NE(key.front(), store::kShardHeaderPrefix) << "sharded "
              "header leaked into an unsharded view";
          EXPECT_TRUE(store::SplitViewRowKey(key).has_value());
        });
  }
}

// Sharded rows DO carry the header, and every row sits in the sub-shard its
// base key hashes to (the routing invariant the chain walk depends on).
TEST(ViewShardingTest, EveryStoredRowSitsInItsBaseKeyShard) {
  TestCluster t = ShardedCluster();
  auto client = t.cluster.NewClient();
  for (int k = 0; k < 24; ++k) {
    ASSERT_TRUE(client
                    ->PutSync("ticket", "t" + std::to_string(k),
                              {{"assigned_to", "a" + std::to_string(k % 2)},
                               {"status", std::string("open")}},
                              WriteOptions{})
                    .ok());
  }
  t.Quiesce();
  int rows_seen = 0;
  for (int s = 0; s < t.cluster.num_servers(); ++s) {
    t.cluster.server(s).EngineFor("assigned_to_view")
        .ForEach([&rows_seen](const Key& key, const storage::Row&) {
          auto shard = store::ShardOfComposedKey(key, kShards);
          ASSERT_TRUE(shard.has_value()) << "row without a shard header";
          auto split = store::SplitShardedViewRowKey(key, kShards);
          ASSERT_TRUE(split.has_value());
          EXPECT_EQ(*shard, store::ShardOfBaseKey(split->second, kShards));
          ++rows_seen;
        });
  }
  EXPECT_GT(rows_seen, 0);
}

// Freshness over a scattered read is the MIN over sub-shards: a result is
// only as fresh as its laggiest shard. Served through the working read path
// under a live propagation backlog, the claim must stay monotone and honest
// (never ahead of now).
TEST(ViewShardingTest, ScatteredFreshnessIsClaimedConservatively) {
  TestCluster t = ShardedCluster();
  auto client = t.cluster.NewClient();
  for (int k = 0; k < 16; ++k) {
    ASSERT_TRUE(client
                    ->PutSync("ticket", "t" + std::to_string(k),
                              {{"assigned_to", std::string("hot")},
                               {"status", std::string("open")}},
                              WriteOptions{})
                    .ok());
  }
  t.Quiesce();
  auto result = client->QuerySync(QuerySpec::View("assigned_to_view", "hot"),
                                  {.quorum = 3});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.freshness, kNullTimestamp);
  EXPECT_LE(result.freshness, kClientTimestampEpoch + t.cluster.Now());
}

// The scatter read's claim is exactly the tracker's view-wide FreshAsOf:
// with one propagation pending, just below that write's timestamp; once it
// settles, the time of the read.
TEST(ViewShardingTest, ScatteredFreshnessClaimIsFreshAsOf) {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.perf.propagation_dispatch_mu = std::log(50000.0);  // ~50 ms
  config.perf.propagation_dispatch_sigma = 0.0;
  config.perf.propagation_dispatch_min = Millis(50);
  TestCluster t = ShardedCluster(config);
  for (int k = 0; k < 16; ++k) {
    t.cluster.BootstrapLoadRow("ticket", "t" + std::to_string(k),
                               {{"assigned_to", std::string("hot")},
                                {"status", std::string("open")}},
                               100);
  }
  auto client = t.cluster.NewClient();
  store::WriteResult put = client->PutSync(
      "ticket", "t3", {{"status", std::string("closed")}}, WriteOptions{});
  ASSERT_TRUE(put.ok());
  const store::FreshnessTracker& tracker = t.cluster.freshness();
  ASSERT_EQ(tracker.pending_intents(), 1u);

  auto pending =
      client->QuerySync(QuerySpec::View("assigned_to_view", "hot"), {});
  ASSERT_TRUE(pending.ok());
  ASSERT_EQ(tracker.pending_intents(), 1u) << "propagation settled too soon";
  EXPECT_EQ(pending.freshness, put.ts - 1);
  EXPECT_EQ(pending.freshness,
            tracker.FreshAsOf("assigned_to_view", "hot",
                              kClientTimestampEpoch + t.cluster.Now()));

  t.Quiesce();
  const Timestamp issued = kClientTimestampEpoch + t.cluster.Now();
  auto settled =
      client->QuerySync(QuerySpec::View("assigned_to_view", "hot"), {});
  ASSERT_TRUE(settled.ok());
  EXPECT_GE(settled.freshness, issued);
  EXPECT_LE(settled.freshness, kClientTimestampEpoch + t.cluster.Now());
}

// The zipfian chaos property: a skewed workload over a sharded view, with
// crashes AND membership churn, converges to Definition 1 once healed.
TEST(ViewShardingPropertyTest, ZipfianConvergesUnderCrashAndChurn) {
  for (std::uint64_t seed : {11u, 47u}) {
    store::ClusterConfig config = test::DefaultTestConfig();
    config.seed = seed;
    config.max_servers = 6;
    config.rpc_timeout = Millis(50);
    config.anti_entropy_interval = Millis(250);
    config.hint_replay_interval = Millis(100);
    config.view_scrub_interval = Millis(300);
    TestCluster t(config, test::TicketSchema(/*with_index=*/false,
                                             /*with_view=*/true, kShards));
    const int kBaseKeys = 40;
    for (int k = 0; k < kBaseKeys; ++k) {
      t.cluster.BootstrapLoadRow(
          "ticket", workload::FormatKey("t", static_cast<std::uint64_t>(k)),
          {{"assigned_to", "a" + std::to_string(k % 4)},
           {"status", std::string("open")}},
          100 + k);
    }

    sim::Nemesis nemesis(
        &t.cluster.simulation(), &t.cluster.network(),
        [&t](sim::EndpointId s) { t.cluster.CrashServer(s); },
        [&t](sim::EndpointId s) { t.cluster.RestartServer(s); });
    nemesis.SetMembershipCallbacks(
        [&t] { t.cluster.JoinServer(); },
        [&t](sim::EndpointId s) { t.cluster.DecommissionServer(s); });
    sim::NemesisOptions options;
    options.horizon = Seconds(3);
    options.num_servers = t.cluster.num_servers();
    options.crashes = 2;
    options.min_downtime = Millis(150);
    options.max_downtime = Millis(500);
    options.partitions = 1;
    options.membership_churn = 1;
    options.min_churn_gap = Millis(500);
    options.max_churn_gap = Seconds(1);
    nemesis.Schedule(sim::GenerateRandomSchedule(Rng(seed * 13), options));
    nemesis.HealAllAt(options.horizon);

    // Zipfian base keys (hot rows), zipfian assignees (hot view keys): the
    // skew concentrates updates in few sub-shards while reads scatter.
    Rng rng(seed * 101);
    workload::ZipfianKeyGenerator base_keys("t", kBaseKeys, 0.99);
    workload::ZipfianKeyGenerator assignees("a", 4, 0.99);
    std::vector<std::unique_ptr<store::Client>> clients;
    std::function<void(int)> issue = [&](int c) {
      auto next = [&issue, c](bool) { issue(c); };
      if (rng.Chance(0.7)) {
        clients[c]->Put("ticket", base_keys.Next(rng),
                        {{"assigned_to", assignees.Next(rng)}}, {.quorum = 1},
                        [next](store::WriteResult w) { next(w.ok()); });
      } else {
        clients[c]->Query(QuerySpec::View("assigned_to_view",
                                          assignees.Next(rng)),
                          {.columns = {"status"}},
                          [next](store::ReadResult r) { next(r.ok()); });
      }
    };
    for (int c = 0; c < 3; ++c) {
      clients.push_back(t.cluster.NewClient(c));
      clients.back()->set_request_timeout(Millis(120));
      issue(c);
    }
    t.cluster.RunFor(options.horizon + Millis(500));
    issue = [](int) {};  // stop the loops

    // Let membership operations finish, then converge.
    const store::Metrics& m = t.cluster.metrics();
    for (int i = 0; i < 100 &&
                    (m.member_joins_completed < m.member_joins_started ||
                     m.member_leaves_completed < m.member_leaves_started);
         ++i) {
      t.cluster.RunFor(Millis(100));
    }
    EXPECT_EQ(m.member_joins_completed, m.member_joins_started)
        << "seed " << seed;
    EXPECT_EQ(m.member_leaves_completed, m.member_leaves_started)
        << "seed " << seed;
    t.views->Quiesce();
    t.cluster.RunFor(Seconds(2));
    t.Quiesce();

    const store::ViewDef& view = test::TicketView(t.cluster);
    view::ScrubReport report = view::CheckView(t.cluster, view);
    EXPECT_TRUE(report.clean()) << "seed " << seed << ": "
                                << report.Summary();
    const auto expected = view::ComputeExpectedView(t.cluster, view);
    const auto exposed = view::ReadConvergedView(t.cluster, view);
    ASSERT_EQ(expected.size(), exposed.size()) << "seed " << seed;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i], exposed[i]) << "seed " << seed << " row " << i;
    }
    EXPECT_GT(m.view_scatter_scans, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mvstore
