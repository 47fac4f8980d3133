// Session guarantees (Section V, Definition 4): a session's view Get must
// reflect the session's own preceding base-table Puts, implemented by
// blocking the Get until the session's pending propagations complete.

#include <gtest/gtest.h>

#include <string>

#include "store/client.h"
#include "store/freshness.h"
#include "tests/test_util.h"

namespace mvstore {
namespace {

using store::Mutation;
using store::ReadConsistency;
using test::TestCluster;

// Slow down propagation dispatch so the guarantee actually has to block.
store::ClusterConfig SlowPropagationConfig() {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.perf.propagation_dispatch_mu = std::log(50000.0);  // ~50 ms
  config.perf.propagation_dispatch_sigma = 0.0;
  config.perf.propagation_dispatch_min = Millis(50);
  return config;
}

// The freshness tracker's session layer, one coordinator's slice of it
// (origin 0).
TEST(SessionLayerTest, TracksPendingPerSessionAndView) {
  store::FreshnessTracker tracker;
  EXPECT_FALSE(tracker.SessionMustDefer(0, 1, "v"));
  tracker.SessionStarted(0, 1, "v");
  tracker.SessionStarted(0, 1, "v");
  EXPECT_TRUE(tracker.SessionMustDefer(0, 1, "v"));
  EXPECT_FALSE(tracker.SessionMustDefer(0, 2, "v"));  // other session
  EXPECT_FALSE(tracker.SessionMustDefer(0, 1, "w"));  // other view

  int resumed = 0;
  tracker.SessionDefer(0, 1, "v", [&resumed] { ++resumed; });
  tracker.SessionFinished(0, 1, "v");
  EXPECT_EQ(resumed, 0) << "one of two propagations still pending";
  tracker.SessionFinished(0, 1, "v");
  EXPECT_EQ(resumed, 1);
  EXPECT_FALSE(tracker.SessionMustDefer(0, 1, "v"));
  EXPECT_EQ(tracker.deferred_total(0), 1u);
}

TEST(SessionLayerTest, SessionZeroNeverDefers) {
  store::FreshnessTracker tracker;
  tracker.SessionStarted(0, 0, "v");
  EXPECT_FALSE(tracker.SessionMustDefer(0, 0, "v"));
}

TEST(SessionTest, ViewGetSeesOwnPrecedingPut) {
  TestCluster t(SlowPropagationConfig());
  t.cluster.BootstrapLoadRow("ticket", "1",
                             {{"assigned_to", std::string("rliu")},
                              {"status", std::string("open")}},
                             100);
  auto client = t.cluster.NewClient(0);
  client->BeginSession();

  ASSERT_TRUE(
      client->PutSync("ticket", "1", {{"status", std::string("resolved")}}, store::WriteOptions{})
          .ok());
  // Immediately read the view within the session: despite the ~50 ms
  // propagation dispatch delay, the Get must block and then see the update.
  // (Spelled explicitly; a session-carrying read at kEventual upgrades to
  // the same level automatically.)
  auto records = client->QuerySync(
      store::QuerySpec::View("assigned_to_view", "rliu"),
      {.consistency = ReadConsistency::kReadYourWrites});
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.records.size(), 1u);
  EXPECT_EQ(records.records[0].cells.GetValue("status").value_or(""), "resolved");
  EXPECT_GT(t.cluster.metrics().view_get_deferrals, 0u);
}

TEST(SessionTest, WithoutSessionViewMayBeStale) {
  TestCluster t(SlowPropagationConfig());
  t.cluster.BootstrapLoadRow("ticket", "1",
                             {{"assigned_to", std::string("rliu")},
                              {"status", std::string("open")}},
                             100);
  auto client = t.cluster.NewClient(0);  // NO session

  ASSERT_TRUE(
      client->PutSync("ticket", "1", {{"status", std::string("resolved")}}, store::WriteOptions{})
          .ok());
  auto records = client->QuerySync(
      store::QuerySpec::View("assigned_to_view", "rliu"),
      {.quorum = 3, .consistency = ReadConsistency::kEventual});
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.records.size(), 1u);
  // Propagation dispatch is ~50 ms away; the read races ahead and sees the
  // stale value — exactly the staleness Section IV accepts.
  EXPECT_EQ(records.records[0].cells.GetValue("status").value_or(""), "open");
  EXPECT_EQ(t.cluster.metrics().view_get_deferrals, 0u);
}

TEST(SessionTest, GuaranteeCoversViewKeyUpdates) {
  TestCluster t(SlowPropagationConfig());
  t.cluster.BootstrapLoadRow("ticket", "1",
                             {{"assigned_to", std::string("rliu")},
                              {"status", std::string("open")}},
                             100);
  auto client = t.cluster.NewClient(0);
  client->BeginSession();

  ASSERT_TRUE(
      client->PutSync("ticket", "1", {{"assigned_to", std::string("bob")}}, store::WriteOptions{})
          .ok());
  auto records = client->QuerySync(
      store::QuerySpec::View("assigned_to_view", "bob"), store::ReadOptions{});
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.records.size(), 1u);
  EXPECT_EQ(records.records[0].base_key, "1");
  // And the old key's row is gone from the reader's perspective.
  auto old_records = client->QuerySync(
      store::QuerySpec::View("assigned_to_view", "rliu"), store::ReadOptions{});
  ASSERT_TRUE(old_records.ok());
  EXPECT_TRUE(old_records.records.empty());
}

TEST(SessionTest, OtherSessionsDoNotBlock) {
  TestCluster t(SlowPropagationConfig());
  t.cluster.BootstrapLoadRow("ticket", "1",
                             {{"assigned_to", std::string("rliu")},
                              {"status", std::string("open")}},
                             100);
  auto writer = t.cluster.NewClient(0);
  auto reader = t.cluster.NewClient(0);  // same coordinator, own session
  writer->BeginSession();
  reader->BeginSession();

  ASSERT_TRUE(
      writer->PutSync("ticket", "1", {{"status", std::string("resolved")}}, store::WriteOptions{})
          .ok());
  const SimTime before = t.cluster.Now();
  auto records = reader->QuerySync(
      store::QuerySpec::View("assigned_to_view", "rliu"), store::ReadOptions{});
  ASSERT_TRUE(records.ok());
  // The reader's session has no pending propagations: no blocking beyond
  // normal request latency (far less than the 50 ms dispatch delay).
  EXPECT_LT(t.cluster.Now() - before, Millis(20));
}

TEST(SessionTest, SessionsDisabledByConfig) {
  store::ClusterConfig config = SlowPropagationConfig();
  config.session_guarantees = false;
  TestCluster t(config);
  t.cluster.BootstrapLoadRow("ticket", "1",
                             {{"assigned_to", std::string("rliu")},
                              {"status", std::string("open")}},
                             100);
  auto client = t.cluster.NewClient(0);
  client->BeginSession();
  ASSERT_TRUE(
      client->PutSync("ticket", "1", {{"status", std::string("resolved")}}, store::WriteOptions{})
          .ok());
  auto records = client->QuerySync(
      store::QuerySpec::View("assigned_to_view", "rliu"), {.quorum = 3});
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records.records[0].cells.GetValue("status").value_or(""), "open");
}

TEST(SessionTest, CrashedCoordinatorAnswersDeferredGetByClientTimeout) {
  // A view Get deferred on the session guarantee is parked at the
  // coordinator. If the coordinator crashes, ResetSessions drops
  // the parked continuation with the rest of the coordinator's volatile
  // state — the client's own request deadline must answer the call, and the
  // callback must fire exactly once (no leak, no double answer).
  TestCluster t(SlowPropagationConfig());
  t.cluster.BootstrapLoadRow("ticket", "1",
                             {{"assigned_to", std::string("rliu")},
                              {"status", std::string("open")}},
                             100);
  auto client = t.cluster.NewClient(0);
  client->BeginSession();
  client->set_request_timeout(Millis(200));

  ASSERT_TRUE(
      client
          ->PutSync("ticket", "1", {{"status", std::string("resolved")}},
                    store::WriteOptions{})
          .ok());
  int answers = 0;
  store::ReadResult out;
  client->Query(
      store::QuerySpec::View("assigned_to_view", "rliu"),
      {.consistency = ReadConsistency::kReadYourWrites},
      [&](store::ReadResult r) {
                    ++answers;
                    out = std::move(r);
                  });
  // Let the Get reach the coordinator and park on the pending propagation
  // (dispatch is ~50 ms away), then kill the coordinator.
  t.cluster.RunFor(Millis(5));
  ASSERT_GT(t.cluster.metrics().view_get_deferrals, 0u);
  ASSERT_EQ(answers, 0);
  ASSERT_TRUE(t.cluster.CrashServer(0));

  while (answers == 0) {
    ASSERT_TRUE(t.cluster.simulation().Step());
  }
  EXPECT_TRUE(out.status.IsTimedOut()) << out.status;

  // Recovery must not re-deliver the dropped continuation.
  ASSERT_TRUE(t.cluster.RestartServer(0));
  t.Quiesce();
  EXPECT_EQ(answers, 1);
}

TEST(SessionTest, MultiplePendingPutsAllVisible) {
  TestCluster t(SlowPropagationConfig());
  t.cluster.BootstrapLoadRow("ticket", "1",
                             {{"assigned_to", std::string("a")},
                              {"status", std::string("s0")}},
                             100);
  t.cluster.BootstrapLoadRow("ticket", "2",
                             {{"assigned_to", std::string("a")},
                              {"status", std::string("s0")}},
                             101);
  auto client = t.cluster.NewClient(0);
  client->BeginSession();
  ASSERT_TRUE(
      client->PutSync("ticket", "1", {{"status", std::string("s1")}}, store::WriteOptions{}).ok());
  ASSERT_TRUE(
      client->PutSync("ticket", "2", {{"status", std::string("s2")}}, store::WriteOptions{}).ok());
  auto records = client->QuerySync(
      store::QuerySpec::View("assigned_to_view", "a"), store::ReadOptions{});
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.records.size(), 2u);
  for (const auto& record : records.records) {
    if (record.base_key == "1") {
      EXPECT_EQ(record.cells.GetValue("status").value_or(""), "s1");
    } else {
      EXPECT_EQ(record.cells.GetValue("status").value_or(""), "s2");
    }
  }
}

}  // namespace
}  // namespace mvstore
