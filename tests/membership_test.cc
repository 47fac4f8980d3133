// Elastic membership, end to end: runtime bootstrap (join streams the
// joiner's ranges, resumable across a crash), decommission (ranges stream
// to their new owners, hinted handoffs drain before the server leaves),
// hint rerouting, in-flight op retargeting, coordination rejection while
// draining, and a join -> leave -> rejoin lifecycle that must converge.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "sim/nemesis.h"
#include "store/client.h"
#include "store/cluster.h"
#include "store/config.h"
#include "store/ring.h"
#include "store/server.h"
#include "tests/test_util.h"
#include "view/scrub.h"

namespace mvstore {
namespace {

using store::MembershipState;

store::ClusterConfig ChurnConfig() {
  store::ClusterConfig config = test::DefaultTestConfig();
  config.max_servers = 6;  // spare slots for joins
  config.anti_entropy_interval = Millis(200);
  config.hint_replay_interval = Millis(100);
  config.rpc_timeout = Millis(50);
  config.join_stream_batch = 16;  // several slices per range
  config.decommission_drain_timeout = Seconds(5);
  return config;
}

/// Runs the simulation until `server` reaches `state` (or fails the test).
void AwaitMembership(store::Cluster& cluster, ServerId server,
                     MembershipState state) {
  for (int i = 0; i < 200; ++i) {
    if (cluster.server(server).membership() == state) return;
    cluster.RunFor(Millis(100));
  }
  FAIL() << "server " << server << " never reached the expected state";
}

/// Keys of `table` that `server` holds locally.
std::set<Key> LocalKeys(store::Cluster& cluster, ServerId server,
                        const std::string& table) {
  std::set<Key> keys;
  cluster.server(server).EngineFor(table).ForEach(
      [&](const Key& key, const storage::Row&) { keys.insert(key); });
  return keys;
}

TEST(MembershipTest, JoinStreamsOwnedRowsAndStartsServing) {
  test::TestCluster t(ChurnConfig(), test::TicketSchema(false, false));
  for (int k = 0; k < 120; ++k) {
    t.cluster.BootstrapLoadRow("ticket", "t" + std::to_string(k),
                               {{"status", std::string("open")}}, 100 + k);
  }

  auto joiner = t.cluster.JoinServer();
  ASSERT_TRUE(joiner.has_value());
  EXPECT_EQ(*joiner, 4);
  EXPECT_EQ(t.cluster.server(*joiner).membership(), MembershipState::kJoining);
  EXPECT_TRUE(t.cluster.ring().IsMember(*joiner));

  AwaitMembership(t.cluster, *joiner, MembershipState::kServing);
  const store::Metrics& m = t.cluster.metrics();
  EXPECT_EQ(m.member_joins_started, 1u);
  EXPECT_EQ(m.member_joins_completed, 1u);
  EXPECT_GT(m.member_ranges_streamed, 0u);
  EXPECT_GT(m.member_rows_streamed, 0u);

  // Every key the joiner now replicates was streamed onto it.
  const std::set<Key> local = LocalKeys(t.cluster, *joiner, "ticket");
  int owned = 0;
  for (int k = 0; k < 120; ++k) {
    const Key key = "t" + std::to_string(k);
    const auto replicas = t.cluster.ring().ReplicasFor(key, 3);
    if (std::find(replicas.begin(), replicas.end(), *joiner) ==
        replicas.end()) {
      continue;
    }
    ++owned;
    EXPECT_TRUE(local.count(key) != 0) << "joiner missing owned key " << key;
  }
  EXPECT_GT(owned, 0) << "joiner took over no keys at all";
}

TEST(MembershipTest, DecommissionStreamsRangesToNewOwnersAndLeaves) {
  test::TestCluster t(ChurnConfig(), test::TicketSchema(false, false));
  for (int k = 0; k < 120; ++k) {
    t.cluster.BootstrapLoadRow("ticket", "t" + std::to_string(k),
                               {{"status", std::string("open")}}, 100 + k);
  }

  ASSERT_TRUE(t.cluster.DecommissionServer(2));
  EXPECT_EQ(t.cluster.server(2).membership(), MembershipState::kDraining);
  EXPECT_FALSE(t.cluster.ring().IsMember(2));

  AwaitMembership(t.cluster, 2, MembershipState::kLeft);
  const store::Metrics& m = t.cluster.metrics();
  EXPECT_EQ(m.member_leaves_started, 1u);
  EXPECT_EQ(m.member_leaves_completed, 1u);
  EXPECT_EQ(m.member_drains_forced, 0u);
  EXPECT_EQ(t.cluster.server(2).hints().outstanding(), 0u);

  // Every key now has its full replica set among the remaining members,
  // each holding the row locally (the leaver streamed what they lacked).
  for (int k = 0; k < 120; ++k) {
    const Key key = "t" + std::to_string(k);
    for (ServerId replica : t.cluster.ring().ReplicasFor(key, 3)) {
      ASSERT_NE(replica, 2);
      EXPECT_TRUE(LocalKeys(t.cluster, replica, "ticket").count(key) != 0)
          << "replica " << replica << " missing " << key;
    }
  }
}

TEST(MembershipTest, DecommissionRejectedBelowReplicationFactor) {
  test::TestCluster t(ChurnConfig(), test::TicketSchema(false, false));
  ASSERT_TRUE(t.cluster.DecommissionServer(3));
  AwaitMembership(t.cluster, 3, MembershipState::kLeft);
  // 3 members left at replication factor 3: nobody else may leave.
  EXPECT_FALSE(t.cluster.DecommissionServer(2));
  EXPECT_EQ(t.cluster.server(2).membership(), MembershipState::kServing);
}

TEST(MembershipTest, DrainingCoordinatorRejectsNewOperations) {
  test::TestCluster t(ChurnConfig(), test::TicketSchema(false, false));
  t.cluster.BootstrapLoadRow("ticket", "t0",
                             {{"status", std::string("open")}}, 100);
  auto client = t.cluster.NewClient(/*coordinator=*/1);
  ASSERT_TRUE(t.cluster.DecommissionServer(1));

  const store::ReadResult result =
      client->GetSync("ticket", "t0", store::ReadOptions{});
  EXPECT_TRUE(result.status.IsUnavailable())
      << "draining coordinator must reject: " << result.status.ToString();
  // Client routing skips the drainer.
  EXPECT_NE(t.cluster.PickServingServer(1), 1);
}

TEST(MembershipTest, DecommissionDrainsHintsBeforeLeaving) {
  store::ClusterConfig config = ChurnConfig();
  config.num_servers = 4;
  test::TestCluster t(config, test::TicketSchema(false, false));
  auto client = t.cluster.NewClient(/*coordinator=*/0);

  // Crash a replica, then write through server 0 at W=1: server 0 stores
  // hints for the crashed replica's share of the writes.
  t.cluster.CrashServer(1);
  t.cluster.RunFor(Millis(10));
  store::WriteOptions w1;
  w1.quorum = 1;
  for (int k = 0; k < 40; ++k) {
    ASSERT_TRUE(client
                    ->PutSync("ticket", "h" + std::to_string(k),
                              {{"status", std::string("hinted")}}, w1)
                    .ok());
  }
  t.cluster.RunFor(Millis(200));
  ASSERT_GT(t.cluster.server(0).hints().outstanding(), 0u)
      << "setup failed: no hints were stored on the leaver";

  // Decommission the hint holder while the target is still down; the drain
  // must wait, then complete once the target comes back.
  ASSERT_TRUE(t.cluster.DecommissionServer(0));
  t.cluster.RunFor(Millis(300));
  t.cluster.RestartServer(1);

  AwaitMembership(t.cluster, 0, MembershipState::kLeft);
  const store::Metrics& m = t.cluster.metrics();
  EXPECT_EQ(m.member_leaves_completed, 1u);
  EXPECT_EQ(m.member_drains_forced, 0u);
  EXPECT_EQ(t.cluster.server(0).hints().outstanding(), 0u);

  // Nothing hinted was lost: every write is readable at full quorum.
  t.cluster.RunFor(Millis(500));  // anti-entropy settle
  auto reader = t.cluster.NewClient(t.cluster.PickServingServer(1));
  store::ReadOptions r3;
  r3.quorum = 3;
  for (int k = 0; k < 40; ++k) {
    const store::ReadResult result =
        reader->GetSync("ticket", "h" + std::to_string(k), r3);
    ASSERT_TRUE(result.ok()) << "h" << k;
    EXPECT_EQ(result.row.GetValue("status"), "hinted") << "h" << k;
  }
}

TEST(MembershipTest, ForcedDrainReroutesHintsAtDeadline) {
  store::ClusterConfig config = ChurnConfig();
  config.decommission_drain_timeout = Millis(400);
  test::TestCluster t(config, test::TicketSchema(false, false));
  auto client = t.cluster.NewClient(/*coordinator=*/0);

  t.cluster.CrashServer(1);
  t.cluster.RunFor(Millis(10));
  store::WriteOptions w1;
  w1.quorum = 1;
  for (int k = 0; k < 20; ++k) {
    ASSERT_TRUE(client
                    ->PutSync("ticket", "f" + std::to_string(k),
                              {{"status", std::string("forced")}}, w1)
                    .ok());
  }
  t.cluster.RunFor(Millis(100));
  ASSERT_GT(t.cluster.server(0).hints().outstanding(), 0u);

  // Target stays down past the drain deadline: the drain is forced, hints
  // reroute to the keys' current live replicas, and the server still leaves
  // with nothing outstanding.
  ASSERT_TRUE(t.cluster.DecommissionServer(0));
  AwaitMembership(t.cluster, 0, MembershipState::kLeft);
  EXPECT_GE(t.cluster.metrics().member_drains_forced, 1u);
  EXPECT_GT(t.cluster.metrics().member_hints_rerouted, 0u);
  EXPECT_EQ(t.cluster.server(0).hints().outstanding(), 0u);

  // After the crashed server returns, anti-entropy spreads the rerouted
  // writes; nothing acked is lost.
  t.cluster.RestartServer(1);
  t.cluster.RunFor(Seconds(1));
  auto reader = t.cluster.NewClient(t.cluster.PickServingServer(1));
  store::ReadOptions r3;
  r3.quorum = 3;
  for (int k = 0; k < 20; ++k) {
    const store::ReadResult result =
        reader->GetSync("ticket", "f" + std::to_string(k), r3);
    ASSERT_TRUE(result.ok()) << "f" << k;
    EXPECT_EQ(result.row.GetValue("status"), "forced") << "f" << k;
  }
}

TEST(MembershipTest, InflightWriteRetargetsWhenReplicaLeaves) {
  store::ClusterConfig config = ChurnConfig();
  config.network.base_latency = Millis(5);  // widen the in-flight window
  test::TestCluster t(config, test::TicketSchema(false, false));
  auto client = t.cluster.NewClient(/*coordinator=*/0);

  // Find a key whose replica set includes a leaver != coordinator.
  Key key;
  ServerId leaver = 0;
  bool found = false;
  for (int k = 0; k < 64 && !found; ++k) {
    const Key candidate = "r" + std::to_string(k);
    for (ServerId replica : t.cluster.ring().ReplicasFor(candidate, 3)) {
      if (replica != 0) {
        key = candidate;
        leaver = replica;
        found = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found);

  std::optional<store::WriteResult> outcome;
  store::WriteOptions w3;
  w3.quorum = 3;  // must hear from every replica, including the leaver
  client->Put("ticket", key, {{"status", std::string("inflight")}}, w3,
              [&outcome](store::WriteResult result) { outcome = result; });
  // Let the op reach the coordinator and fan out, then yank the replica out
  // of the ring before its (slow) ack can arrive.
  t.cluster.RunFor(Millis(7));
  ASSERT_TRUE(t.cluster.DecommissionServer(leaver));
  t.cluster.RunFor(Seconds(2));

  ASSERT_TRUE(outcome.has_value()) << "write never settled";
  EXPECT_TRUE(outcome->ok()) << outcome->status.ToString();
  EXPECT_GT(t.cluster.metrics().member_ops_retargeted, 0u);
}

TEST(MembershipTest, CrashDuringJoinResumesStreamingAfterRestart) {
  store::ClusterConfig config = ChurnConfig();
  config.join_stream_batch = 4;  // many slices: the crash lands mid-stream
  test::TestCluster t(config, test::TicketSchema(false, false));
  for (int k = 0; k < 150; ++k) {
    t.cluster.BootstrapLoadRow("ticket", "t" + std::to_string(k),
                               {{"status", std::string("open")}}, 100 + k);
  }

  auto joiner = t.cluster.JoinServer();
  ASSERT_TRUE(joiner.has_value());
  t.cluster.RunFor(Millis(2));  // a few slices in, far from done
  ASSERT_EQ(t.cluster.server(*joiner).membership(),
            MembershipState::kJoining);
  ASSERT_TRUE(t.cluster.CrashServer(*joiner));
  t.cluster.RunFor(Millis(50));
  ASSERT_TRUE(t.cluster.RestartServer(*joiner));

  AwaitMembership(t.cluster, *joiner, MembershipState::kServing);
  EXPECT_EQ(t.cluster.metrics().member_joins_completed, 1u);
  const std::set<Key> local = LocalKeys(t.cluster, *joiner, "ticket");
  for (int k = 0; k < 150; ++k) {
    const Key key = "t" + std::to_string(k);
    const auto replicas = t.cluster.ring().ReplicasFor(key, 3);
    if (std::find(replicas.begin(), replicas.end(), *joiner) !=
        replicas.end()) {
      EXPECT_TRUE(local.count(key) != 0) << "joiner missing " << key;
    }
  }
}

TEST(MembershipTest, CrashDuringDecommissionResumesAndLeaves) {
  store::ClusterConfig config = ChurnConfig();
  config.join_stream_batch = 4;       // many slices: the crash lands mid-sweep
  config.anti_entropy_interval = 0;   // only the resumed streams move rows
  test::TestCluster t(config, test::TicketSchema(false, false));
  constexpr int kRows = 150;
  for (int k = 0; k < kRows; ++k) {
    t.cluster.BootstrapLoadRow("ticket", "t" + std::to_string(k),
                               {{"status", std::string("open")}}, 100 + k);
  }
  constexpr ServerId kLeaver = 2;
  std::vector<Key> leaver_keys;
  for (int k = 0; k < kRows; ++k) {
    const Key key = "t" + std::to_string(k);
    const auto replicas = t.cluster.ring().ReplicasFor(key, 3);
    if (std::find(replicas.begin(), replicas.end(), kLeaver) !=
        replicas.end()) {
      leaver_keys.push_back(key);
    }
  }
  ASSERT_FALSE(leaver_keys.empty());

  ASSERT_TRUE(t.cluster.DecommissionServer(kLeaver));
  t.cluster.RunFor(Millis(2));  // a few slices in, far from done
  const store::Metrics& m = t.cluster.metrics();
  ASSERT_EQ(t.cluster.server(kLeaver).membership(),
            MembershipState::kDraining);
  ASSERT_GT(m.member_rows_streamed, 0u) << "crash must land mid-sweep";
  ASSERT_LT(m.member_rows_streamed, leaver_keys.size())
      << "crash must land before the full sweep ends";
  ASSERT_TRUE(t.cluster.CrashServer(kLeaver));
  t.cluster.RunFor(Millis(50));
  ASSERT_TRUE(t.cluster.RestartServer(kLeaver));

  AwaitMembership(t.cluster, kLeaver, MembershipState::kLeft);
  EXPECT_EQ(m.member_leaves_completed, 1u);
  EXPECT_EQ(t.cluster.server(kLeaver).hints().outstanding(), 0u);

  // Every row of the leaver's ranges landed on each of its new owners, and
  // reads from them at R = N see it.
  auto reader = t.cluster.NewClient(t.cluster.PickServingServer(0));
  store::ReadOptions r3;
  r3.quorum = 3;
  for (const Key& key : leaver_keys) {
    for (ServerId replica : t.cluster.ring().ReplicasFor(key, 3)) {
      ASSERT_NE(replica, kLeaver);
      EXPECT_TRUE(LocalKeys(t.cluster, replica, "ticket").count(key) != 0)
          << "new owner " << replica << " missing " << key;
    }
    const store::ReadResult result = reader->GetSync("ticket", key, r3);
    ASSERT_TRUE(result.ok()) << key;
    EXPECT_EQ(result.row.GetValue("status"), "open") << key;
  }
}

TEST(MembershipTest, DrainingRestartSkipsAntiEntropyRound) {
  store::ClusterConfig config = ChurnConfig();
  config.anti_entropy_interval = 0;  // only Restart's own round can count
  test::TestCluster t(config, test::TicketSchema(false, false));
  for (int k = 0; k < 60; ++k) {
    t.cluster.BootstrapLoadRow("ticket", "t" + std::to_string(k),
                               {{"status", std::string("open")}}, 100 + k);
  }
  const store::Metrics& m = t.cluster.metrics();

  // A serving server catches up with one round right after its restart.
  ASSERT_TRUE(t.cluster.CrashServer(1));
  t.cluster.RunFor(Millis(10));
  std::uint64_t before = m.anti_entropy_digest_exchanges;
  ASSERT_TRUE(t.cluster.RestartServer(1));
  EXPECT_GT(m.anti_entropy_digest_exchanges, before);
  t.cluster.RunFor(Millis(100));

  // A draining server already left the ring: it shares no range with any
  // peer, so its restart exchanges no digests at all.
  ASSERT_TRUE(t.cluster.DecommissionServer(2));
  ASSERT_TRUE(t.cluster.CrashServer(2));
  t.cluster.RunFor(Millis(10));
  before = m.anti_entropy_digest_exchanges;
  ASSERT_TRUE(t.cluster.RestartServer(2));
  EXPECT_EQ(m.anti_entropy_digest_exchanges, before);
  AwaitMembership(t.cluster, 2, MembershipState::kLeft);
}

/// Background work done by every server's periodic ticks over a window.
struct TickWork {
  std::uint64_t digest_exchanges = 0;  // anti-entropy rounds
  std::uint64_t compactions = 0;       // compaction rounds
  std::uint64_t replay_failures = 0;   // hint replay passes
  std::uint64_t replayed_after_heal = 0;

  bool operator==(const TickWork& o) const {
    return digest_exchanges == o.digest_exchanges &&
           compactions == o.compactions &&
           replay_failures == o.replay_failures &&
           replayed_after_heal == o.replayed_after_heal;
  }
};

std::ostream& operator<<(std::ostream& os, const TickWork& w) {
  return os << "{digests=" << w.digest_exchanges
            << " compactions=" << w.compactions
            << " replay_failures=" << w.replay_failures
            << " replayed_after_heal=" << w.replayed_after_heal << "}";
}

/// Tick intervals of the tick-chain test. With 4 servers the phase stagger
/// puts every tick on a 25 ms grid as long as chains are armed on it.
constexpr SimTime kTickInterval = Millis(100);
constexpr SimTime kTickGrid = Millis(25);

store::ClusterConfig TickConfig() {
  store::ClusterConfig config = ChurnConfig();
  config.max_servers = 0;
  config.anti_entropy_interval = kTickInterval;
  config.hint_replay_interval = kTickInterval;
  config.compaction_interval = kTickInterval;
  return config;
}

/// Advances to the next grid point plus `offset`.
void AlignToGrid(store::Cluster& cluster, SimTime offset = 0) {
  cluster.RunFor(kTickGrid - cluster.Now() % kTickGrid + offset);
}

/// Measures `k` tick intervals of background work. Server 2 is cut off from
/// every peer and each server holds one hint for a peer it cannot reach, so
/// every replay pass fails once, `rpc_timeout` after its tick
/// (hints_replayed counts acked hints, not passes). The hints are stored a
/// full interval ahead, and the window starts between grid points, away
/// from every tick and every compaction or replay failure it triggers.
/// After the window the links heal and every hint must replay exactly once.
TickWork MeasureTicks(store::Cluster& cluster, int k) {
  constexpr ServerId kIsolated = 2;
  storage::Row cells;
  cells.Apply("status", storage::Cell::Live("hinted", 1));
  for (ServerId s = 0; s < static_cast<ServerId>(cluster.num_servers()); ++s) {
    if (s != kIsolated) cluster.network().PartitionLink(s, kIsolated);
    cluster.server(s).hints().Store(s == kIsolated ? 0 : kIsolated, "ticket",
                                    "hint" + std::to_string(s), cells);
  }
  cluster.RunFor(kTickInterval);
  AlignToGrid(cluster, Millis(12));
  const store::Metrics& m = cluster.metrics();
  TickWork before{m.anti_entropy_digest_exchanges, m.compactions_run,
                  m.quorum_failures, 0};
  cluster.RunFor(kTickInterval * k);
  TickWork work{m.anti_entropy_digest_exchanges - before.digest_exchanges,
                m.compactions_run - before.compactions,
                m.quorum_failures - before.replay_failures, 0};
  for (ServerId s = 0; s < static_cast<ServerId>(cluster.num_servers()); ++s) {
    if (s != kIsolated) cluster.network().RestoreLink(s, kIsolated);
  }
  const std::uint64_t replayed = m.hints_replayed;
  cluster.RunFor(kTickInterval * 3);
  work.replayed_after_heal = m.hints_replayed - replayed;
  return work;
}

TEST(MembershipTest, OneTickChainPerIncarnation) {
  constexpr int kWindow = 5;
  auto load = [](test::TestCluster& t) {
    for (int k = 0; k < 60; ++k) {
      t.cluster.BootstrapLoadRow("ticket", "t" + std::to_string(k),
                                 {{"status", std::string("open")}}, 100 + k);
    }
  };

  // Never crashed: every server runs one chain of each kind.
  test::TestCluster control(TickConfig(), test::TicketSchema(false, false));
  load(control);
  control.cluster.RunFor(Seconds(1));
  const TickWork expected = MeasureTicks(control.cluster, kWindow);
  const int servers = control.cluster.num_servers();
  EXPECT_EQ(expected.digest_exchanges,
            static_cast<std::uint64_t>(kWindow * servers * (servers - 1)));
  EXPECT_EQ(expected.compactions,
            static_cast<std::uint64_t>(kWindow * servers));
  EXPECT_EQ(expected.replay_failures,
            static_cast<std::uint64_t>(kWindow * servers));
  EXPECT_EQ(expected.replayed_after_heal,
            static_cast<std::uint64_t>(servers));

  test::TestCluster t(TickConfig(), test::TicketSchema(false, false));
  load(t);
  t.cluster.RunFor(Seconds(1));

  // Crash/Restart: the old incarnation's chains die, Restart arms new ones.
  ASSERT_TRUE(t.cluster.CrashServer(1));
  t.cluster.RunFor(Millis(300));
  AlignToGrid(t.cluster);
  ASSERT_TRUE(t.cluster.RestartServer(1));
  t.cluster.RunFor(Seconds(1));
  EXPECT_EQ(MeasureTicks(t.cluster, kWindow), expected)
      << "after crash/restart";

  // Leave, then rejoin the same slot: the join arms exactly one chain each.
  ASSERT_TRUE(t.cluster.DecommissionServer(0));
  AwaitMembership(t.cluster, 0, MembershipState::kLeft);
  AlignToGrid(t.cluster);
  ASSERT_EQ(t.cluster.JoinServer(), std::optional<ServerId>(0));
  AwaitMembership(t.cluster, 0, MembershipState::kServing);
  t.cluster.RunFor(Seconds(1));
  EXPECT_EQ(MeasureTicks(t.cluster, kWindow), expected)
      << "after leave/rejoin";
}

TEST(MembershipTest, JoinLeaveRejoinLifecycleConverges) {
  test::TestCluster t(ChurnConfig(), test::TicketSchema(false, false));
  auto client = t.cluster.NewClient(/*coordinator=*/1);
  store::WriteOptions w2;
  w2.quorum = 2;
  for (int k = 0; k < 60; ++k) {
    ASSERT_TRUE(client
                    ->PutSync("ticket", "t" + std::to_string(k),
                              {{"status", std::string("v1")}}, w2)
                    .ok());
  }

  auto joiner = t.cluster.JoinServer();
  ASSERT_TRUE(joiner.has_value());
  AwaitMembership(t.cluster, *joiner, MembershipState::kServing);

  ASSERT_TRUE(t.cluster.DecommissionServer(0));
  AwaitMembership(t.cluster, 0, MembershipState::kLeft);

  // The decommissioned slot is reusable: the next join activates it.
  auto rejoined = t.cluster.JoinServer();
  ASSERT_TRUE(rejoined.has_value());
  EXPECT_EQ(*rejoined, 0);
  AwaitMembership(t.cluster, 0, MembershipState::kServing);
  EXPECT_EQ(t.cluster.metrics().member_joins_completed, 2u);

  t.cluster.RunFor(Seconds(1));  // anti-entropy settle
  auto reader = t.cluster.NewClient(t.cluster.PickServingServer(1));
  store::ReadOptions r3;
  r3.quorum = 3;
  for (int k = 0; k < 60; ++k) {
    const store::ReadResult result =
        reader->GetSync("ticket", "t" + std::to_string(k), r3);
    ASSERT_TRUE(result.ok()) << "t" << k;
    EXPECT_EQ(result.row.GetValue("status"), "v1") << "t" << k;
  }
}

TEST(MembershipTest, ViewConvergesAcrossDecommission) {
  store::ClusterConfig config = ChurnConfig();
  config.view_scrub_interval = Millis(200);  // recovers leave-orphaned work
  test::TestCluster t(config);  // full ticket schema with the view
  auto client = t.cluster.NewClient(/*coordinator=*/1);
  store::WriteOptions w2;
  w2.quorum = 2;
  for (int k = 0; k < 40; ++k) {
    ASSERT_TRUE(client
                    ->PutSync("ticket", "t" + std::to_string(k),
                              {{"assigned_to", "a" + std::to_string(k % 7)},
                               {"status", std::string("open")}},
                              w2)
                    .ok());
  }

  // Decommission while propagations from a second write wave are in flight.
  for (int k = 0; k < 40; ++k) {
    ASSERT_TRUE(client
                    ->PutSync("ticket", "t" + std::to_string(k),
                              {{"assigned_to", "b" + std::to_string(k % 5)}},
                              w2)
                    .ok());
  }
  ASSERT_TRUE(t.cluster.DecommissionServer(3));
  AwaitMembership(t.cluster, 3, MembershipState::kLeft);

  t.Quiesce();
  t.cluster.RunFor(Seconds(1));  // scrub window for orphan recovery
  t.Quiesce();

  const store::ViewDef& view = *t.cluster.schema().GetView("assigned_to_view");
  const auto expected = view::ComputeExpectedView(t.cluster, view);
  const auto exposed = view::ReadConvergedView(t.cluster, view);
  ASSERT_EQ(expected.size(), exposed.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].view_key, exposed[i].view_key) << i;
    EXPECT_EQ(expected[i].base_key, exposed[i].base_key) << i;
  }
}

TEST(MembershipTest, ChurnScheduleConvergesUnderNemesis) {
  store::ClusterConfig config = ChurnConfig();
  config.view_scrub_interval = Millis(300);
  test::TestCluster t(config);
  auto client = t.cluster.NewClient(/*coordinator=*/1);
  store::WriteOptions w2;
  w2.quorum = 2;
  for (int k = 0; k < 30; ++k) {
    ASSERT_TRUE(client
                    ->PutSync("ticket", "t" + std::to_string(k),
                              {{"assigned_to", "a" + std::to_string(k % 5)},
                               {"status", std::string("open")}},
                              w2)
                    .ok());
  }

  sim::Nemesis nemesis(
      &t.cluster.simulation(), &t.cluster.network(),
      [&t](sim::EndpointId s) { t.cluster.CrashServer(s); },
      [&t](sim::EndpointId s) { t.cluster.RestartServer(s); });
  nemesis.SetMembershipCallbacks(
      [&t] { t.cluster.JoinServer(); },
      [&t](sim::EndpointId s) { t.cluster.DecommissionServer(s); });
  sim::NemesisOptions options;
  options.horizon = Seconds(4);
  options.num_servers = 4;
  options.membership_churn = 2;
  options.min_churn_gap = Millis(500);
  options.max_churn_gap = Seconds(1);
  options.crashes = 1;
  options.partitions = 1;
  options.drop_surges = 0;
  options.latency_spikes = 0;
  nemesis.Schedule(sim::GenerateRandomSchedule(Rng(7), options));
  nemesis.HealAllAt(options.horizon);
  t.cluster.RunFor(options.horizon + Seconds(1));

  // Let membership operations finish, then quiesce and compare.
  const store::Metrics& m = t.cluster.metrics();
  for (int i = 0; i < 100 &&
                  (m.member_joins_completed < m.member_joins_started ||
                   m.member_leaves_completed < m.member_leaves_started);
       ++i) {
    t.cluster.RunFor(Millis(100));
  }
  EXPECT_EQ(m.member_joins_completed, m.member_joins_started);
  EXPECT_EQ(m.member_leaves_completed, m.member_leaves_started);
  t.Quiesce();
  t.cluster.RunFor(Seconds(1));
  t.Quiesce();

  const store::ViewDef& view = *t.cluster.schema().GetView("assigned_to_view");
  const auto expected = view::ComputeExpectedView(t.cluster, view);
  const auto exposed = view::ReadConvergedView(t.cluster, view);
  EXPECT_EQ(expected.size(), exposed.size());
}

}  // namespace
}  // namespace mvstore
