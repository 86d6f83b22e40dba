// Deterministic chaos sweep over the failover plane (DESIGN.md §7), one
// regression test per crash-path bug the harness flushed out, the engine's
// fault-accounting contract, and the feature-lattice sweep.
#include <string>

#include <gtest/gtest.h>

#include "chaos/chaos.hpp"
#include "chaos_util.hpp"
#include "hydradb/hydra_cluster.hpp"
#include "obs/plane.hpp"

namespace hydra {
namespace {

using chaos::Family;
using chaos::Report;
using chaos::Runner;
using chaos::Schedule;
using test::describe;

const Schedule& scripted_by_name(const std::string& name) {
  return chaos::scripted(Family::kChaos, name);
}

// ---------------------------------------------------------------- the sweep

// 8 scripted families x 10 seeds = 80 combos.
TEST(ChaosSweep, ScriptedFamilies) {
  for (const auto& schedule : chaos::scripted(Family::kChaos)) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const Report r = Runner::run(schedule, seed);
      EXPECT_TRUE(r.passed()) << schedule.name << " seed " << seed << ":\n"
                              << describe(r);
      EXPECT_GT(r.acked, 0u) << schedule.name << " seed " << seed;
    }
  }
}

// Seeded-random compositions of the same fault alphabet; 140 by default
// (80 + 140 = 220 combos >= the 200 the acceptance bar asks for). The
// HYDRA_CHAOS_RANDOM_RUNS environment knob scales the sweep up or down
// (tier1.sh uses it to shorten the sanitizer passes).
TEST(ChaosSweep, RandomFamilies) {
  const int runs = test::env_runs("HYDRA_CHAOS_RANDOM_RUNS", 140);
  for (int i = 1; i <= runs; ++i) {
    const auto seed = static_cast<std::uint64_t>(i);
    const Schedule schedule = chaos::random(Family::kChaos, seed);
    const Report r = Runner::run(schedule, seed);
    EXPECT_TRUE(r.passed()) << schedule.name << ":\n" << describe(r);
  }
}

// Identical (schedule, seed) must reproduce the run byte-for-byte.
TEST(ChaosDeterminism, SameSeedSameHistory) {
  const auto& scripted = scripted_by_name("primary-kill-mid-put");
  const Report a = Runner::run(scripted, 7);
  const Report b = Runner::run(scripted, 7);
  EXPECT_EQ(a.history, b.history);

  const Schedule random = chaos::random(Family::kChaos, 42);
  const Report c = Runner::run(random, 42);
  const Report d = Runner::run(random, 42);
  EXPECT_EQ(c.history, d.history);
  EXPECT_NE(a.history, c.history);  // different schedules diverge
}

// ------------------------------------------------- one regression per bug

// Bug: a primary death event arriving while the SWAT leader was itself a
// corpse (znode lingering until session expiry) was dropped -- no member
// reacted, the shard stayed dead forever. The pending-death set + /swat/
// watch must hand the reaction to the next leader.
TEST(ChaosRegression, SwatLeadershipGap) {
  const Report r = Runner::run(scripted_by_name("swat-leader-dead-during-failover"), 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_GE(r.failovers, 1u) << describe(r);
}

// Bug: a replica crash with strict-ack waiters outstanding wedged the
// primary's write path forever (the waiters' min-acked barrier included the
// dead link). Quarantine must settle every owed completion.
TEST(ChaosRegression, StrictAckSecondaryDeathNeverWedges) {
  const Report r = Runner::run(scripted_by_name("secondary-kill-mid-replay"), 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_EQ(r.wedged, 0u) << describe(r);
  // No failover here -- only a replica died; the primary must have absorbed
  // the loss by itself.
  EXPECT_EQ(r.failovers, 0u) << describe(r);
}

// Bug: a torn ack write left the strict-mode stream stalled forever (the
// primary waited for an ack the secondary believed it had already sent).
// The ack-deadline probe must re-solicit and recover without client help.
TEST(ChaosRegression, TornAckRecoversWithoutTimeouts) {
  const Report r = Runner::run(scripted_by_name("torn-and-dropped-ack"), 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_EQ(r.wedged, 0u);
  EXPECT_EQ(r.wire_faults, 2u) << describe(r);  // both ack faults took effect
  EXPECT_EQ(r.failovers, 0u) << describe(r);    // wire noise must not kill anyone
}

// Bug: heartbeat suppression past the session timeout let SWAT's promotion
// race the primary's tick-granularity self-fence: the promotion was refused
// ("primary still alive"), the death event was already consumed, and the
// shard stayed dead after fencing. Promotion must fence and proceed.
TEST(ChaosRegression, SuppressedHeartbeatsFenceAndPromote) {
  const Report r = Runner::run(scripted_by_name("heartbeat-suppression-fences"), 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_GE(r.failovers, 1u) << describe(r);
}

// The shared mux QP dies abruptly (twice) with PUTs in flight; nobody tells
// the mux layer. Endpoints must time out, tear the channel down and lazily
// re-establish -- the trace must show both the failure reclaims and the
// reopens, and no acked write may be lost (the family's invariant check).
TEST(ChaosRegression, MuxChannelKillRetransmitsWithoutLoss) {
  obs::Plane plane;
  const Report r = Runner::run(scripted_by_name("mux-channel-kill-mid-put"), 1, &plane);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_EQ(r.wedged, 0u) << describe(r);
  EXPECT_EQ(r.failovers, 0u) << describe(r);  // QP death != process death
  const auto q = plane.query();
  // Two kills -> at least two failure teardowns (b=1 marks failure), and the
  // channel must have been opened at least 3 times (initial + reopen each).
  std::uint64_t failure_reclaims = 0;
  for (const auto& t : q.of(obs::TraceKind::kMuxChannelReclaimed)) {
    if (t.b == 1) ++failure_reclaims;
  }
  EXPECT_GE(failure_reclaims, 2u);
  EXPECT_GE(q.count(obs::TraceKind::kMuxChannelOpened), 3u);
}

// Bug: SWAT parsed "/shards/<id>/primary" with a bare std::stoul -- any
// garbage znode under /shards/ (which any session can create) aborted the
// whole SWAT member. Malformed paths must be ignored.
TEST(ChaosRegression, GarbageShardZnodeIsIgnored) {
  db::ClusterOptions opts;
  opts.server_nodes = 2;
  opts.shards_per_node = 1;
  opts.total_shards = 1;
  opts.client_nodes = 1;
  opts.clients_per_node = 1;
  opts.replicas = 1;
  opts.enable_swat = true;
  db::HydraCluster cluster(opts);
  ASSERT_EQ(cluster.put("k", "v"), Status::kOk);

  cluster.coordinator().create("/shards/not-a-number/primary", "junk");
  cluster.run_for(10 * kMillisecond);
  cluster.coordinator().remove("/shards/not-a-number/primary");
  cluster.run_for(kSecond);  // the kDeleted watch fires -> parse -> ignore

  EXPECT_EQ(cluster.failovers(), 0u);
  EXPECT_EQ(*cluster.get("k"), "v");  // cluster still healthy
}

// ------------------------------------------------------ fault accounting

// Every applied fault lands in the trace plane as kFaultInjected, whichever
// driver runs the workload.
TEST(ChaosEngine, EveryFiredFaultIsTraced) {
  const std::pair<Family, const char*> cases[] = {
      {Family::kChaos, "torn-and-dropped-record"},
      {Family::kHotKey, "hotkey-kill-primary-copies-live"},
      {Family::kScan, "scan-add-kill-source"},
      {Family::kTxn, "txn-kill-mid-commit-no-wait"},
  };
  for (const auto& [family, name] : cases) {
    const Schedule& s = chaos::scripted(family, name);
    obs::Plane plane;
    const Report r = Runner::run(s, 1, &plane);
    EXPECT_TRUE(r.passed()) << name << ":\n" << describe(r);
    EXPECT_EQ(r.faults_fired, s.faults.size()) << name;
    EXPECT_EQ(r.faults_skipped, 0u) << name;
    EXPECT_EQ(plane.query().count(obs::TraceKind::kFaultInjected), r.faults_fired) << name;
  }
}

// A fault whose target does not exist when it fires is logged as skipped
// -- never counted, traced or reported as fired.
TEST(ChaosEngine, AbsentTargetIsSkippedNotFired) {
  Schedule s = scripted_by_name("primary-kill-mid-put");
  s.faults.push_back({.kind = chaos::FaultKind::kKillPrimary, .shard = 7, .at_op = 5});
  s.faults.push_back({.kind = chaos::FaultKind::kKillMuxChannel, .at_op = 5});  // mux off
  obs::Plane plane;
  const Report r = Runner::run(s, 1, &plane);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_EQ(r.faults_fired, 1u);
  EXPECT_EQ(r.faults_skipped, 2u);
  EXPECT_EQ(plane.query().count(obs::TraceKind::kFaultInjected), 1u);
  EXPECT_NE(r.history.find("fault kill-primary shard=7 idx=0 skipped"), std::string::npos);
}

// ------------------------------------------------------ golden histories

// Byte-identical histories are the safety net for refactors of the message
// path: one scripted schedule per family at seed 1 must reproduce its pinned
// FNV-1a history digest and headline counts exactly. A change that means to
// move virtual time re-pins these (the failure message prints the new row).
TEST(ChaosGolden, OneScriptedSchedulePerFamilyAtSeedOne) {
  struct Case {
    Family family;
    const char* name;
    test::Golden golden;
  };
  const Case cases[] = {
      {Family::kChaos, "primary-kill-mid-put", {0xf452dff6933344e6ULL, 40, 0, 0}},
      {Family::kMigration, "add-kill-source", {0xf05ae6f235fbce74ULL, 72, 0, 72}},
      {Family::kFailover, "fast-composed-with-migration", {0x491de46832ffcfbeULL, 48, 0, 0}},
      {Family::kHotKey, "hotkey-write-invalidate-race", {0x1b6092f1575091dfULL, 25, 0, 575}},
      {Family::kScan, "scan-add-shard-live", {0x6aac6782acaab21dULL, 150, 0, 0}},
      {Family::kTxn, "txn-migrate-mid-txn", {0xaa8336d808876399ULL, 30, 0, 0}},
  };
  for (const auto& c : cases) {
    const Report r = Runner::run(chaos::scripted(c.family, c.name), 1);
    EXPECT_EQ(test::to_string(test::golden_of(r)), test::to_string(c.golden)) << c.name;
  }
}

// ------------------------------------------------------ the feature lattice

// Seed-1 fingerprint of every lattice point, indexed by feature subset.
constexpr test::Golden kLatticeGolden[chaos::kFeatureAll + 1] = {
    {0x7985c1eab8000889ULL, 25, 0, 275},  // 0
    {0x4dd0f51a37b54067ULL, 12, 0, 288},  // 1
    {0x1c294086382f0c9dULL, 12, 0, 288},  // 2
    {0x92a235f1a45515dbULL, 9, 0, 291},  // 3
    {0x095bfff6a33a7c9eULL, 20, 0, 280},  // 4
    {0x8dc967052777b8acULL, 10, 0, 290},  // 5
    {0x83b7e3ac96ad2c84ULL, 11, 0, 289},  // 6
    {0x5ceca5f214f81ad0ULL, 10, 0, 290},  // 7
    {0xd77678aa9f33251bULL, 16, 0, 284},  // 8
    {0x1163c2841ef8cedfULL, 25, 0, 275},  // 9
    {0x75b93d7b11ba17c7ULL, 11, 0, 289},  // 10
    {0x6a9dc488ec7aa39aULL, 10, 0, 290},  // 11
    {0xed8e03bdf93199c4ULL, 12, 0, 288},  // 12
    {0x9d52dd590f267030ULL, 20, 0, 280},  // 13
    {0x36ea2f06d3a3aac3ULL, 9, 0, 291},  // 14
    {0xbbf91e146765fca6ULL, 12, 0, 288},  // 15
    {0x98ca3d91ea4f0a65ULL, 11, 0, 289},  // 16
    {0x4434291e444359ecULL, 16, 0, 284},  // 17
    {0x138a3acd98ddac39ULL, 11, 0, 289},  // 18
    {0x7bb10c9f5d79633cULL, 9, 0, 291},  // 19
    {0xb97a567ecc204373ULL, 20, 0, 280},  // 20
    {0x7e1c263e93d353d3ULL, 20, 0, 280},  // 21
    {0x6cafd0953193a57fULL, 10, 0, 290},  // 22
    {0xa5ce24fa157de358ULL, 16, 0, 284},  // 23
    {0x1126773393ee021cULL, 16, 0, 284},  // 24
    {0x14b368b8fe91731cULL, 25, 0, 275},  // 25
    {0x0920b23fa4237893ULL, 20, 0, 280},  // 26
    {0xe224c4fb66c811acULL, 11, 0, 289},  // 27
    {0x079c269de85b365eULL, 10, 0, 290},  // 28
    {0xa3370c2d81363071ULL, 25, 0, 275},  // 29
    {0xa290cf72df833354ULL, 25, 0, 275},  // 30
    {0x1f051928396fa359ULL, 11, 0, 289},  // 31
};

// Every subset of {mux, ordered index, hot-key plane, txn lock arena, fast
// failover} composed under the skewed GET/PUT driver with a primary kill
// plus one wire fault. HYDRA_CHAOS_RANDOM_RUNS scales the seeds per
// combination (the default 140 gives 2; never fewer than 2). The seed-1 run
// also pins its golden history (see ChaosGolden above).
class ChaosLattice : public ::testing::TestWithParam<unsigned> {};

TEST_P(ChaosLattice, PrimaryKillPlusWireFault) {
  const int seeds = std::max(2, test::env_runs("HYDRA_CHAOS_RANDOM_RUNS", 140) / 70);
  for (int i = 1; i <= seeds; ++i) {
    const auto seed = static_cast<std::uint64_t>(i);
    const Schedule s = chaos::lattice(GetParam(), seed);
    const Report r = Runner::run(s, seed);
    EXPECT_TRUE(r.passed()) << s.name << ":\n" << describe(r);
    EXPECT_GT(r.acked, 0u) << s.name;
    EXPECT_GE(r.failovers, 1u) << s.name;
    EXPECT_EQ(r.faults_skipped, 0u) << s.name;
    if (seed == 1) {
      EXPECT_EQ(test::to_string(test::golden_of(r)),
                test::to_string(kLatticeGolden[GetParam()]))
          << s.name;
    }
  }
}

std::string feature_name(const ::testing::TestParamInfo<unsigned>& info) {
  static constexpr const char* kNames[] = {"mux", "index", "hotkey", "txn", "fast"};
  std::string name;
  for (unsigned bit = 0; bit < 5; ++bit) {
    if ((info.param & (1U << bit)) == 0) continue;
    name += name.empty() ? "" : "_";
    name += kNames[bit];
  }
  return name.empty() ? "none" : name;
}

INSTANTIATE_TEST_SUITE_P(AllFeatureSubsets, ChaosLattice,
                         ::testing::Range(0U, chaos::kFeatureAll + 1), feature_name);

}  // namespace
}  // namespace hydra
