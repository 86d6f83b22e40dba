// Tests for the fast-failover plane (DESIGN.md §14): RDMA permission
// revocation as the fencing primitive, missed-pulse suspicion, one-sided CAS
// ballot agreement, the microsecond crash-to-promotion gap, and the chaos
// family that hammers every fault point of the round. Plus the failover-path
// bugfix regressions this PR ships: revoked-rkey retransmits settling strict
// waiters, fenced-rkey pointer invalidation on fast epoch advance, and the
// legacy/fast double-promotion guard.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/chaos.hpp"
#include "chaos_util.hpp"
#include "fabric/fabric.hpp"
#include "hydradb/hydra_cluster.hpp"
#include "obs/plane.hpp"
#include "replication/primary.hpp"
#include "replication/secondary.hpp"
#include "sim/scheduler.hpp"

namespace hydra {
namespace {

using chaos::Family;
using chaos::Report;
using chaos::Runner;
using chaos::Schedule;
using test::describe;

// ------------------------------------------------------------- rig helpers

/// Standalone replication rig (no cluster): one primary, N secondaries.
struct Rig {
  void build(int secondaries, replication::ReplicationMode mode) {
    primary_node = fabric.add_node("primary").id();
    owner = std::make_unique<sim::Actor>(sched, "primary-shard");
    replication::PrimaryConfig cfg;
    cfg.mode = mode;
    primary = std::make_unique<replication::ReplicationPrimary>(*owner, fabric,
                                                                primary_node, cfg);
    for (int i = 0; i < secondaries; ++i) {
      const NodeId n = fabric.add_node("secondary-" + std::to_string(i)).id();
      replication::SecondaryConfig scfg;
      scfg.primary_shard = 0;
      scfg.store.arena_bytes = 8 << 20;
      secs.push_back(std::make_unique<replication::SecondaryShard>(sched, fabric, n, scfg));
      primary->add_secondary(*secs.back());
    }
  }

  proto::RepRecord make_put(const std::string& key, const std::string& value) {
    proto::RepRecord rec;
    rec.op = proto::MsgType::kPut;
    rec.op_time = sched.now();
    rec.key = key;
    rec.value = value;
    return rec;
  }

  sim::Scheduler sched;
  fabric::Fabric fabric{sched};
  NodeId primary_node = 0;
  std::unique_ptr<sim::Actor> owner;
  std::unique_ptr<replication::ReplicationPrimary> primary;
  std::vector<std::unique_ptr<replication::SecondaryShard>> secs;
};

db::ClusterOptions fast_options() {
  db::ClusterOptions opts;
  opts.server_nodes = 3;
  opts.shards_per_node = 1;
  opts.total_shards = 1;
  opts.client_nodes = 1;
  opts.clients_per_node = 1;
  opts.replicas = 2;
  opts.enable_swat = true;
  opts.fast_failover = true;
  opts.shard_template.store.arena_bytes = 16 << 20;
  opts.shard_template.store.min_buckets = 1 << 12;
  opts.client_template.request_timeout = 100 * kMillisecond;
  opts.client_template.max_retries = 100;
  return opts;
}

const Schedule& scripted_by_name(const std::string& name) {
  return chaos::scripted(Family::kFailover, name);
}

// ------------------------------------------------ fabric revocation verbs

TEST(RevocationVerb, RevokeFailsInFlightAndFutureWrites) {
  Rig rig;
  rig.build(1, replication::ReplicationMode::kLogRelaxed);
  rig.primary->replicate(rig.make_put("k0", "v0"), nullptr);
  rig.sched.run();
  ASSERT_EQ(rig.secs[0]->applied_records(), 1u);

  bool confirmed = false;
  rig.fabric.revoke_rkey(rig.secs[0]->node(), rig.secs[0]->ring_mr()->rkey(),
                         3 * kMicrosecond, [&](bool ok) { confirmed = ok; });
  rig.sched.run();
  EXPECT_TRUE(confirmed);
  EXPECT_EQ(rig.fabric.stats().rkey_revocations, 1u);
  // Revoking an already-revoked region is idempotent and still confirms.
  bool again = false;
  rig.fabric.revoke_rkey(rig.secs[0]->node(), rig.secs[0]->ring_mr()->rkey(),
                         3 * kMicrosecond, [&](bool ok) { again = ok; });
  rig.sched.run();
  EXPECT_TRUE(again);

  // An unknown rkey cannot be confirmed.
  bool unknown_ok = true;
  rig.fabric.revoke_rkey(rig.secs[0]->node(), 0xdeadu, 3 * kMicrosecond,
                         [&](bool ok) { unknown_ok = ok; });
  rig.sched.run();
  EXPECT_FALSE(unknown_ok);
}

TEST(RevocationVerb, ReregisterGrantsFreshRkeyAndKeepsOldDead) {
  Rig rig;
  rig.build(1, replication::ReplicationMode::kLogRelaxed);
  fabric::MemoryRegion* old_mr = rig.secs[0]->ring_mr();
  const std::uint32_t old_rkey = old_mr->rkey();

  rig.fabric.revoke_rkey(rig.secs[0]->node(), old_rkey, kMicrosecond, nullptr);
  rig.sched.run();
  fabric::MemoryRegion* fresh = rig.fabric.reregister_mr(rig.secs[0]->node(), old_mr);
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh->rkey(), old_rkey);
  EXPECT_EQ(fresh->length(), old_mr->length());
  EXPECT_EQ(rig.fabric.stats().rkey_reregistrations, 1u);
}

// --------------------------- bugfix 1: revoked-rkey retransmit regression
//
// Bug: a probe/record retransmit landing after a replica revoked the
// primary's rkey retried the write until the retransmit budget quarantined
// the link -- seconds of virtual time with strict waiters pinned. A
// kProtectionError from a *live* replica is a fence verdict: it must settle
// the waiters immediately (and never count as a wire retry).
TEST(FastFailoverRegression, RevokedRingSettlesStrictWaitersWithoutRetryStorm) {
  Rig rig;
  rig.build(1, replication::ReplicationMode::kStrictAck);
  bool warm = false;
  rig.primary->replicate(rig.make_put("k0", "v0"), [&] { warm = true; });
  rig.sched.run();
  ASSERT_TRUE(warm);

  // The replica fences us (as the failover plane would mid-round).
  rig.fabric.revoke_rkey(rig.secs[0]->node(), rig.secs[0]->ring_mr()->rkey(),
                         3 * kMicrosecond, nullptr);
  rig.sched.run();

  const std::uint64_t retries_before = rig.primary->write_retries();
  bool settled = false;
  rig.primary->replicate(rig.make_put("k1", "v1"), [&] { settled = true; });
  rig.sched.run();

  // The strict waiter fired (no wedge), without a single wire retry -- the
  // permission error is terminal, not transient.
  EXPECT_TRUE(settled);
  EXPECT_EQ(rig.primary->write_retries(), retries_before);
  EXPECT_EQ(rig.primary->fence_errors(), 1u);
  EXPECT_EQ(rig.primary->quarantined(), 1u);
}

TEST(FastFailoverRegression, RevokedLinkQuarantinesWhileSurvivorKeepsStream) {
  Rig rig;
  rig.build(2, replication::ReplicationMode::kStrictAck);
  rig.primary->replicate(rig.make_put("k0", "v0"), nullptr);
  rig.sched.run();

  rig.fabric.revoke_rkey(rig.secs[0]->node(), rig.secs[0]->ring_mr()->rkey(),
                         3 * kMicrosecond, nullptr);
  rig.sched.run();

  bool settled = false;
  rig.primary->replicate(rig.make_put("k1", "v1"), [&] { settled = true; });
  rig.sched.run();
  EXPECT_TRUE(settled);
  EXPECT_EQ(rig.primary->quarantined(), 1u);
  // The survivor's stream kept flowing past the fenced link.
  EXPECT_EQ(rig.secs[1]->applied_records(), 2u);
  EXPECT_EQ(rig.secs[0]->applied_records(), 1u);
}

// ------------------------------------------------------ suspicion + pulses

TEST(FastFailoverAgreement, PulsesKeepHealthyReplicasUnsuspicious) {
  obs::Plane plane;
  auto opts = fast_options();
  opts.obs = &plane;
  db::HydraCluster cluster(opts);
  ASSERT_EQ(cluster.put("k", "v"), Status::kOk);
  // Many pulse deadlines' worth of healthy silence on the data path.
  cluster.run_for(20 * kMillisecond);

  EXPECT_EQ(cluster.failovers(), 0u);
  const auto q = plane.query();
  EXPECT_EQ(q.count(obs::TraceKind::kSuspicionRaised), 0u);
  EXPECT_EQ(q.count(obs::TraceKind::kRkeyRevoked), 0u);
}

TEST(FastFailoverAgreement, CrashPromotesWithinMillisecond) {
  obs::Plane plane;
  auto opts = fast_options();
  opts.obs = &plane;
  db::HydraCluster cluster(opts);
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(cluster.put("k-" + std::to_string(i), "v-" + std::to_string(i)),
              Status::kOk);
  }
  cluster.run_for(10 * kMillisecond);

  const Time crashed_at = cluster.scheduler().now();
  cluster.crash_primary(0);
  cluster.run_for(50 * kMillisecond);  // milliseconds, not seconds

  ASSERT_EQ(cluster.failovers(), 1u);
  ASSERT_NE(cluster.shard(0), nullptr);
  EXPECT_TRUE(cluster.shard(0)->alive());

  const auto q = plane.query();
  const auto done = q.first(obs::TraceKind::kPromotionDone, 0);
  ASSERT_TRUE(done.has_value());
  const Duration gap = done->at - crashed_at;
  EXPECT_LT(gap, kMillisecond) << "crash-to-promotion gap " << gap << "ns";

  // Protocol order: suspicion -> revocation -> ballot cast -> ballot won ->
  // promotion. Revocation-before-ballot is the safety argument: by the time
  // any candidate asks for votes, the old primary is already write-fenced.
  EXPECT_TRUE(q.happened_before(obs::TraceKind::kSuspicionRaised,
                                obs::TraceKind::kRkeyRevoked));
  EXPECT_TRUE(q.happened_before(obs::TraceKind::kRkeyRevoked,
                                obs::TraceKind::kBallotCast));
  EXPECT_TRUE(q.happened_before(obs::TraceKind::kBallotCast,
                                obs::TraceKind::kBallotWon));
  EXPECT_TRUE(q.happened_before(obs::TraceKind::kBallotWon,
                                obs::TraceKind::kPromotionDone));
  // Exactly one winner even with two concurrent suspecting replicas.
  EXPECT_EQ(q.count(obs::TraceKind::kBallotWon), 1u);

  // Data survived and writes resume immediately.
  for (int i = 0; i < 30; ++i) {
    auto v = cluster.get("k-" + std::to_string(i));
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(*v, "v-" + std::to_string(i));
  }
  EXPECT_EQ(cluster.put("after", "crash"), Status::kOk);

  // The legacy session expiry (2s later) must NOT promote again: the fast
  // promotion re-registered the znode under the new primary's session.
  cluster.run_for(5 * kSecond);
  EXPECT_EQ(cluster.failovers(), 1u);
  EXPECT_EQ(plane.query().count(obs::TraceKind::kPromotionDone, 0), 1u);
}

TEST(FastFailoverAgreement, GapHistogramRecordsMicrosecondFailover) {
  obs::Plane plane;
  auto opts = fast_options();
  opts.obs = &plane;
  db::HydraCluster cluster(opts);
  ASSERT_EQ(cluster.put("k", "v"), Status::kOk);
  cluster.run_for(10 * kMillisecond);
  cluster.crash_primary(0);
  cluster.run_for(50 * kMillisecond);
  ASSERT_EQ(cluster.failovers(), 1u);

  // The cluster records crash-to-promotion in cluster.failover_gap_us.
  auto& h = plane.metrics().histogram("cluster.failover_gap_us");
  ASSERT_EQ(h.count(), 1u);
  EXPECT_LT(h.max(), 1000u);  // < 1000us = 1ms
}

// --------------- bugfix 2: cached pointers vs the fast epoch advance
//
// Bug: RemotePtrCache entries (and hot-key promo-slab pointers) were only
// invalidated by lease expiry or the *legacy* promotion path's epoch bump.
// The fast path promotes in microseconds -- a cached pointer can have
// seconds of lease left -- so the epoch stamped at cache time must fence
// every one-sided read the instant kEpochPublished lands.
TEST(FastFailoverRegression, NoReadAgainstFencedRkeyAfterFastEpochBump) {
  obs::Plane plane;
  auto opts = fast_options();
  opts.obs = &plane;
  db::HydraCluster cluster(opts);

  const ShardId victim = 0;
  std::string key = "hot-0";
  ASSERT_EQ(cluster.owner_of(key), victim);  // single shard owns everything
  ASSERT_EQ(cluster.put(key, "v"), Status::kOk);

  // Pump popularity so the minted lease far outlives the microsecond
  // failover window.
  auto* sh = cluster.shard(victim);
  ASSERT_NE(sh, nullptr);
  for (int i = 0; i < 6; ++i) {
    (void)sh->store().get(key, cluster.scheduler().now(), /*grant_lease=*/true);
  }
  ASSERT_TRUE(cluster.get(key).has_value());  // mints + caches the pointer
  cluster.run_for(10 * kMillisecond);

  auto* cl = cluster.clients().front();
  const std::uint64_t hits_before = cl->stats().ptr_hits;
  ASSERT_EQ(*cluster.get(key), "v");
  ASSERT_GT(cl->stats().ptr_hits, hits_before) << "RDMA-read path never engaged";
  const std::uint32_t fenced_rkey = sh->arena_rkey();

  cluster.crash_primary(victim);
  cluster.run_for(50 * kMillisecond);  // fast window only -- lease still live
  ASSERT_EQ(cluster.failovers(), 1u);
  const auto epoch = plane.query().last(obs::TraceKind::kEpochPublished);
  ASSERT_TRUE(epoch.has_value());

  const std::uint64_t invalidations_before = cl->stats().epoch_invalidations;
  ASSERT_EQ(*cluster.get(key), "v");
  ASSERT_EQ(*cluster.get(key), "v");
  EXPECT_GT(cl->stats().epoch_invalidations, invalidations_before)
      << "the epoch check never fired for the stale pointer";

  const auto q = plane.query();
  std::size_t stale_reads = 0;
  std::size_t pre_crash_reads = 0;
  for (const auto& rec : q.of(obs::TraceKind::kReadPosted)) {
    if (rec.b != fenced_rkey) continue;
    if (rec.seq > epoch->seq) {
      ++stale_reads;
    } else {
      ++pre_crash_reads;
    }
  }
  EXPECT_GT(pre_crash_reads, 0u) << "test vacuous: key was never RDMA-read";
  EXPECT_EQ(stale_reads, 0u)
      << stale_reads << " one-sided reads posted against the fenced rkey";
}

TEST(FastFailoverRegression, HotKeyPromoSlabDemotesOnFastEpochAdvance) {
  obs::Plane plane;
  auto opts = fast_options();
  opts.obs = &plane;
  opts.shard_template.hotkey_top_k = 4;
  opts.shard_template.hotkey_promote_min_hits = 4;
  // Every probe must land on the shard's hit tracker: with a long lease the
  // second GET onwards rides the cached pointer one-sided and the tracker
  // never sees it.
  opts.shard_template.store.min_lease = 50 * kMicrosecond;
  opts.shard_template.store.max_lease = 100 * kMicrosecond;
  db::HydraCluster cluster(opts);

  const std::string key = "hk-0";
  ASSERT_EQ(cluster.put(key, "v"), Status::kOk);
  // Hammer the key hot enough to promote copies onto the followers; the
  // 2ms scan interval sees ~10 hits per window, past min_hits.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(cluster.get(key).has_value());
    cluster.run_for(200 * kMicrosecond);
  }
  const auto promoted = plane.query().count(obs::TraceKind::kHotKeyPromoted);
  ASSERT_GT(promoted, 0u) << "test vacuous: key never promoted";

  // Crash before the next scan tick can cool the promotion: the epoch
  // advance, not cooldown, must be what withdraws it.
  cluster.crash_primary(0);
  cluster.run_for(50 * kMillisecond);
  ASSERT_EQ(cluster.failovers(), 1u);

  // The promo-slab copies must be withdrawn by the fast epoch advance
  // exactly as a migration epoch would, and reads still return the value.
  ASSERT_EQ(*cluster.get(key), "v");
  const auto q = plane.query();
  const auto epoch = q.last(obs::TraceKind::kEpochPublished);
  ASSERT_TRUE(epoch.has_value());
  bool epoch_demotion = false;
  for (const auto& rec : q.of(obs::TraceKind::kHotKeyDemoted)) {
    if (rec.seq > epoch->seq || rec.b == 1) epoch_demotion = true;
  }
  EXPECT_TRUE(epoch_demotion) << "no promo-slab demotion after the epoch bump";
}

// ------------------------------------------------------------- flag off

// With fast_failover off the revocation machinery must not exist at all:
// no pulses, no suspicion, no arena registrations -- the rkey sequence and
// virtual-time history stay byte-identical to earlier revisions.
TEST(FastFailoverOff, NoRevocationMachineryWhenDisabled) {
  obs::Plane plane;
  const Report r = Runner::run(chaos::scripted(Family::kChaos).front(), 3, &plane);
  EXPECT_TRUE(r.passed());
  const auto q = plane.query();
  EXPECT_EQ(q.count(obs::TraceKind::kSuspicionRaised), 0u);
  EXPECT_EQ(q.count(obs::TraceKind::kRkeyRevoked), 0u);
  EXPECT_EQ(q.count(obs::TraceKind::kBallotCast), 0u);
}

// ------------------------------------------------------------ chaos sweep

// Every scripted failover schedule x seeds 1-5, one test case per schedule
// so ctest can spread the sweep across cores.
class FailoverScripted : public ::testing::TestWithParam<std::string> {};

TEST_P(FailoverScripted, FiveSeeds) {
  const Schedule& schedule = scripted_by_name(GetParam());
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Report r = Runner::run(schedule, seed);
    EXPECT_TRUE(r.passed()) << schedule.name << " seed " << seed << ":\n"
                            << describe(r);
    EXPECT_GT(r.acked, 0u) << schedule.name << " seed " << seed;
  }
}

std::vector<std::string> failover_schedule_names() {
  std::vector<std::string> names;
  for (const auto& schedule : chaos::scripted(Family::kFailover)) names.push_back(schedule.name);
  return names;
}

std::string param_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(FailoverChaosSweep, FailoverScripted,
                         ::testing::ValuesIn(failover_schedule_names()), param_name);

// Seeded-random compositions; HYDRA_FAILOVER_RANDOM_RUNS scales the sweep
// (tier1.sh --failover raises it, the sanitizer passes lower it).
TEST(FailoverChaosSweep, RandomFamilies) {
  const int runs = test::env_runs("HYDRA_FAILOVER_RANDOM_RUNS", 40);
  for (int i = 1; i <= runs; ++i) {
    const auto seed = static_cast<std::uint64_t>(i);
    const Schedule schedule = chaos::random(Family::kFailover, seed);
    const Report r = Runner::run(schedule, seed);
    EXPECT_TRUE(r.passed()) << schedule.name << ":\n" << describe(r);
  }
}

TEST(FailoverChaosDeterminism, SameSeedSameHistory) {
  const auto& scripted = scripted_by_name("fast-kill-mid-ring-write");
  const Report a = Runner::run(scripted, 7);
  const Report b = Runner::run(scripted, 7);
  EXPECT_EQ(a.history, b.history);

  const Schedule random = chaos::random(Family::kFailover, 17);
  const Report c = Runner::run(random, 17);
  const Report d = Runner::run(random, 17);
  EXPECT_EQ(c.history, d.history);
  EXPECT_NE(a.history, c.history);
}

// ------------------------------------------- per-fault-point regressions

TEST(FailoverChaosRegression, TornRevocationStillPromotesFast) {
  const Report r =
      Runner::run(scripted_by_name("fast-torn-revocation"), 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_GE(r.fast_promotions, 1u) << describe(r);
  EXPECT_GT(r.revocations, 0u);
  EXPECT_LT(r.failover_gap, kMillisecond);
}

TEST(FailoverChaosRegression, DroppedRevocationRetriesAndPromotes) {
  const Report r =
      Runner::run(scripted_by_name("fast-dropped-revocation"), 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_GE(r.fast_promotions, 1u) << describe(r);
  EXPECT_LT(r.failover_gap, kMillisecond);
}

// The fallback ordering argument (DESIGN.md §14): when every revocation is
// lost and the round aborts, the legacy session-timeout promotion must still
// recover the shard -- slower, never less safe.
TEST(FailoverChaosRegression, RevocationStormFallsBackToLegacyPromotion) {
  const Report r = Runner::run(
      scripted_by_name("fast-revocation-storm-falls-back"), 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_GE(r.failovers, 1u) << describe(r);
  EXPECT_EQ(r.fast_promotions, 0u) << describe(r);
  EXPECT_GE(r.rounds_aborted, 1u);
  EXPECT_GT(r.failover_gap, kMillisecond);  // it took the ~2.45s legacy path
}

TEST(FailoverChaosRegression, SplitBallotsElectExactlyOnePrimary) {
  const Report r =
      Runner::run(scripted_by_name("fast-split-ballots"), 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_EQ(r.failovers, 1u) << describe(r);
  // Exactly one round won its ballot and promoted; the race was real --
  // several replicas suspected and opened rounds, and every loser either
  // lost the CAS outright or aborted on the bumped generation. (Counters,
  // not end-of-run traces: the promoted primary's pulse traffic evicts the
  // ballot records from the bounded node rings long before settle ends.)
  EXPECT_EQ(r.fast_promotions, 1u) << describe(r);
  EXPECT_GE(r.rounds_started, 2u) << describe(r);
  EXPECT_GE(r.ballots_lost + r.rounds_aborted, 1u) << describe(r);
}

TEST(FailoverChaosRegression, SwatKillMidRoundDoesNotBlockAgreement) {
  const Report r =
      Runner::run(scripted_by_name("fast-swat-kill-mid-round"), 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_GE(r.fast_promotions, 1u) << describe(r);
}

TEST(FailoverChaosRegression, ComposedMigrationCommitsUnderFastFailover) {
  const Report r = Runner::run(
      scripted_by_name("fast-composed-with-migration"), 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_GE(r.failovers, 1u) << describe(r);
}

// Bug: the failover runner silently dropped record/ack wire faults (and
// apply failures and mux kills) while logging them as fired. A torn ring
// write just before the crash must now really tear -- and the agreement
// round must still promote fast with no acked write lost.
TEST(FailoverChaosRegression, TornRecordWriteTakesEffectUnderFastFailover) {
  const Report r = Runner::run(scripted_by_name("fast-torn-record-write"), 1);
  EXPECT_TRUE(r.passed()) << describe(r);
  EXPECT_EQ(r.wire_faults, 1u) << "the torn record write never took effect:\n"
                               << describe(r);
  EXPECT_GE(r.fast_promotions, 1u) << describe(r);
  EXPECT_LT(r.failover_gap, kMillisecond);
}

}  // namespace
}  // namespace hydra
