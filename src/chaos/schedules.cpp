// The chaos schedule families (DESIGN.md section 7): every scripted
// schedule and seeded-random generator, expressed as data for the one
// engine in runner.cpp.
#include "chaos/chaos.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"

namespace hydra::chaos {
namespace {

using replication::ReplicationMode;

/// One shard whose replicas live on otherwise idle machines, one client
/// PUTting unique keys: the failover families' shape.
Schedule single_shard(std::string name, const char* family, std::uint32_t ops) {
  Schedule s;
  s.name = std::move(name);
  s.family = family;
  s.ops = ops;
  return s;
}

void place_replicas(std::vector<Schedule>& out) {
  for (Schedule& s : out) s.server_nodes = 1 + std::max(s.replicas, 1);
}

// --- chaos: the failover plane (section 7) -----------------------------------

std::vector<Schedule> chaos_scripted() {
  std::vector<Schedule> out;
  {
    // The headline crash: the primary dies while a PUT is on the wire.
    Schedule s = single_shard("primary-kill-mid-put", "chaos", 40);
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 12,
                        .delay = 2 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // Replica apply failures force the rollback-resend protocol, and the
    // primary dies while that rollback is still in flight. Strict mode keeps
    // the affected records unacknowledged, so the client's retries (not the
    // half-finished rollback) are what re-drive them on the new primary.
    Schedule s = single_shard("primary-kill-mid-rollback", "chaos", 30);
    s.mode = ReplicationMode::kStrictAck;
    s.faults.push_back({.kind = FaultKind::kFailApply, .index = 0, .at_op = 10});
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 10,
                        .delay = 200 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // A replica dies mid-replay with strict acks outstanding: the primary
    // must quarantine the corpse and fire the strict waiters, never wedge.
    Schedule s = single_shard("secondary-kill-mid-replay", "chaos", 40);
    s.mode = ReplicationMode::kStrictAck;
    s.replicas = 2;
    s.faults.push_back({.kind = FaultKind::kKillSecondary, .index = 1,
                        .at_op = 15, .delay = 5 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // Acks themselves are RDMA writes: tear one and drop another. The
    // ack-deadline probe must recover both without a single client timeout
    // budget being exhausted.
    Schedule s = single_shard("torn-and-dropped-ack", "chaos", 40);
    s.mode = ReplicationMode::kStrictAck;
    s.faults.push_back({.kind = FaultKind::kTearAckWrite, .at_op = 10, .torn_bytes = 12});
    s.faults.push_back({.kind = FaultKind::kDropAckWrite, .at_op = 25});
    out.push_back(std::move(s));
  }
  {
    // Torn and dropped log-record writes: the in-place retransmit path must
    // heal the ring hole before the completion (and thus the client ack).
    Schedule s = single_shard("torn-and-dropped-record", "chaos", 40);
    s.faults.push_back({.kind = FaultKind::kTearRecordWrite, .at_op = 8, .torn_bytes = 16});
    s.faults.push_back({.kind = FaultKind::kDropRecordWrite, .at_op = 20});
    out.push_back(std::move(s));
  }
  {
    // Heartbeat suppression past the session timeout: the shard must be
    // fenced (not split-brained) and a replica promoted under it.
    Schedule s = single_shard("heartbeat-suppression-fences", "chaos", 50);
    s.faults.push_back({.kind = FaultKind::kSuppressHeartbeats, .at_op = 10,
                        .duration = 3 * kSecond});
    out.push_back(std::move(s));
  }
  {
    // The shared mux QP carrying every co-located client's traffic dies
    // abruptly -- twice -- while PUTs are on the wire. The mux layer is not
    // told; endpoints must discover the corpse by timeout, tear the channel
    // down, re-establish lazily and retransmit. No acked write may be lost.
    Schedule s = single_shard("mux-channel-kill-mid-put", "chaos", 40);
    s.mux = true;
    s.faults.push_back({.kind = FaultKind::kKillMuxChannel, .at_op = 10,
                        .delay = 2 * kMicrosecond});
    s.faults.push_back({.kind = FaultKind::kKillMuxChannel, .at_op = 25,
                        .delay = 2 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // The SWAT leader is a corpse (znode lingering until session expiry)
    // when the primary's death event arrives -- the leadership-gap window.
    // The pending-death set must hold the event until member 1 takes over.
    Schedule s = single_shard("swat-leader-dead-during-failover", "chaos", 40);
    s.swat_members = 3;
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 10});
    s.faults.push_back({.kind = FaultKind::kKillSwatMember, .index = 0, .at_op = 10,
                        .delay = 1900 * kMillisecond});
    out.push_back(std::move(s));
  }
  place_replicas(out);
  return out;
}

Schedule chaos_random(std::uint64_t seed) {
  // Decorrelate from the workload's value stream, which hashes the raw seed.
  Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
  Schedule s = single_shard("random-" + std::to_string(seed), "chaos", 0);
  s.ops = 30 + static_cast<std::uint32_t>(rng.below(31));

  // Safety rules keeping the invariants meaningful (never a schedule whose
  // data loss is *correct* behaviour):
  //  * secondary kills only with two replicas, and only replica #1, so a
  //    live replica always remains for promotion;
  //  * injected apply failures force strict mode -- under relaxed acks a
  //    primary death racing an unfinished rollback may legitimately lose
  //    acked records (the durability trade the paper makes explicit).
  const bool kill_secondary = rng.below(3) == 0;
  s.replicas = kill_secondary ? 2 : 1 + static_cast<int>(rng.below(2));
  const bool fail_apply = rng.below(4) == 0;
  s.mode = (fail_apply || rng.below(2) == 0) ? ReplicationMode::kStrictAck
                                             : ReplicationMode::kLogRelaxed;
  const bool kill_primary = rng.below(2) == 0;
  const bool kill_swat = kill_primary && rng.below(3) == 0;
  const bool suppress = rng.below(3) == 0;

  auto op_point = [&] { return static_cast<std::uint32_t>(rng.below(s.ops)); };
  auto small_delay = [&] { return static_cast<Duration>(rng.below(50 * kMicrosecond)); };

  // One or two wire faults in every schedule.
  const int wire_faults = 1 + static_cast<int>(rng.below(2));
  for (int i = 0; i < wire_faults; ++i) {
    static constexpr FaultKind kWire[] = {
        FaultKind::kTearRecordWrite, FaultKind::kDropRecordWrite,
        FaultKind::kTearAckWrite, FaultKind::kDropAckWrite};
    s.faults.push_back({.kind = kWire[rng.below(4)], .at_op = op_point(),
                        .torn_bytes = 8 + static_cast<std::uint32_t>(rng.below(40))});
  }
  if (fail_apply) {
    s.faults.push_back({.kind = FaultKind::kFailApply, .index = 0, .at_op = op_point()});
  }
  if (kill_secondary) {
    s.faults.push_back({.kind = FaultKind::kKillSecondary, .index = 1,
                        .at_op = op_point(), .delay = small_delay()});
  }
  if (kill_primary) {
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = op_point(),
                        .delay = small_delay()});
  }
  if (kill_swat) {
    // A dead SWAT leader's znode lingers ~2s; killing it around the primary's
    // session expiry maximises the leadership-gap overlap.
    s.faults.push_back({.kind = FaultKind::kKillSwatMember, .index = 0,
                        .at_op = op_point(),
                        .delay = 1500 * kMillisecond + rng.below(kSecond)});
  }
  if (suppress) {
    // Sometimes short (benign blip), sometimes past the session timeout
    // (fencing + promotion).
    s.faults.push_back({.kind = FaultKind::kSuppressHeartbeats, .at_op = op_point(),
                        .duration = kSecond + rng.below(3 * kSecond)});
  }
  s.server_nodes = 1 + std::max(s.replicas, 1);
  return s;
}

// --- migration: the elastic-membership plane (section 9) --------------------

/// A closed-loop PUT+readback workload across a multi-shard cluster while
/// one live migration executes; the bulk copy of the preloaded dataset
/// spans many manager ticks so kills land mid-copy.
Schedule elastic(std::string name, bool add) {
  Schedule s;
  s.name = std::move(name);
  s.family = "mig";
  s.server_nodes = s.shards = 3;
  s.preload = 1536;
  s.ops = 72;
  s.readback = true;
  s.faults.push_back({.kind = add ? FaultKind::kAddShard : FaultKind::kDrainShard,
                      .shard = 1, .at_op = 8});
  return s;
}

std::vector<Schedule> migration_scripted() {
  std::vector<Schedule> out;
  // Kill delays are sized for the default copy cadence (a few thousand
  // preloaded keys, 16 records per 200us tick) so they land mid-copy. The
  // subject of an add is shard 3 (shard ids are append-only).
  out.push_back(elastic("add-clean", true));
  out.push_back(elastic("drain-clean", false));
  {
    // A copy source dies mid-copy: its flow must be rebuilt from the
    // promoted replica (fresh sink, fresh snapshot) and still commit.
    Schedule s = elastic("add-kill-source", true);
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = 0, .at_op = 8,
                        .delay = 400 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // The brand-new destination dies mid-copy: the commit must wait for its
    // replica to be promoted, then merge into the promoted store.
    Schedule s = elastic("add-kill-destination", true);
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = 3, .at_op = 8,
                        .delay = 500 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // The drain victim (source of every flow) dies mid-drain.
    Schedule s = elastic("drain-kill-victim", false);
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = 1, .at_op = 8,
                        .delay = 400 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // One of the drain's destinations dies mid-copy.
    Schedule s = elastic("drain-kill-destination", false);
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = 2, .at_op = 8,
                        .delay = 500 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // SWAT leadership gap overlapping a source kill: the death event pends
    // until member 1 takes over, stretching the migration stall by ~2s.
    Schedule s = elastic("add-kill-swat-and-source", true);
    s.swat_members = 3;
    s.faults.push_back({.kind = FaultKind::kKillSwatMember, .index = 0, .at_op = 8});
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = 0, .at_op = 8,
                        .delay = 300 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // The client node's shared mux QP to a copy source dies mid-copy: the
    // readbacks and PUTs on it re-establish while ownership is in motion.
    Schedule s = elastic("add-mux-channel-kill", true);
    s.mux = true;
    s.faults.push_back({.kind = FaultKind::kKillMuxChannel, .shard = 0, .at_op = 8,
                        .delay = 300 * kMicrosecond});
    out.push_back(std::move(s));
  }
  return out;
}

Schedule migration_random(std::uint64_t seed) {
  Xoshiro256 rng(seed * 0xBF58476D1CE4E5B9ULL + 0x94D049BB133111EBULL);
  const bool add = rng.below(2) == 0;
  Schedule s = elastic("mig-random-" + std::to_string(seed), add);
  s.server_nodes = s.shards = 2 + static_cast<int>(rng.below(3));
  s.replicas = 1 + static_cast<int>(rng.below(2));
  s.preload = 512 + static_cast<std::uint32_t>(rng.below(1537));
  s.ops = 48 + static_cast<std::uint32_t>(rng.below(49));
  const std::uint32_t migrate_at = 4 + static_cast<std::uint32_t>(rng.below(s.ops / 3));
  const ShardId victim = static_cast<ShardId>(rng.below(static_cast<std::uint64_t>(s.shards)));
  s.faults.front().at_op = migrate_at;
  s.faults.front().shard = victim;

  const ShardId n = static_cast<ShardId>(s.shards);
  const auto kill_delay = [&] {
    return static_cast<Duration>(100 * kMicrosecond + rng.below(2 * kMillisecond));
  };
  switch (rng.below(4)) {
    case 0:  // clean run
      break;
    case 1: {  // kill a source mid-copy
      const ShardId src = add ? static_cast<ShardId>(rng.below(n)) : victim;
      s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = src,
                          .at_op = migrate_at, .delay = kill_delay()});
      break;
    }
    case 2: {  // kill a destination mid-copy
      const ShardId dst =
          add ? n : static_cast<ShardId>((victim + 1 + rng.below(n - 1)) % n);
      s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = dst,
                          .at_op = migrate_at, .delay = kill_delay()});
      break;
    }
    default: {  // SWAT leadership gap + source kill
      s.swat_members = 3;
      const ShardId src = add ? static_cast<ShardId>(rng.below(n)) : victim;
      s.faults.push_back(
          {.kind = FaultKind::kKillSwatMember, .index = 0, .at_op = migrate_at});
      s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = src,
                          .at_op = migrate_at, .delay = kill_delay()});
      break;
    }
  }
  return s;
}

// --- failover: the fast-failover agreement plane (section 14) ---------------

Schedule fast(std::string name, std::uint32_t ops = 40) {
  Schedule s = single_shard(std::move(name), "ff", ops);
  s.replicas = 2;
  s.fast_failover = true;
  return s;
}

std::vector<Schedule> failover_scripted() {
  std::vector<Schedule> out;
  {
    // The headline case: the primary dies while ring writes are on the wire.
    // Both replicas miss the pulse deadline, revoke, and race CAS ballots;
    // the winner must promote within the microsecond bound.
    Schedule s = fast("fast-kill-mid-ring-write");
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 12,
                        .delay = 2 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // Strict acks in flight when the primary dies: client retries (not the
    // dead primary's half-finished pipeline) re-drive the records on the
    // promoted replica, and any probe retransmit that lands after the
    // revocation must surface as a fabric permission error, never wedge.
    Schedule s = fast("fast-kill-strict-inflight");
    s.mode = ReplicationMode::kStrictAck;
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 10,
                        .delay = 2 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // A torn revocation: the verb applies at the owner but its confirmation
    // is lost. The retry re-revokes an already-revoked region (idempotent)
    // and the round still completes fast.
    Schedule s = fast("fast-torn-revocation");
    s.faults.push_back({.kind = FaultKind::kTearRevocation, .index = 1, .at_op = 12});
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 12,
                        .delay = 2 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // A dropped revocation: the verb is lost entirely; the retry must
    // deliver and the round still beats the millisecond bound.
    Schedule s = fast("fast-dropped-revocation");
    s.faults.push_back({.kind = FaultKind::kDropRevocation, .index = 1, .at_op = 12});
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 12,
                        .delay = 2 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // Revocation storm: every revoke verb is dropped, the retry budget
    // exhausts, every round aborts -- the legacy session-timeout promotion
    // must still recover the shard (the fallback ordering argument).
    Schedule s = fast("fast-revocation-storm-falls-back");
    s.expect_fast = false;
    s.faults.push_back({.kind = FaultKind::kDropRevocation, .index = 64, .at_op = 10});
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 10,
                        .delay = 2 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // Split suspicion: three replicas all suspect at once and cast ballots
    // against the same decision arena; exactly one may win its round.
    Schedule s = fast("fast-split-ballots");
    s.replicas = 3;
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 12,
                        .delay = 2 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // The SWAT leader dies in the same instant as the primary: the agreement
    // round must not depend on coordinator liveness (SWAT only publishes the
    // epoch, and any member can).
    Schedule s = fast("fast-swat-kill-mid-round");
    s.swat_members = 3;
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 10,
                        .delay = 2 * kMicrosecond});
    s.faults.push_back({.kind = FaultKind::kKillSwatMember, .index = 0, .at_op = 10});
    out.push_back(std::move(s));
  }
  {
    // Legacy/fast interplay: heartbeat suppression past the session timeout
    // self-fences the primary (the legacy path), which silences its pulses
    // -- the fast plane must then promote off the resulting suspicion
    // without double-promoting against SWAT's own reaction.
    Schedule s = fast("fast-suppression-interplay", 50);
    s.faults.push_back({.kind = FaultKind::kSuppressHeartbeats, .at_op = 10,
                        .duration = 3 * kSecond});
    out.push_back(std::move(s));
  }
  {
    // A torn record-ring write just before the primary dies: the retransmit
    // races the agreement round, and the replicas must still fence, agree
    // and promote fast with no acked write lost.
    Schedule s = fast("fast-torn-record-write");
    s.faults.push_back({.kind = FaultKind::kTearRecordWrite, .at_op = 10, .torn_bytes = 16});
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 12,
                        .delay = 2 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // Composed with a live add-migration: the victim is a copy source, so
    // the flow must be rebuilt from the fast-promoted replica and the
    // migration still commit.
    Schedule s = fast("fast-composed-with-migration", 48);
    s.faults.push_back({.kind = FaultKind::kAddShard, .at_op = 6});
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 10,
                        .delay = 300 * kMicrosecond});
    out.push_back(std::move(s));
  }
  place_replicas(out);
  return out;
}

Schedule failover_random(std::uint64_t seed) {
  // Decorrelate from the workload's value stream, which hashes the raw seed.
  Xoshiro256 rng(seed * 0xD6E8FEB86659FD93ULL + 0x2545F4914F6CDD1DULL);
  Schedule s = fast("ff-random-" + std::to_string(seed));
  s.ops = 30 + static_cast<std::uint32_t>(rng.below(31));
  s.replicas = 2 + static_cast<int>(rng.below(2));
  s.mode = rng.below(2) == 0 ? ReplicationMode::kStrictAck : ReplicationMode::kLogRelaxed;

  // Every random schedule kills the primary -- the family is about the
  // agreement round, and the other kinds compose around that kill.
  const std::uint32_t kill_op = 5 + static_cast<std::uint32_t>(rng.below(s.ops - 5));
  const auto tears = static_cast<int>(rng.below(3));
  const auto drops = static_cast<int>(rng.below(3));
  // Worst case puts every unconfirmed verb on one target consecutively; the
  // round survives while that streak stays under the retry budget (3).
  s.expect_fast = tears + drops < 3;
  if (tears > 0) {
    s.faults.push_back({.kind = FaultKind::kTearRevocation, .index = tears, .at_op = kill_op});
  }
  if (drops > 0) {
    s.faults.push_back({.kind = FaultKind::kDropRevocation, .index = drops, .at_op = kill_op});
  }
  if (s.replicas == 3 && rng.below(4) == 0) {
    // One replica is already a corpse when suspicion fires; the round must
    // skip it as a revocation target and still agree among the survivors.
    s.faults.push_back({.kind = FaultKind::kKillSecondary, .index = 2,
                        .at_op = kill_op > 5 ? kill_op - 3 : 0,
                        .delay = static_cast<Duration>(rng.below(20 * kMicrosecond))});
  }
  s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = kill_op,
                      .delay = static_cast<Duration>(rng.below(50 * kMicrosecond))});
  if (rng.below(4) == 0) {
    s.swat_members = 3;
    s.faults.push_back({.kind = FaultKind::kKillSwatMember, .index = 0, .at_op = kill_op,
                        .delay = static_cast<Duration>(rng.below(100 * kMicrosecond))});
  }
  s.server_nodes = 1 + std::max(s.replicas, 1);
  return s;
}

// --- hot-key: the promotion plane (section 12) ------------------------------

/// Skewed multi-client GETs (client 0 also PUTs) over three shards with the
/// promotion plane on. Kill, mux and suppression faults aim at the shard
/// owning the hottest key, a hash artifact resolved when they fire.
Schedule skewed(std::string name, const char* family = "hotkey") {
  Schedule s;
  s.name = std::move(name);
  s.family = family;
  s.driver = Driver::kHotKey;
  s.server_nodes = s.shards = 3;
  s.clients = 3;
  s.replicas = 2;
  s.small_table = false;
  s.hotkey = true;
  s.ops = 150;
  return s;
}

void aim_at_hot_shard(Schedule& s) {
  for (Fault& f : s.faults) f.target = Target::kHotKeyOwner;
}

std::vector<Schedule> hotkey_scripted() {
  std::vector<Schedule> out;
  // Fault-free promotion baseline: skewed reads promote the hot keys and
  // a healthy share of GETs serve from follower copies.
  out.push_back(skewed("hotkey-baseline"));
  {
    // Write-invalidate vs concurrent replica reads: client 0 keeps
    // rewriting the hot key while the others hammer one-sided reads of its
    // promoted copies. Every copy must die before the PUT acks.
    Schedule s = skewed("hotkey-write-invalidate-race");
    s.clients = 4;
    s.write_every = 6;
    out.push_back(std::move(s));
  }
  {
    // A promotion destination dies in the mid-copy window (promotions are
    // re-attempted every scan, so some copy write is always in flight
    // early on). Partial copy sets must never be advertised.
    Schedule s = skewed("hotkey-kill-dest-mid-promotion");
    s.write_every = 10;
    s.faults.push_back({.kind = FaultKind::kKillSecondary, .index = 0, .at_op = 12,
                        .delay = 5 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // The hot key's primary dies while promoted copies are live. The
    // promoted successor knows nothing of the old promotion set; clients
    // must drop it at the epoch bump, not read the orphaned copies.
    Schedule s = skewed("hotkey-kill-primary-copies-live");
    s.write_every = 10;
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 60,
                        .delay = 20 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // Fencing epoch bump with no crash: suppressed heartbeats expire the
    // session, SWAT promotes a replica -- possibly one *holding a copy* --
    // and every promoted pointer must demote at kEpochPublished.
    Schedule s = skewed("hotkey-fence-demotes");
    s.write_every = 12;
    s.faults.push_back({.kind = FaultKind::kSuppressHeartbeats, .at_op = 40,
                        .duration = 3 * kSecond});
    out.push_back(std::move(s));
  }
  {
    // The shared mux QP dies while replica reads ride the node's read
    // channels; endpoints re-establish and no read wedges.
    Schedule s = skewed("hotkey-mux-channel-kill");
    s.mux = true;
    s.write_every = 8;
    s.faults.push_back({.kind = FaultKind::kKillMuxChannel, .at_op = 50,
                        .delay = 10 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // Primary kill overlapping a SWAT leadership gap: promotions stay
    // orphaned for the whole gap; reads must fail over, never read stale.
    Schedule s = skewed("hotkey-kill-primary-swat-gap");
    s.swat_members = 3;
    s.write_every = 10;
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = 50,
                        .delay = 20 * kMicrosecond});
    s.faults.push_back({.kind = FaultKind::kKillSwatMember, .index = 0, .at_op = 50,
                        .delay = 1900 * kMillisecond});
    out.push_back(std::move(s));
  }
  for (Schedule& s : out) aim_at_hot_shard(s);
  return out;
}

Schedule hotkey_random(std::uint64_t seed) {
  Xoshiro256 rng(seed * 0xA24BAED4963EE407ULL + 0x9FB21C651E98DF25ULL);
  Schedule s = skewed("hotkey-random-" + std::to_string(seed));
  s.clients = 2 + static_cast<int>(rng.below(3));
  s.ops = 100 + static_cast<std::uint32_t>(rng.below(100));
  s.universe = 4 + static_cast<std::uint32_t>(rng.below(8));
  s.hot_percent = 50 + static_cast<std::uint32_t>(rng.below(40));
  s.write_every = rng.below(3) == 0 ? 0 : 4 + static_cast<std::uint32_t>(rng.below(12));
  s.mux = rng.below(3) == 0;
  const std::uint32_t total = static_cast<std::uint32_t>(s.clients) * s.ops;
  auto op_point = [&] { return static_cast<std::uint32_t>(rng.below(total)); };

  // A destination kill consumes one replica; keep one live so the hot
  // shard never loses redundancy entirely when the primary also dies.
  const bool kill_secondary = rng.below(3) == 0;
  const bool kill_primary = rng.below(2) == 0;
  const bool kill_swat = kill_primary && rng.below(3) == 0;

  if (kill_secondary) {
    s.faults.push_back({.kind = FaultKind::kKillSecondary, .index = 0, .at_op = op_point(),
                        .delay = static_cast<Duration>(rng.below(50 * kMicrosecond))});
  }
  if (kill_primary) {
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .at_op = op_point(),
                        .delay = static_cast<Duration>(rng.below(100 * kMicrosecond))});
  }
  if (kill_swat) {
    s.swat_members = 3;
    s.faults.push_back({.kind = FaultKind::kKillSwatMember, .index = 0, .at_op = op_point(),
                        .delay = 1500 * kMillisecond + rng.below(kSecond)});
  }
  if (s.mux && rng.below(2) == 0) {
    s.faults.push_back({.kind = FaultKind::kKillMuxChannel, .at_op = op_point(),
                        .delay = static_cast<Duration>(rng.below(50 * kMicrosecond))});
  }
  if (rng.below(4) == 0) {
    s.faults.push_back({.kind = FaultKind::kSuppressHeartbeats, .at_op = op_point(),
                        .duration = kSecond + rng.below(3 * kSecond)});
  }
  aim_at_hot_shard(s);
  return s;
}

// --- scan: range scans across live migration (section 13) -------------------

/// Client 0 streams INSERTs of fresh keys while client 1 scans the whole
/// time, over three ordered-index shards.
Schedule scanning(std::string name) {
  Schedule s;
  s.name = std::move(name);
  s.family = "scan";
  s.driver = Driver::kScan;
  s.server_nodes = s.shards = 3;
  s.clients = 2;
  s.replicas = 2;
  s.small_table = false;
  s.ordered_index = true;
  s.ops = 150;
  return s;
}

std::vector<Schedule> scan_scripted() {
  std::vector<Schedule> out;
  // Fault-free cross-shard merge baseline: inserts race scans, nothing
  // else. Establishes that the cursor alone never loses/dups a key.
  out.push_back(scanning("scan-baseline"));
  {
    // Live expansion: a new shard joins and ~1/N of every range migrates
    // while scans stream. The commit's epoch bump must restart cursors
    // without dropping or duplicating across the handover.
    Schedule s = scanning("scan-add-shard-live");
    s.faults.push_back({.kind = FaultKind::kAddShard, .at_op = 30});
    out.push_back(std::move(s));
  }
  {
    // Live drain: an original shard empties onto the survivors and leaves
    // the ring; scans spanning the drain see every key exactly once.
    Schedule s = scanning("scan-drain-shard-live");
    s.faults.push_back({.kind = FaultKind::kDrainShard, .shard = 0, .at_op = 30});
    out.push_back(std::move(s));
  }
  {
    // The expansion destination dies mid-copy: the half-copied shard must
    // never serve (or leak into) a scan.
    Schedule s = scanning("scan-add-kill-dest");
    s.faults.push_back({.kind = FaultKind::kAddShard, .at_op = 20});
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .target = Target::kSubject,
                        .at_op = 45, .delay = 10 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // A migration source dies mid-copy: failover promotes a replica and
    // scans targeting the dead primary restart against the new epoch.
    Schedule s = scanning("scan-add-kill-source");
    s.faults.push_back({.kind = FaultKind::kAddShard, .at_op = 20});
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = 1, .at_op = 50,
                        .delay = 20 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // Drain overlapping a SWAT leadership gap: promotions stall for the
    // gap; scans must keep restarting (not wedge) until the plane recovers.
    Schedule s = scanning("scan-drain-swat-gap");
    s.swat_members = 3;
    s.faults.push_back({.kind = FaultKind::kDrainShard, .shard = 0, .at_op = 25});
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = 1, .at_op = 55,
                        .delay = 20 * kMicrosecond});
    s.faults.push_back({.kind = FaultKind::kKillSwatMember, .index = 0, .at_op = 55,
                        .delay = 1900 * kMillisecond});
    out.push_back(std::move(s));
  }
  {
    // Torn one-sided leaf reads the whole run: every garbled page must be
    // caught by the client-side checksum and fall back to the message path.
    Schedule s = scanning("scan-torn-leaf-reads");
    s.faults.push_back({.kind = FaultKind::kTornLeafReads, .at_op = 0,
                        .duration = 120 * kSecond, .percent = 60});
    out.push_back(std::move(s));
  }
  {
    // The kitchen sink: expansion + fencing epoch bump + torn leaf reads.
    Schedule s = scanning("scan-migration-fence-torn");
    s.faults.push_back({.kind = FaultKind::kTornLeafReads, .at_op = 0,
                        .duration = 120 * kSecond, .percent = 40});
    s.faults.push_back({.kind = FaultKind::kAddShard, .at_op = 25});
    s.faults.push_back({.kind = FaultKind::kSuppressHeartbeats, .shard = 2, .at_op = 60,
                        .duration = 3 * kSecond});
    out.push_back(std::move(s));
  }
  return out;
}

Schedule scan_random(std::uint64_t seed) {
  Xoshiro256 rng(seed * 0xBF58476D1CE4E5B9ULL + 0x94D049BB133111EBULL);
  Schedule s = scanning("scan-random-" + std::to_string(seed));
  s.ops = 100 + static_cast<std::uint32_t>(rng.below(100));
  s.scans = 50 + static_cast<std::uint32_t>(rng.below(60));
  s.max_scan_limit = 16 + static_cast<std::uint32_t>(rng.below(48));
  s.leaf_reads = rng.below(4) != 0;
  const std::uint32_t total = s.ops + s.scans;
  auto op_point = [&] { return static_cast<std::uint32_t>(rng.below(total)); };
  auto original = [&] { return static_cast<ShardId>(rng.below(3)); };

  // At most one migration at a time is supported; pick one (or none).
  const std::uint64_t mig = rng.below(3);
  if (mig == 1) {
    s.faults.push_back({.kind = FaultKind::kAddShard, .at_op = op_point()});
    if (rng.below(3) == 0) {
      s.faults.push_back({.kind = FaultKind::kKillPrimary, .target = Target::kSubject,
                          .at_op = op_point(),
                          .delay = static_cast<Duration>(rng.below(50 * kMicrosecond))});
    }
  } else if (mig == 2) {
    s.faults.push_back(
        {.kind = FaultKind::kDrainShard, .shard = original(), .at_op = op_point()});
  }
  if (rng.below(3) == 0) {
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = original(),
                        .at_op = op_point(),
                        .delay = static_cast<Duration>(rng.below(100 * kMicrosecond))});
    if (rng.below(3) == 0) {
      s.swat_members = 3;
      s.faults.push_back({.kind = FaultKind::kKillSwatMember, .index = 0,
                          .at_op = op_point(),
                          .delay = 1500 * kMillisecond + rng.below(kSecond)});
    }
  }
  if (rng.below(4) == 0) {
    s.faults.push_back({.kind = FaultKind::kSuppressHeartbeats, .shard = original(),
                        .at_op = op_point(), .duration = kSecond + rng.below(3 * kSecond)});
  }
  if (s.leaf_reads && rng.below(2) == 0) {
    s.faults.push_back({.kind = FaultKind::kTornLeafReads, .at_op = 0,
                        .duration = 120 * kSecond,
                        .percent = 20 + static_cast<std::uint32_t>(rng.below(60))});
  }
  return s;
}

// --- txn: transactions over one-sided lock words (section 11) ---------------

/// Three clients each run a closed loop of multi-key transactions across
/// two shards with a 128-word lock arena.
Schedule transactional(std::string name, proto::TxnMode mode = proto::TxnMode::kNoWait) {
  Schedule s;
  s.name = std::move(name);
  s.family = "txn";
  s.driver = Driver::kTxn;
  s.server_nodes = s.shards = 2;
  s.clients = 3;
  s.txn_lock_words = 128;
  s.txn_mode = mode;
  s.ops = 8;
  return s;
}

std::vector<Schedule> txn_scripted() {
  std::vector<Schedule> out;
  for (const proto::TxnMode mode : {proto::TxnMode::kNoWait, proto::TxnMode::kWaitDie}) {
    const std::string suffix = mode == proto::TxnMode::kWaitDie ? "-wait-die" : "-no-wait";
    // Fault-free multi-shard baseline: every txn commits, nothing leaks.
    out.push_back(transactional("txn-baseline" + suffix, mode));
    {
      // Hot-key contention: the abort-order discipline under fire.
      Schedule s = transactional("txn-contention" + suffix, mode);
      s.clients = 4;
      s.keys_per_txn = 3;
      s.hot_keys = 8;
      s.txn_lock_words = 8;  // word collisions guaranteed
      out.push_back(std::move(s));
    }
    {
      // The headline chaos: the primary dies between lock-acquire and
      // unlock, while commits are on the wire. Acked txns must survive the
      // promotion whole; every lock word the corpse held dies with it.
      Schedule s = transactional("txn-kill-mid-commit" + suffix, mode);
      s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = 0, .at_op = 8,
                          .delay = 40 * kMicrosecond});
      out.push_back(std::move(s));
    }
  }
  {
    // SWAT leadership gap overlapping the primary kill: the death event
    // pends ~2s until member 1 takes over; txns stall, then roll forward.
    Schedule s = transactional("txn-kill-mid-commit-swat-gap");
    s.swat_members = 3;
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = 0, .at_op = 8,
                        .delay = 40 * kMicrosecond});
    s.faults.push_back({.kind = FaultKind::kKillSwatMember, .index = 0, .at_op = 8,
                        .delay = 1900 * kMillisecond});
    out.push_back(std::move(s));
  }
  {
    // A replica dies with group commit barriers outstanding: the primary
    // must quarantine the corpse and still ack -- never wedge a commit.
    Schedule s = transactional("txn-kill-secondary-mid-commit");
    s.replicas = 2;
    s.faults.push_back({.kind = FaultKind::kKillSecondary, .index = 1, .at_op = 8,
                        .delay = 20 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // A dropped lock CAS: the verb never executes, the initiator sees a
    // flush and must re-post (finding the word still free).
    Schedule s = transactional("txn-drop-lock-cas");
    s.faults.push_back({.kind = FaultKind::kDropAtomic, .shard = 0, .at_op = 6});
    out.push_back(std::move(s));
  }
  {
    // A torn lock CAS: the verb executes but the completion flushes, so
    // the client holds a lock it cannot confirm. The maybe-held set must
    // treat old == own-word as acquired on retry and release it on abort.
    Schedule s = transactional("txn-tear-lock-cas");
    s.faults.push_back({.kind = FaultKind::kTearAtomic, .shard = 0, .at_op = 6});
    out.push_back(std::move(s));
  }
  {
    // An atomic fault landing late in a txn's life -- on the unlock path.
    // The release loop must retry through a fresh connection until the
    // word is confirmed clear; a leaked word fails the lock-leak check.
    Schedule s = transactional("txn-drop-unlock-cas");
    s.faults.push_back({.kind = FaultKind::kDropAtomic, .shard = 0, .at_op = 6,
                        .delay = 300 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // The shared mux QP carrying all lock + commit traffic dies abruptly.
    Schedule s = transactional("txn-mux-channel-kill");
    s.mux = true;
    s.faults.push_back({.kind = FaultKind::kKillMuxChannel, .shard = 0, .at_op = 8,
                        .delay = 30 * kMicrosecond});
    out.push_back(std::move(s));
  }
  {
    // Heartbeat suppression past the session timeout: the primary fences
    // itself; in-flight txns re-lock against the promoted arena.
    Schedule s = transactional("txn-heartbeat-fence");
    s.faults.push_back({.kind = FaultKind::kSuppressHeartbeats, .shard = 0, .at_op = 6,
                        .duration = 3 * kSecond});
    out.push_back(std::move(s));
  }
  {
    // A live migration overlapping the workload: the epoch fence rejects
    // commits stamped before the bump and txns re-resolve onto the new
    // ring -- mid-migration, a group may even split across more shards.
    Schedule s = transactional("txn-migrate-mid-txn");
    s.ops = 10;
    s.faults.push_back({.kind = FaultKind::kAddShard, .at_op = 6});
    out.push_back(std::move(s));
  }
  return out;
}

Schedule txn_random(std::uint64_t seed) {
  Xoshiro256 rng(seed * 0xD6E8FEB86659FD93ULL + 0x8CB92BA72F3D8DD7ULL);
  Schedule s = transactional("txn-random-" + std::to_string(seed));
  s.txn_mode = rng.below(2) == 0 ? proto::TxnMode::kNoWait : proto::TxnMode::kWaitDie;
  s.clients = 2 + static_cast<int>(rng.below(3));
  s.ops = 6 + static_cast<std::uint32_t>(rng.below(7));
  s.keys_per_txn = 2 + static_cast<std::uint32_t>(rng.below(4));
  s.server_nodes = s.shards = 1 + static_cast<int>(rng.below(3));
  s.mux = rng.below(3) == 0;
  const std::uint32_t total = static_cast<std::uint32_t>(s.clients) * s.ops;
  auto txn_point = [&] { return static_cast<std::uint32_t>(rng.below(total)); };
  auto shard = [&] {
    return static_cast<ShardId>(rng.below(static_cast<std::uint64_t>(s.shards)));
  };

  // Safety rules mirroring the failover families: a live replica must
  // always remain, so secondary kills force two replicas and only kill #1.
  const bool kill_secondary = rng.below(4) == 0;
  s.replicas = kill_secondary ? 2 : 1 + static_cast<int>(rng.below(2));
  const bool kill_primary = rng.below(2) == 0;
  const bool kill_swat = kill_primary && rng.below(3) == 0;

  if (rng.below(3) == 0) {
    // Contention run: shrink the key universe and the lock arena.
    s.hot_keys = 6 + static_cast<std::uint32_t>(rng.below(8));
    s.keys_per_txn = std::min(s.keys_per_txn, s.hot_keys);
    s.txn_lock_words = 8 + static_cast<std::uint32_t>(rng.below(16));
  }
  // Zero to two lock-arena atomic faults in every schedule.
  const int atomics = static_cast<int>(rng.below(3));
  for (int i = 0; i < atomics; ++i) {
    s.faults.push_back(
        {.kind = rng.below(2) == 0 ? FaultKind::kTearAtomic : FaultKind::kDropAtomic,
         .shard = shard(), .at_op = txn_point(),
         .delay = static_cast<Duration>(rng.below(400 * kMicrosecond))});
  }
  if (kill_secondary) {
    s.faults.push_back({.kind = FaultKind::kKillSecondary, .shard = shard(), .index = 1,
                        .at_op = txn_point(),
                        .delay = static_cast<Duration>(rng.below(50 * kMicrosecond))});
  }
  if (kill_primary) {
    s.faults.push_back({.kind = FaultKind::kKillPrimary, .shard = shard(),
                        .at_op = txn_point(),
                        .delay = static_cast<Duration>(rng.below(100 * kMicrosecond))});
  }
  if (kill_swat) {
    s.swat_members = 3;
    s.faults.push_back({.kind = FaultKind::kKillSwatMember, .index = 0, .at_op = txn_point(),
                        .delay = 1500 * kMillisecond + rng.below(kSecond)});
  }
  if (s.mux && rng.below(3) == 0) {
    s.faults.push_back({.kind = FaultKind::kKillMuxChannel, .shard = shard(),
                        .at_op = txn_point(),
                        .delay = static_cast<Duration>(rng.below(50 * kMicrosecond))});
  }
  if (rng.below(4) == 0) {
    s.faults.push_back({.kind = FaultKind::kSuppressHeartbeats, .shard = shard(),
                        .at_op = txn_point(), .duration = kSecond + rng.below(3 * kSecond)});
  }
  return s;
}

}  // namespace

std::vector<Schedule> scripted(Family family) {
  switch (family) {
    case Family::kChaos: return chaos_scripted();
    case Family::kMigration: return migration_scripted();
    case Family::kFailover: return failover_scripted();
    case Family::kHotKey: return hotkey_scripted();
    case Family::kScan: return scan_scripted();
    case Family::kTxn: return txn_scripted();
  }
  return {};
}

const Schedule& scripted(Family family, const std::string& name) {
  static const std::array<std::vector<Schedule>, 6> all = {
      scripted(Family::kChaos),   scripted(Family::kMigration), scripted(Family::kFailover),
      scripted(Family::kHotKey),  scripted(Family::kScan),      scripted(Family::kTxn)};
  for (const Schedule& s : all[static_cast<std::size_t>(family)]) {
    if (s.name == name) return s;
  }
  throw std::out_of_range("no scripted chaos schedule named " + name);
}

Schedule random(Family family, std::uint64_t seed) {
  switch (family) {
    case Family::kChaos: return chaos_random(seed);
    case Family::kMigration: return migration_random(seed);
    case Family::kFailover: return failover_random(seed);
    case Family::kHotKey: return hotkey_random(seed);
    case Family::kScan: return scan_random(seed);
    case Family::kTxn: return txn_random(seed);
  }
  return {};
}

Schedule lattice(unsigned features, std::uint64_t seed) {
  Xoshiro256 rng(seed * 0x9E6C63D0676A9A99ULL + features);
  Schedule s = skewed("lattice-" + std::to_string(features) + "-" + std::to_string(seed),
                      "lattice");
  s.mux = (features & kFeatureMux) != 0;
  s.ordered_index = (features & kFeatureOrderedIndex) != 0;
  s.hotkey = (features & kFeatureHotKey) != 0;
  s.txn_lock_words = (features & kFeatureTxnLocks) != 0 ? 64 : 0;
  s.fast_failover = (features & kFeatureFastFailover) != 0;
  s.small_table = true;
  s.ops = 100;
  s.write_every = 4 + static_cast<std::uint32_t>(rng.below(8));
  const std::uint32_t total = static_cast<std::uint32_t>(s.clients) * s.ops;

  // The wire fault lands anywhere; the kill lands mid-workload so reads and
  // writes straddle the promotion. Revocation faults only have a verb to
  // spoil when the agreement plane is on.
  static constexpr FaultKind kWire[] = {
      FaultKind::kTearRecordWrite, FaultKind::kDropRecordWrite, FaultKind::kTearAckWrite,
      FaultKind::kDropAckWrite,    FaultKind::kTearRevocation,  FaultKind::kDropRevocation};
  const std::uint64_t kinds = s.fast_failover ? 6 : 4;
  s.faults.push_back({.kind = kWire[rng.below(kinds)],
                      .at_op = static_cast<std::uint32_t>(rng.below(total)),
                      .torn_bytes = 8 + static_cast<std::uint32_t>(rng.below(40))});
  s.faults.push_back({.kind = FaultKind::kKillPrimary,
                      .at_op = total / 4 + static_cast<std::uint32_t>(rng.below(total / 2)),
                      .delay = static_cast<Duration>(rng.below(50 * kMicrosecond))});
  aim_at_hot_shard(s);
  return s;
}

}  // namespace hydra::chaos
