// The chaos engine (DESIGN.md section 7): one schedule type, one fault
// applier and one history checker for every resilience family.
//
// A Schedule names a cluster shape, the feature flags under test, one of
// four workload drivers and a list of faults fired at op-indexed points of
// that workload. Runner::run builds a fresh HydraCluster, drives the
// workload while the faults fire, lets failover and migration settle, and
// checks the recorded invoke/complete history plus the settled cluster
// against every invariant the families need: nothing wedges, acked writes
// stay readable, no stale read, scans ascend with no lost key and no
// phantom, transactions are all-or-nothing with no leaked lock, at most one
// primary per epoch, the fast-failover gap bound, the replication factor
// restored, migrations commit, and a probe PUT succeeds.
//
// Everything flows from (schedule, seed) through hydra::sim's virtual clock,
// so a run is reproducible byte-for-byte: the report's history string is
// identical across runs with the same inputs, with or without an
// observability plane attached.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "proto/messages.hpp"
#include "replication/primary.hpp"

namespace hydra::obs {
class Plane;
}  // namespace hydra::obs

namespace hydra::chaos {

/// The one fault alphabet. Process, coordinator and migration faults act
/// when they fire; wire faults arm a one-shot verdict the matching fabric
/// hook consumes at the next verb against the target; torn leaf reads open
/// a window during which a share of one-sided leaf-page reads is garbled.
enum class FaultKind : std::uint8_t {
  kKillPrimary,         ///< crash the target shard's primary
  kKillSecondary,       ///< crash replica `index` (primary must self-discover)
  kKillSwatMember,      ///< crash SWAT member `index` (leadership-gap window)
  kKillMuxChannel,      ///< abruptly kill client node `index`'s shared mux QP
  kSuppressHeartbeats,  ///< mute the target's coordinator heartbeats
  kFailApply,           ///< replica `index` fails its next applies (rollback)
  kAddShard,            ///< start a live expansion; the new shard is the subject
  kDrainShard,          ///< start draining the target; it is the subject
  kTearRecordWrite,     ///< next record-ring RDMA write commits a prefix
  kDropRecordWrite,     ///< next record-ring RDMA write commits nothing
  kTearAckWrite,        ///< next ack RDMA write commits a prefix
  kDropAckWrite,        ///< next ack RDMA write commits nothing
  kTearAtomic,          ///< next lock-arena atomic executes but flushes
  kDropAtomic,          ///< next lock-arena atomic never executes
  kTearRevocation,      ///< next `index` rkey revocations apply, confirms lost
  kDropRevocation,      ///< next `index` rkey revocations are lost entirely
  kTornLeafReads,       ///< tear `percent`% of leaf-page reads for `duration`
};

[[nodiscard]] const char* to_string(FaultKind kind) noexcept;

/// Which shard a fault aims at, resolved when it fires (wire faults: when
/// they are consumed). A fault whose target does not exist then is skipped.
enum class Target : std::uint8_t {
  kShard,        ///< Fault::shard
  kHotKeyOwner,  ///< the shard owning the hot-key driver's hottest key
  kSubject,      ///< the shard the run's live migration adds or drains
};

struct Fault {
  FaultKind kind = FaultKind::kKillPrimary;
  Target target = Target::kShard;
  ShardId shard = 0;
  /// Secondary / SWAT member / client node index; the replica kFailApply
  /// poisons; the number of revocations a revocation fault spoils (min 1).
  int index = 0;
  /// Fires `delay` of virtual time after the workload issues operation
  /// `at_op` -- op-indexed so schedules compose with any workload length,
  /// delayed so kills land mid-operation rather than between operations.
  std::uint32_t at_op = 0;
  Duration delay = 0;
  Duration duration = 0;         ///< suppression length / torn-read window
  std::uint32_t torn_bytes = 8;  ///< committed prefix of a torn write
  std::uint32_t percent = 50;    ///< share of leaf reads torn
};

/// The workload drivers. Each issues closed-loop operations, fires the
/// schedule's faults at its issue points and records every invoke and
/// completion into the run's history.
enum class Driver : std::uint8_t {
  kKv,      ///< one client PUTs unique keys, optionally chasing each with a readback GET
  kHotKey,  ///< skewed GETs from every client over a small universe; client 0 also PUTs
  kScan,    ///< client 0 inserts fresh keys while client 1 issues range scans
  kTxn,     ///< every client runs multi-key transactions over one-sided lock words
};

struct Schedule {
  std::string name;
  /// Namespaces the kv driver's keys ("<family>-<i>") and the probe key.
  std::string family = "chaos";
  Driver driver = Driver::kKv;

  // --- cluster shape (one shard per server node, one client node) ---------
  int server_nodes = 2;
  int shards = 1;
  int clients = 1;
  int replicas = 1;
  int swat_members = 2;
  replication::ReplicationMode mode = replication::ReplicationMode::kLogRelaxed;
  /// 4k hash buckets per store; false keeps the store default (64k). The
  /// bucket count fixes iteration order, which shapes migration copies.
  bool small_table = true;

  // --- feature flags ------------------------------------------------------
  bool mux = false;            ///< QP-multiplexed connections (DESIGN.md §10)
  bool ordered_index = false;  ///< B+-tree index + range scans (§13)
  bool leaf_reads = true;      ///< one-sided leaf-page scan continuations
  bool hotkey = false;         ///< hot-key promotion plane (§12)
  std::uint32_t txn_lock_words = 0;  ///< per-shard lock arena (§11); 0 = none
  bool fast_failover = false;  ///< permission-revocation agreement (§14)
  /// False when the faults are designed to exhaust the revocation retry
  /// budget: the legacy path promotes and the <1 ms gap bound is waived.
  bool expect_fast = true;

  // --- workload -----------------------------------------------------------
  /// kv: PUTs; hot-key: ops per client; scan: inserts; txn: txns per client.
  std::uint32_t ops = 60;
  std::uint32_t preload = 0;      ///< kv: keys direct-loaded before the clock
  bool readback = false;          ///< kv: chase each PUT with a GET of a settled key
  std::uint32_t universe = 8;     ///< hot-key: universe size (hk-0 .. hk-N-1)
  std::uint32_t hot_percent = 70; ///< hot-key: share of reads hitting hk-0
  std::uint32_t write_every = 0;  ///< hot-key: client 0 PUTs every N ops
  std::uint32_t scans = 80;       ///< scan: scan stream length
  /// scan: per-scan limit drawn in [1, max]; larger than shards x batch so
  /// scans need continuation rounds that straddle epoch bumps.
  std::uint32_t max_scan_limit = 48;
  proto::TxnMode txn_mode = proto::TxnMode::kNoWait;
  std::uint32_t keys_per_txn = 4;
  /// txn: 0 = disjoint keys (exact final-state check); > 0 = keys drawn from
  /// a universe this small (contention: values must trace to a writer).
  std::uint32_t hot_keys = 0;

  std::vector<Fault> faults;
};

/// The schedule families: scripted lists and seeded-random generators.
enum class Family : std::uint8_t {
  kChaos,      ///< failover plane under the kv driver (DESIGN.md §7)
  kMigration,  ///< live migration under kv PUT + readback (§9)
  kFailover,   ///< fast-failover agreement rounds (§14)
  kHotKey,     ///< hot-key promotion plane (§12)
  kScan,       ///< range scans across live migration (§13)
  kTxn,        ///< transactions across kills and wire faults (§11)
};

[[nodiscard]] std::vector<Schedule> scripted(Family family);
[[nodiscard]] Schedule random(Family family, std::uint64_t seed);
/// The scripted schedule of `family` named `name` (throws if none).
[[nodiscard]] const Schedule& scripted(Family family, const std::string& name);

/// Feature bits of the lattice sweep.
enum Feature : unsigned {
  kFeatureMux = 1U << 0,
  kFeatureOrderedIndex = 1U << 1,
  kFeatureHotKey = 1U << 2,
  kFeatureTxnLocks = 1U << 3,
  kFeatureFastFailover = 1U << 4,
  kFeatureAll = (1U << 5) - 1,
};

/// One point of the feature lattice: the skewed GET/PUT driver with the
/// `features` subset enabled, a primary kill plus one seeded wire fault.
[[nodiscard]] Schedule lattice(unsigned features, std::uint64_t seed);

struct Report {
  /// Deterministic textual log of everything that happened (ops, faults,
  /// probes, verdicts); byte-identical across runs of one (schedule, seed).
  std::string history;
  /// Human-readable invariant violations; empty means the run passed.
  std::vector<std::string> violations;

  // Workload.
  std::uint64_t acked = 0;         ///< writes (PUTs, transactions) completed kOk
  std::uint64_t failed = 0;        ///< writes completed with any other status
  std::uint64_t gets = 0;          ///< GETs issued
  std::uint64_t gets_acked = 0;
  std::uint64_t scans_acked = 0;
  std::uint64_t scan_entries = 0;  ///< entries across all acked scans
  std::uint64_t wedged = 0;        ///< operations whose callback never fired

  // Faults.
  std::uint64_t faults_fired = 0;    ///< applied (or armed) when they fired
  std::uint64_t faults_skipped = 0;  ///< target absent when they fired
  std::uint64_t wire_faults = 0;     ///< armed wire faults a verb consumed

  // Checker findings (each also listed in `violations`).
  std::uint64_t stale_reads = 0;
  std::uint64_t lost_keys = 0;
  std::uint64_t dup_keys = 0;
  std::uint64_t phantoms = 0;
  std::uint64_t lock_leaks = 0;

  // Failover.
  std::uint64_t failovers = 0;  ///< legacy + fast promotions
  /// Virtual time from the first primary kill to the failover completing.
  Duration recovery_time = 0;
  /// fast_failover only: first primary crash to its promotion, from traces.
  Duration failover_gap = 0;
  std::uint64_t fast_promotions = 0;
  std::uint64_t rounds_started = 0;
  std::uint64_t rounds_aborted = 0;
  std::uint64_t ballots_lost = 0;
  std::uint64_t revocations = 0;  ///< revoke verbs that applied at the owner

  // Migration.
  bool migration_completed = false;
  Duration migration_time = 0;  ///< add/drain call to commit
  std::uint64_t keys_moved = 0;
  std::uint64_t flow_restarts = 0;
  std::uint64_t forwarded = 0;            ///< dual-ownership catch-up records
  std::uint64_t epoch_invalidations = 0;  ///< cached pointers dropped by clients
  std::uint64_t epoch_before = 0;
  std::uint64_t epoch_after = 0;

  // Hot-key plane, summed over live shards / all clients post-settle.
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t replica_hits = 0;

  // Scans.
  std::uint64_t scan_restarts = 0;
  std::uint64_t scan_leaf_reads = 0;
  std::uint64_t scan_leaf_fallbacks = 0;
  std::uint64_t scan_token_rejects = 0;
  std::uint64_t torn_reads = 0;

  // Transactions.
  std::uint64_t conflicts = 0;  ///< lock CAS conflicts across all clients
  std::uint64_t died = 0;       ///< conflict aborts
  std::uint64_t waits = 0;      ///< WAIT_DIE older-waits retries
  std::uint64_t restarts = 0;
  std::uint64_t torn_atomics = 0;
  std::uint64_t dropped_atomics = 0;

  [[nodiscard]] bool passed() const noexcept { return violations.empty(); }
};

class Runner {
 public:
  /// Runs `schedule` against a fresh cluster; `seed` drives the workload's
  /// keys and values. `plane` (optional) attaches an observability plane;
  /// fast-failover runs attach an internal one when none is given, since
  /// their agreement invariants are read from traces.
  static Report run(const Schedule& schedule, std::uint64_t seed,
                    obs::Plane* plane = nullptr);
};

}  // namespace hydra::chaos
