// The chaos engine (DESIGN.md section 7): cluster set-up, the one fault
// applier, the four workload drivers, the drive/settle loop and the history
// checker. Schedules live in schedules.cpp.
#include "chaos/chaos.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "common/rng.hpp"
#include "hydradb/hydra_cluster.hpp"
#include "obs/plane.hpp"
#include "txn/txn.hpp"

namespace hydra::chaos {

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kKillPrimary: return "kill-primary";
    case FaultKind::kKillSecondary: return "kill-secondary";
    case FaultKind::kKillSwatMember: return "kill-swat-member";
    case FaultKind::kKillMuxChannel: return "kill-mux-channel";
    case FaultKind::kSuppressHeartbeats: return "suppress-heartbeats";
    case FaultKind::kFailApply: return "fail-apply";
    case FaultKind::kAddShard: return "add-shard";
    case FaultKind::kDrainShard: return "drain-shard";
    case FaultKind::kTearRecordWrite: return "tear-record-write";
    case FaultKind::kDropRecordWrite: return "drop-record-write";
    case FaultKind::kTearAckWrite: return "tear-ack-write";
    case FaultKind::kDropAckWrite: return "drop-ack-write";
    case FaultKind::kTearAtomic: return "tear-atomic";
    case FaultKind::kDropAtomic: return "drop-atomic";
    case FaultKind::kTearRevocation: return "tear-revocation";
    case FaultKind::kDropRevocation: return "drop-revocation";
    case FaultKind::kTornLeafReads: return "torn-leaf-reads";
  }
  return "unknown";
}

namespace {

/// Virtual time granted after the workload for failovers to finish: long
/// enough for the legacy session-timeout path (~2.45 s) plus retries.
constexpr Duration kSettle = 6 * kSecond;
/// Wedge detection: a workload that has not completed by this much virtual
/// time (or this many events) is stuck.
constexpr Time kWorkloadTimeLimit = 120 * kSecond;
constexpr std::uint64_t kWorkloadStepLimit = 40'000'000;

#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string hot_key(std::uint32_t idx) { return "hk-" + std::to_string(idx); }

/// Hot-key values carry their per-key version up front.
std::string versioned_value(std::uint32_t version, std::uint64_t salt) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "v%06u-%016llx", version,
                static_cast<unsigned long long>(salt));
  return buf;
}

/// Scan keys are zero-padded so lexicographic order == numeric order.
std::string scan_key(std::uint32_t idx) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "sk-%06u", idx);
  return buf;
}

std::string scan_value(std::uint32_t idx, std::uint64_t salt) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "sv%06u-%016llx", idx, static_cast<unsigned long long>(salt));
  return buf;
}

std::string status_name(Status st) { return std::string(to_string(st)); }

bool is_record(FaultKind k) {
  return k == FaultKind::kTearRecordWrite || k == FaultKind::kDropRecordWrite;
}
bool is_ack(FaultKind k) { return k == FaultKind::kTearAckWrite || k == FaultKind::kDropAckWrite; }
bool is_atomic(FaultKind k) { return k == FaultKind::kTearAtomic || k == FaultKind::kDropAtomic; }
bool is_revocation(FaultKind k) {
  return k == FaultKind::kTearRevocation || k == FaultKind::kDropRevocation;
}
bool tears(FaultKind k) {
  return k == FaultKind::kTearRecordWrite || k == FaultKind::kTearAckWrite ||
         k == FaultKind::kTearAtomic || k == FaultKind::kTearRevocation;
}

enum class OpType : std::uint8_t { kPut, kGet, kScan, kTxn };

const char* op_name(OpType t) {
  switch (t) {
    case OpType::kPut: return "put";
    case OpType::kGet: return "get";
    case OpType::kScan: return "scan";
    case OpType::kTxn: return "txn";
  }
  return "?";
}

/// One operation of the recorded history: its invocation and completion,
/// stamped with their positions in the run's event order.
struct Op {
  OpType type = OpType::kPut;
  std::uint32_t idx = 0;  ///< issue index: the clock faults fire on
  int client = 0;
  std::string key;         ///< PUT/GET key, SCAN start key
  std::string value;       ///< PUT payload, GET result
  std::uint32_t limit = 0;     ///< SCAN limit
  bool must_succeed = false;   ///< GET readback of a settled key
  std::vector<proto::TxnOp> txn;
  client::Client::ScanEntries entries;
  std::uint64_t invoked = 0;
  std::uint64_t completed = 0;
  bool done = false;
  Status status = Status::kTimeout;
};

/// A transaction lock-conflict decision reported by a TxnClient.
struct Conflict {
  std::uint64_t requester = 0;
  std::uint64_t holder = 0;
  bool died = false;
};

db::ClusterOptions cluster_options(const Schedule& s, obs::Plane* plane) {
  db::ClusterOptions o;
  o.server_nodes = s.server_nodes;
  o.shards_per_node = 1;
  o.total_shards = s.shards;
  o.client_nodes = 1;
  o.clients_per_node = s.clients;
  o.replicas = s.replicas;
  o.replication.mode = s.mode;
  o.enable_swat = true;
  o.swat_members = s.swat_members;
  o.mux_connections = s.mux;
  o.ordered_index = s.ordered_index;
  o.fast_failover = s.fast_failover;
  server::ShardConfig& shard = o.shard_template;
  shard.store.arena_bytes = 16 << 20;
  if (s.small_table) shard.store.min_buckets = 1 << 12;
  shard.txn_lock_words = s.txn_lock_words;
  if (s.hotkey) {
    // Short leases force frequent renewals -- the message-path traffic that
    // carries promotion sets to clients holding cached pointers.
    shard.store.min_lease = 20 * kMillisecond;
    shard.store.max_lease = 50 * kMillisecond;
    shard.hotkey_top_k = 4;
    shard.hotkey_tracker_capacity = 32;
    shard.hotkey_promote_min_hits = 3;
    // One-sided GETs complete in ~1.3us, so a whole schedule spans only a
    // few hundred microseconds; the scan must tick many times inside it.
    shard.hotkey_scan_interval = 25 * kMicrosecond;
  }
  o.client_template.scan_leaf_reads = s.leaf_reads;
  // Small batches force multi-round continuations: tokens live across
  // epoch bumps and leaf hints actually get consumed.
  if (s.ordered_index) o.client_template.scan_batch = 4;
  // Patient enough to ride through a failover, quick enough to retry often.
  o.client_template.request_timeout = 100 * kMillisecond;
  o.client_template.max_retries = 100;
  o.obs = plane;
  return o;
}

Schedule normalized(Schedule s) {
  s.clients = std::max(s.clients, 1);
  s.ops = std::max<std::uint32_t>(s.ops, 1);
  s.scans = std::max<std::uint32_t>(s.scans, 1);
  s.max_scan_limit = std::max<std::uint32_t>(s.max_scan_limit, 1);
  s.universe = std::max<std::uint32_t>(s.universe, 1);
  if (s.readback) s.preload = std::max<std::uint32_t>(s.preload, 1);
  if (s.hot_keys > 0) s.keys_per_txn = std::min(s.keys_per_txn, s.hot_keys);
  // Clamp fault points into the workload so every fault fires.
  const std::uint32_t clients = static_cast<std::uint32_t>(s.clients);
  const std::uint32_t issues = s.driver == Driver::kKv     ? s.ops
                               : s.driver == Driver::kScan ? s.ops + s.scans
                                                           : clients * s.ops;
  for (Fault& f : s.faults) f.at_op = std::min(f.at_op, issues - 1);
  return s;
}

class Run {
 public:
  Run(const Schedule& schedule, std::uint64_t seed, obs::Plane* plane)
      : plan_(normalized(schedule)),
        seed_(seed),
        local_plane_(plane == nullptr && plan_.fast_failover ? std::make_unique<obs::Plane>()
                                                             : nullptr),
        plane_(plane != nullptr ? plane : local_plane_.get()),
        cluster_(cluster_options(plan_, plane_)),
        sched_(cluster_.scheduler()),
        read_rng_(seed * 0x2545F4914F6CDD1DULL + 1),
        torn_rng_(seed ^ 0xC2B2AE3D27D4EB4FULL) {}
  // The fabric hooks and scheduled events capture `this`.
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  Report execute();

 private:
  // --- history ------------------------------------------------------------
  std::size_t invoke(OpType type, std::uint32_t idx, int client, std::string key,
                     std::string value = {});
  void complete(std::size_t id, Status st);
  void violation(std::string text);
  void preload(std::string key, std::string value);

  // --- faults -------------------------------------------------------------
  void install_hooks();
  void fire(std::uint32_t idx);
  void apply(const Fault& f);
  [[nodiscard]] ShardId resolve(const Fault& f) const;
  [[nodiscard]] replication::SecondaryShard* secondary(ShardId s, int idx);
  [[nodiscard]] bool write_matches(const Fault& f, NodeId dst, std::uint32_t rkey,
                                   std::uint32_t size);
  void consume(std::vector<Fault>::iterator it, std::uint32_t rkey);

  // --- workload drivers ---------------------------------------------------
  void start();
  void issue_kv(std::uint32_t i);
  void readback(std::uint32_t i);
  void issue_hotkey(int c);
  void issue_insert();
  void issue_scan();
  void issue_txn(int c);

  // --- drive / settle -----------------------------------------------------
  void drive();
  void note_progress();

  // --- checker ------------------------------------------------------------
  void check();
  void check_history();
  void check_scan(const std::string& context, const std::string& start_key,
                  std::uint32_t limit, const std::set<std::string>& acked,
                  const client::Client::ScanEntries& entries);
  void audit_keys();
  void audit_txn();
  void check_cluster();
  void check_migration();
  void check_fast_failover();
  /// Position of `value` in `key`'s write order (preload first), or -1.
  [[nodiscard]] long version(const std::string& key, const std::string& value) const;

  Schedule plan_;
  std::uint64_t seed_;
  Report report_;
  std::string& hist_ = report_.history;
  std::unique_ptr<obs::Plane> local_plane_;
  obs::Plane* plane_;
  db::HydraCluster cluster_;
  sim::Scheduler& sched_;

  // History.
  std::deque<Op> ops_;
  std::vector<std::pair<std::string, std::string>> preloads_;
  std::vector<Conflict> conflicts_;
  std::uint64_t events_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t expected_ = 0;
  /// Every value written per key, in write order (preload first).
  std::map<std::string, std::vector<std::string>> writes_;
  /// Newest acked version per key over the whole run.
  std::map<std::string, long> final_acked_;

  // Faults.
  std::vector<Fault> armed_;  ///< one-shot wire faults awaiting a verb
  std::uint32_t torn_percent_ = 0;
  std::set<ShardId> killed_;
  bool killed_secondary_ = false;
  Time first_kill_ = 0;
  bool recovery_pending_ = false;
  std::uint64_t failovers_at_kill_ = 0;
  std::optional<obs::TraceQuery> recovery_q_;
  bool migration_tried_ = false;
  bool migration_started_ = false;
  bool migration_settled_ = false;
  Time migrate_called_at_ = 0;
  ShardId subject_ = kInvalidShard;
  bool add_ = false;

  // Drivers.
  Xoshiro256 read_rng_;
  Xoshiro256 torn_rng_;
  std::uint32_t issued_ = 0;
  std::vector<std::uint32_t> cursor_;
  std::vector<std::string> values_;
  std::vector<std::size_t> kv_puts_;
  struct PlannedOp {
    bool put = false;
    std::string key;
    std::string value;
  };
  std::vector<PlannedOp> planned_;
  std::vector<std::uint32_t> insert_order_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> scan_plan_;  ///< start, limit
  std::uint32_t put_cursor_ = 0;
  std::uint32_t scan_cursor_ = 0;
  std::vector<std::vector<proto::TxnOp>> txn_plan_;
  // Declared after the cluster: the TxnClient actors die before it.
  std::vector<std::unique_ptr<txn::TxnClient>> txn_clients_;
};

Report Run::execute() {
  appendf(hist_,
          "run schedule=%s seed=%llu shards=%d replicas=%d mode=%s swat=%d clients=%d ops=%u "
          "mux=%d index=%d hotkey=%d lock-words=%u fast=%d\n",
          plan_.name.c_str(), static_cast<unsigned long long>(seed_), plan_.shards,
          plan_.replicas,
          plan_.mode == replication::ReplicationMode::kStrictAck ? "strict" : "relaxed",
          plan_.swat_members, plan_.clients, plan_.ops, plan_.mux ? 1 : 0,
          plan_.ordered_index ? 1 : 0, plan_.hotkey ? 1 : 0, plan_.txn_lock_words,
          plan_.fast_failover ? 1 : 0);
  report_.epoch_before = cluster_.routing_epoch();
  install_hooks();
  start();
  drive();
  check();
  appendf(hist_,
          "end t=%llu acked=%llu failed=%llu wedged=%llu failovers=%llu faults=%llu "
          "skipped=%llu wire=%llu violations=%zu\n",
          static_cast<unsigned long long>(sched_.now()),
          static_cast<unsigned long long>(report_.acked),
          static_cast<unsigned long long>(report_.failed),
          static_cast<unsigned long long>(report_.wedged),
          static_cast<unsigned long long>(report_.failovers),
          static_cast<unsigned long long>(report_.faults_fired),
          static_cast<unsigned long long>(report_.faults_skipped),
          static_cast<unsigned long long>(report_.wire_faults), report_.violations.size());
  return std::move(report_);
}

// --- history -----------------------------------------------------------------

std::size_t Run::invoke(OpType type, std::uint32_t idx, int client, std::string key,
                        std::string value) {
  Op& op = ops_.emplace_back();
  op.type = type;
  op.idx = idx;
  op.client = client;
  op.key = std::move(key);
  op.value = std::move(value);
  op.invoked = ++events_;
  appendf(hist_, "t=%llu op=%u client=%d %s %s\n",
          static_cast<unsigned long long>(sched_.now()), idx, client, op_name(type),
          op.key.c_str());
  return ops_.size() - 1;
}

void Run::complete(std::size_t id, Status st) {
  Op& op = ops_[id];
  op.done = true;
  op.status = st;
  op.completed = ++events_;
  ++completed_;
  appendf(hist_, "t=%llu op=%u client=%d %s-done status=%s",
          static_cast<unsigned long long>(sched_.now()), op.idx, op.client,
          op_name(op.type), status_name(st).c_str());
  if (op.type == OpType::kScan) appendf(hist_, " entries=%zu", op.entries.size());
  hist_ += '\n';
}

void Run::violation(std::string text) {
  hist_ += "violation: " + text + "\n";
  report_.violations.push_back(std::move(text));
}

void Run::preload(std::string key, std::string value) {
  cluster_.direct_load(key, value);
  preloads_.emplace_back(std::move(key), std::move(value));
}

// --- faults ------------------------------------------------------------------

void Run::install_hooks() {
  fabric::Fabric& fab = cluster_.fabric();
  fab.set_write_fault_hook([this](NodeId, NodeId dst, const fabric::RemoteAddr& addr,
                                  std::uint32_t size) {
    fabric::WriteFault wf;
    for (auto it = armed_.begin(); it != armed_.end(); ++it) {
      if (!write_matches(*it, dst, addr.rkey, size)) continue;
      wf.kind = tears(it->kind) ? fabric::WriteFault::Kind::kTorn
                                : fabric::WriteFault::Kind::kDrop;
      wf.torn_bytes = std::min(it->torn_bytes, size);
      consume(it, addr.rkey);
      break;
    }
    return wf;
  });
  fab.set_revoke_fault_hook([this](NodeId, std::uint32_t rkey) {
    fabric::RevokeFault rf;
    const auto it = std::find_if(armed_.begin(), armed_.end(),
                                 [](const Fault& f) { return is_revocation(f.kind); });
    if (it != armed_.end()) {
      rf.kind = tears(it->kind) ? fabric::RevokeFault::Kind::kTorn
                                : fabric::RevokeFault::Kind::kDrop;
      consume(it, rkey);
    }
    return rf;
  });
  fab.set_read_fault_hook([this](NodeId, NodeId, const fabric::RemoteAddr& addr,
                                 std::uint32_t size) {
    fabric::ReadFault fault;
    if (torn_percent_ == 0) return fault;
    // Only leaf-page mirror reads are torn: match the target rkey against
    // every live shard's mirror registration.
    bool leaf = false;
    for (ShardId s = 0; s < static_cast<ShardId>(cluster_.shard_count()); ++s) {
      auto* sh = cluster_.shard(s);
      if (sh != nullptr && sh->alive() && sh->scan_leaf_rkey() != 0 &&
          sh->scan_leaf_rkey() == addr.rkey) {
        leaf = true;
        break;
      }
    }
    if (leaf && torn_rng_.below(100) < torn_percent_) {
      fault.kind = fabric::ReadFault::Kind::kTorn;
      // Tear inside the header/early payload: the read spans the whole
      // mirror slot, so tearing the slack past the encoded prefix would
      // corrupt nothing.
      fault.torn_bytes =
          static_cast<std::uint32_t>(torn_rng_.below(std::min<std::uint32_t>(size, 64)));
    }
    return fault;
  });
}

void Run::consume(std::vector<Fault>::iterator it, std::uint32_t rkey) {
  appendf(hist_, "t=%llu wire-fault %s rkey=%u\n", static_cast<unsigned long long>(sched_.now()),
          to_string(it->kind), rkey);
  ++report_.wire_faults;
  armed_.erase(it);
}

bool Run::write_matches(const Fault& f, NodeId dst, std::uint32_t rkey, std::uint32_t size) {
  const ShardId s = resolve(f);
  if (s >= cluster_.shard_count()) return false;
  if (is_record(f.kind)) {
    for (auto* sec : cluster_.secondaries_of(s)) {
      if (sec->alive() && dst == sec->node() && sec->ring_mr() != nullptr &&
          sec->ring_mr()->rkey() == rkey) {
        return true;
      }
    }
    return false;
  }
  auto* sh = cluster_.shard(s);
  if (sh == nullptr) return false;
  if (is_ack(f.kind)) {
    if (sh->replicator() == nullptr || dst != sh->node()) return false;
    const auto& rkeys = sh->replicator()->ack_rkeys();
    return std::find(rkeys.begin(), rkeys.end(), rkey) != rkeys.end();
  }
  return is_atomic(f.kind) && size == 8 && sh->lock_rkey() != 0 && sh->lock_rkey() == rkey;
}

ShardId Run::resolve(const Fault& f) const {
  switch (f.target) {
    case Target::kShard: return f.shard;
    case Target::kHotKeyOwner: return cluster_.owner_of(hot_key(0));
    case Target::kSubject: return subject_;
  }
  return kInvalidShard;
}

replication::SecondaryShard* Run::secondary(ShardId s, int idx) {
  if (s >= cluster_.shard_count() || idx < 0) return nullptr;
  const auto secs = cluster_.secondaries_of(s);
  return static_cast<std::size_t>(idx) < secs.size() ? secs[static_cast<std::size_t>(idx)]
                                                     : nullptr;
}

void Run::fire(std::uint32_t idx) {
  for (const Fault& f : plan_.faults) {
    if (f.at_op != idx) continue;
    const Fault* fp = &f;
    sched_.after(f.delay, [this, fp] { apply(*fp); });
  }
}

void Run::apply(const Fault& f) {
  const Time now = sched_.now();
  const ShardId s = resolve(f);
  const bool exists = s < cluster_.shard_count();
  server::Shard* sh = exists ? cluster_.shard(s) : nullptr;
  bool applied = true;
  switch (f.kind) {
    case FaultKind::kKillPrimary:
      applied = sh != nullptr && sh->alive();
      if (applied) {
        if (first_kill_ == 0) {
          first_kill_ = now;
          recovery_pending_ = true;
          failovers_at_kill_ = cluster_.failovers();
        }
        killed_.insert(s);
        cluster_.crash_primary(s);
      }
      break;
    case FaultKind::kKillSecondary: {
      auto* sec = secondary(s, f.index);
      applied = sec != nullptr && sec->alive();
      if (applied) {
        killed_secondary_ = true;
        cluster_.crash_secondary(s, f.index);
      }
      break;
    }
    case FaultKind::kKillSwatMember:
      cluster_.kill_swat_member(f.index);
      break;
    case FaultKind::kKillMuxChannel:
      // Abrupt shared-QP death: the mux layer is NOT notified. Writes in
      // flight flush; endpoints discover the corpse by timeout.
      applied = exists && cluster_.kill_mux_channel(f.index, s);
      break;
    case FaultKind::kSuppressHeartbeats:
      applied = exists;
      if (applied) cluster_.suppress_heartbeats(s, f.duration);
      break;
    case FaultKind::kFailApply: {
      auto* sec = secondary(s, f.index);
      applied = sec != nullptr && sec->alive();
      if (applied) sec->fail_next(3);
      break;
    }
    case FaultKind::kAddShard:
    case FaultKind::kDrainShard: {
      migration_tried_ = true;
      migrate_called_at_ = now;
      add_ = f.kind == FaultKind::kAddShard;
      const ShardId subject = add_ ? cluster_.add_shard_live() : s;
      applied = add_ ? subject != kInvalidShard : exists && cluster_.drain_shard_live(s);
      if (applied) {
        subject_ = subject;
        migration_started_ = true;
      }
      break;
    }
    case FaultKind::kTornLeafReads:
      torn_percent_ = std::min<std::uint32_t>(f.percent, 100);
      sched_.after(f.duration, [this] { torn_percent_ = 0; });
      break;
    default: {  // wire faults: arm one-shot verdicts for the fabric hooks
      const int copies = is_revocation(f.kind) ? std::max(1, f.index) : 1;
      for (int i = 0; i < copies; ++i) armed_.push_back(f);
      break;
    }
  }
  const ShardId shown = f.kind == FaultKind::kAddShard ? subject_ : s;
  appendf(hist_, "t=%llu fault %s shard=%d idx=%d %s\n", static_cast<unsigned long long>(now),
          to_string(f.kind), shown == kInvalidShard ? -1 : static_cast<int>(shown), f.index,
          applied ? "applied" : "skipped");
  if (!applied) {
    ++report_.faults_skipped;
    return;
  }
  ++report_.faults_fired;
  if (plane_ != nullptr) {
    plane_->trace(now, kInvalidNode, obs::TraceKind::kFaultInjected, shown,
                  static_cast<std::uint64_t>(f.kind),
                  static_cast<std::uint64_t>(static_cast<unsigned>(f.index)));
  }
}

// --- workload drivers --------------------------------------------------------

void Run::start() {
  const auto clients = static_cast<std::size_t>(plan_.clients);
  Xoshiro256 value_rng(seed_);
  switch (plan_.driver) {
    case Driver::kKv: {
      // Unique keys, each written exactly once, make acked-readable exact:
      // an acked key must read back as precisely its seeded value.
      Xoshiro256 preload_rng(seed_ ^ 0xA5A5A5A5A5A5A5A5ULL);
      for (std::uint32_t i = 0; i < plan_.preload; ++i) {
        preload("pre-" + std::to_string(i), "p-" + hex16(preload_rng()));
      }
      for (std::uint32_t i = 0; i < plan_.ops; ++i) values_.push_back("v-" + hex16(value_rng()));
      expected_ = plan_.ops * (plan_.readback ? 2ULL : 1ULL);
      issue_kv(0);
      return;
    }
    case Driver::kHotKey: {
      // Every value is a pure function of (seed, key, version), so the
      // stale-read check is exact under any interleaving.
      std::map<std::string, std::uint32_t> planned_version;
      for (std::size_t c = 0; c < clients; ++c) {
        for (std::uint32_t t = 0; t < plan_.ops; ++t) {
          PlannedOp op;
          std::uint32_t key_idx = 0;
          if (plan_.universe > 1 && value_rng.below(100) >= plan_.hot_percent) {
            key_idx = 1 + static_cast<std::uint32_t>(value_rng.below(plan_.universe - 1));
          }
          op.key = hot_key(key_idx);
          if (c == 0 && plan_.write_every > 0 && (t + 1) % plan_.write_every == 0) {
            // Writes bias to the hot key too: invalidation must race reads.
            if (value_rng.below(3) != 0) op.key = hot_key(0);
            op.put = true;
            op.value = versioned_value(++planned_version[op.key], value_rng());
          }
          planned_.push_back(std::move(op));
        }
      }
      // Preload the universe at version 0 so cold GETs hit.
      for (std::uint32_t k = 0; k < plan_.universe; ++k) {
        preload(hot_key(k), versioned_value(0, value_rng()));
      }
      expected_ = clients * plan_.ops;
      cursor_.assign(clients, 0);
      for (std::size_t c = 0; c < clients; ++c) issue_hotkey(static_cast<int>(c));
      return;
    }
    case Driver::kScan: {
      // Client 0 inserts every key once in a seeded shuffle so the key space
      // fills non-monotonically; client 1 scans from seeded start points.
      for (std::uint32_t i = 0; i < plan_.ops; ++i) insert_order_.push_back(i);
      for (std::uint32_t i = plan_.ops; i > 1; --i) {
        std::swap(insert_order_[i - 1], insert_order_[value_rng.below(i)]);
      }
      for (std::uint32_t i = 0; i < plan_.ops; ++i) values_.push_back(scan_value(i, value_rng()));
      for (std::uint32_t i = 0; i < plan_.scans; ++i) {
        const auto start = static_cast<std::uint32_t>(value_rng.below(plan_.ops));
        const auto limit = 1 + static_cast<std::uint32_t>(value_rng.below(plan_.max_scan_limit));
        scan_plan_.emplace_back(start, limit);
      }
      expected_ = plan_.ops + plan_.scans;
      issue_insert();
      issue_scan();
      return;
    }
    case Driver::kTxn: {
      // Disjoint mode: txn (c, t) writes fresh keys, reads one and removes
      // one key of the client's previous txn; hot mode draws keys from a
      // tiny shared universe. Values are unique per txn either way.
      for (std::size_t c = 0; c < clients; ++c) {
        for (std::uint32_t t = 0; t < plan_.ops; ++t) {
          std::vector<proto::TxnOp> txn;
          std::set<std::string> used;
          const std::string prefix = "txn-c" + std::to_string(c) + "-t";
          for (std::uint32_t k = 0; k < plan_.keys_per_txn; ++k) {
            std::string key;
            if (plan_.hot_keys > 0) {
              do {
                key = "hot-" + std::to_string(value_rng.below(plan_.hot_keys));
              } while (!used.insert(key).second);
            } else {
              key = prefix + std::to_string(t) + "-k" + std::to_string(k);
            }
            txn.push_back({proto::MsgType::kPut, std::move(key), "v-" + hex16(value_rng())});
          }
          if (plan_.hot_keys == 0 && t > 0 && plan_.keys_per_txn >= 2) {
            const std::string prev = prefix + std::to_string(t - 1) + "-k";
            txn.push_back({proto::MsgType::kGet, prev + "0", ""});
            txn.push_back({proto::MsgType::kRemove, prev + "1", ""});
          }
          txn_plan_.push_back(std::move(txn));
        }
      }
      txn::TxnOptions topts;
      topts.mode = plan_.txn_mode;
      topts.max_restarts = 400;
      topts.restart_backoff = 2 * kMillisecond;
      topts.wait_retries = 400;
      topts.wait_backoff = 50 * kMicrosecond;
      topts.wire_retries = 64;
      auto ids = txn::TxnClient::make_id_source();
      for (std::size_t c = 0; c < clients; ++c) {
        auto d = std::make_unique<txn::TxnClient>(sched_, *cluster_.clients()[c], topts, ids);
        d->set_resolver([this](std::uint64_t h) { return cluster_.ring().owner(h); });
        d->set_epoch_source([this] { return cluster_.routing_epoch(); });
        d->set_conflict_probe([this](std::uint64_t requester, std::uint64_t holder, bool died) {
          conflicts_.push_back({requester, holder, died});
        });
        txn_clients_.push_back(std::move(d));
      }
      expected_ = clients * plan_.ops;
      cursor_.assign(clients, 0);
      for (std::size_t c = 0; c < clients; ++c) issue_txn(static_cast<int>(c));
      return;
    }
  }
}

// Closed loops: each operation is issued by its predecessor's completion
// callback, and every callback fires inside drive(), so capturing `this`
// is safe (and cycle-free).
void Run::issue_kv(std::uint32_t i) {
  if (i >= plan_.ops) return;
  fire(i);
  const std::size_t id =
      invoke(OpType::kPut, i, 0, plan_.family + "-" + std::to_string(i), values_[i]);
  kv_puts_.push_back(id);
  cluster_.clients().front()->put(ops_[id].key, ops_[id].value, [this, i, id](Status st) {
    complete(id, st);
    if (plan_.readback) {
      readback(i);
    } else {
      issue_kv(i + 1);
    }
  });
}

// The readback GET of an already-settled key (preloaded, or an earlier PUT
// that was acked) exercises cached remote pointers across epoch bumps: it
// must return exactly the written value even while ownership is in motion.
void Run::readback(std::uint32_t i) {
  std::uint64_t pick = read_rng_.below(plan_.preload + i);
  std::string key;
  if (pick >= plan_.preload) {
    const std::size_t j = pick - plan_.preload;
    const Op& put = ops_[kv_puts_[j]];
    if (put.status == Status::kOk) {
      key = put.key;
    } else {
      pick = j % plan_.preload;  // deterministic fallback
    }
  }
  if (key.empty()) key = preloads_[static_cast<std::size_t>(pick)].first;
  const std::size_t id = invoke(OpType::kGet, i, 0, std::move(key));
  ops_[id].must_succeed = true;
  cluster_.clients().front()->get(ops_[id].key, [this, i, id](Status st, std::string_view v) {
    ops_[id].value = v;
    complete(id, st);
    issue_kv(i + 1);
  });
}

void Run::issue_hotkey(int c) {
  const auto ci = static_cast<std::size_t>(c);
  const std::uint32_t t = cursor_[ci];
  if (t >= plan_.ops) return;
  ++cursor_[ci];
  const PlannedOp& p = planned_[ci * plan_.ops + t];
  const std::uint32_t idx = issued_++;
  fire(idx);
  client::Client* cl = cluster_.clients()[ci];
  const std::size_t id = invoke(p.put ? OpType::kPut : OpType::kGet, idx, c, p.key, p.value);
  if (p.put) {
    cl->put(p.key, p.value, [this, id, c](Status st) {
      complete(id, st);
      issue_hotkey(c);
    });
  } else {
    cl->get(p.key, [this, id, c](Status st, std::string_view v) {
      ops_[id].value = v;
      complete(id, st);
      issue_hotkey(c);
    });
  }
}

void Run::issue_insert() {
  if (put_cursor_ >= plan_.ops) return;
  const std::uint32_t key_idx = insert_order_[put_cursor_++];
  const std::uint32_t idx = issued_++;
  fire(idx);
  const std::size_t id = invoke(OpType::kPut, idx, 0, scan_key(key_idx), values_[key_idx]);
  cluster_.clients()[0]->put(ops_[id].key, ops_[id].value, [this, id](Status st) {
    complete(id, st);
    issue_insert();
  });
}

void Run::issue_scan() {
  if (scan_cursor_ >= plan_.scans) return;
  const auto [start, limit] = scan_plan_[scan_cursor_++];
  const std::uint32_t idx = issued_++;
  fire(idx);
  const std::size_t id = invoke(OpType::kScan, idx, 1, scan_key(start));
  ops_[id].limit = limit;
  cluster_.clients()[1]->scan(ops_[id].key, limit,
                              [this, id](Status st, client::Client::ScanEntries entries) {
                                ops_[id].entries = std::move(entries);
                                complete(id, st);
                                issue_scan();
                              });
}

void Run::issue_txn(int c) {
  const auto ci = static_cast<std::size_t>(c);
  const std::uint32_t t = cursor_[ci];
  if (t >= plan_.ops) return;
  ++cursor_[ci];
  const std::uint32_t idx = issued_++;
  fire(idx);
  const std::size_t id = invoke(OpType::kTxn, idx, c, {});
  ops_[id].txn = txn_plan_[ci * plan_.ops + t];
  txn_clients_[ci]->run(ops_[id].txn, [this, id, c](Status st, std::vector<std::string>) {
    complete(id, st);
    issue_txn(c);
  });
}

// --- drive / settle ----------------------------------------------------------

void Run::drive() {
  std::uint64_t steps = 0;
  while (completed_ < expected_ && sched_.now() < kWorkloadTimeLimit &&
         steps < kWorkloadStepLimit) {
    if (!sched_.step()) break;
    ++steps;
    note_progress();
  }
  // Let a migration finish (it may still be copying or waiting out a
  // promotion), then settle failovers, retransmits and respawns.
  while (migration_started_ && cluster_.migration_active() &&
         sched_.now() < kWorkloadTimeLimit && sched_.step()) {
    note_progress();
  }
  const Time settle_end = sched_.now() + kSettle;
  while (sched_.now() < settle_end && sched_.step()) note_progress();
  torn_percent_ = 0;
}

void Run::note_progress() {
  const Time now = sched_.now();
  if (recovery_pending_ && cluster_.failovers() > failovers_at_kill_) {
    recovery_pending_ = false;
    report_.recovery_time = now - first_kill_;
    // The per-node trace rings are bounded, and a promoted primary pulses
    // every pulse_interval: by settle's end its traffic has evicted the
    // suspicion/revocation/ballot records the agreement checks need, so
    // they read this snapshot, taken within one step of the promotion.
    if (plan_.fast_failover) recovery_q_.emplace(plane_->query());
    appendf(hist_, "t=%llu failover-complete recovery=%llu\n",
            static_cast<unsigned long long>(now),
            static_cast<unsigned long long>(report_.recovery_time));
  }
  if (migration_started_ && !migration_settled_ && !cluster_.migration_active()) {
    migration_settled_ = true;
    report_.migration_time = now - migrate_called_at_;
    appendf(hist_, "t=%llu migrate-settled duration=%llu\n",
            static_cast<unsigned long long>(now),
            static_cast<unsigned long long>(report_.migration_time));
  }
}

// --- checker -----------------------------------------------------------------

void Run::check() {
  for (const Op& op : ops_) {
    if (op.done) continue;
    ++report_.wedged;
    violation("op " + std::to_string(op.idx) + " client " + std::to_string(op.client) + " " +
              op_name(op.type) + " " + op.key + " never completed: callback wedged");
  }

  // Cluster counters are read before the probe and the audits, whose reads
  // can move them (a stale cached pointer counts an epoch invalidation);
  // the per-shard and per-client plane counters after, audit traffic
  // included.
  report_.failovers = cluster_.failovers();
  if (auto* ff = cluster_.fast_failover()) {
    report_.fast_promotions = ff->promotions();
    report_.rounds_started = ff->rounds_started();
    report_.rounds_aborted = ff->rounds_aborted();
    report_.ballots_lost = ff->ballots_lost();
  }
  report_.revocations = cluster_.fabric().stats().rkey_revocations;
  const db::MigrationStats& mstats = cluster_.migration_stats();
  report_.migration_completed = mstats.completed > 0;
  report_.keys_moved = mstats.keys_moved;
  report_.flow_restarts = mstats.flow_restarts;
  report_.forwarded = mstats.forwarded;
  report_.epoch_after = cluster_.routing_epoch();
  for (const auto* cl : cluster_.clients()) {
    report_.epoch_invalidations += cl->stats().epoch_invalidations;
  }

  const Status probe = cluster_.put(plan_.family + "-probe", "alive");
  appendf(hist_, "t=%llu probe-put status=%s\n", static_cast<unsigned long long>(sched_.now()),
          status_name(probe).c_str());
  if (probe != Status::kOk) {
    violation("probe PUT failed: cluster not writable after faults (" + status_name(probe) +
              ")");
  }

  check_history();  // also fills writes_ and final_acked_ for the audits
  switch (plan_.driver) {
    case Driver::kKv:
    case Driver::kHotKey: audit_keys(); break;
    case Driver::kScan: {
      // A final full-range scan sees every acked key exactly once.
      std::vector<std::pair<std::string, std::string>> out;
      const std::uint32_t limit = plan_.ops + 8;
      const Status st = cluster_.scan(scan_key(0), limit, &out, 1);
      appendf(hist_, "t=%llu audit-scan status=%s entries=%zu\n",
              static_cast<unsigned long long>(sched_.now()), status_name(st).c_str(),
              out.size());
      std::set<std::string> acked;
      for (const auto& [key, v] : final_acked_) acked.insert(key);
      if (st != Status::kOk) {
        violation("final audit scan failed: " + status_name(st));
      } else {
        check_scan("audit", scan_key(0), limit, acked, out);
      }
      break;
    }
    case Driver::kTxn: audit_txn(); break;
  }

  for (ShardId s = 0; s < static_cast<ShardId>(cluster_.shard_count()); ++s) {
    auto* sh = cluster_.shard(s);
    if (sh == nullptr || !sh->alive()) continue;
    report_.promotions += sh->stats().hotkey_promotions;
    report_.demotions += sh->stats().hotkey_demotions;
    report_.invalidations += sh->stats().hotkey_invalidations;
    report_.scan_token_rejects += sh->stats().scan_token_rejects;
  }
  for (const auto* cl : cluster_.clients()) {
    report_.replica_hits += cl->stats().replica_hits;
    report_.scan_restarts += cl->stats().scan_restarts;
    report_.scan_leaf_reads += cl->stats().scan_leaf_reads;
    report_.scan_leaf_fallbacks += cl->stats().scan_leaf_fallbacks;
  }
  for (const auto& d : txn_clients_) {
    report_.conflicts += d->stats().conflicts;
    report_.died += d->stats().died;
    report_.waits += d->stats().waits;
    report_.restarts += d->stats().restarts;
  }
  const fabric::FabricStats& fstats = cluster_.fabric().stats();
  report_.torn_reads = fstats.torn_reads;
  report_.torn_atomics = fstats.torn_atomics;
  report_.dropped_atomics = fstats.dropped_atomics;

  check_cluster();
}

long Run::version(const std::string& key, const std::string& value) const {
  const auto it = writes_.find(key);
  if (it == writes_.end()) return -1;
  const auto pos = std::find(it->second.begin(), it->second.end(), value);
  return pos == it->second.end() ? -1 : pos - it->second.begin();
}

// Walks the history in event order. A GET's floor is the newest version of
// its key acked before the GET was invoked; a scan is checked against the
// keys acked before it was invoked.
void Run::check_history() {
  for (const auto& [key, value] : preloads_) {
    writes_[key].push_back(value);
    final_acked_[key] = 0;
  }
  for (const Op& op : ops_) {
    if (op.type == OpType::kPut) writes_[op.key].push_back(op.value);
  }
  std::vector<std::pair<std::size_t, bool>> order(events_ + 1);  // (op, is completion)
  for (std::size_t id = 0; id < ops_.size(); ++id) {
    order[ops_[id].invoked] = {id, false};
    if (ops_[id].done) order[ops_[id].completed] = {id, true};
  }
  std::map<std::string, long> acked = final_acked_;
  std::set<std::string> acked_keys;
  for (std::uint64_t seq = 1; seq <= events_; ++seq) {
    const auto [id, completion] = order[seq];
    const Op& op = ops_[id];
    const bool ok = op.status == Status::kOk;
    if (!completion) {
      report_.gets += op.type == OpType::kGet ? 1 : 0;
      if (op.type == OpType::kScan && op.done && ok) {
        check_scan("scan at op " + std::to_string(op.idx), op.key, op.limit, acked_keys,
                   op.entries);
      }
      if (op.type != OpType::kGet || !op.done) continue;
      const auto floor_it = acked.find(op.key);
      const long floor = floor_it == acked.end() ? -1 : floor_it->second;
      if (!ok) {
        if (op.must_succeed) {
          violation("readback of " + op.key + " at op " + std::to_string(op.idx) +
                    " failed: " + status_name(op.status));
        }
        continue;
      }
      const long got = version(op.key, op.value);
      if (got < floor) {
        ++report_.stale_reads;
        violation("stale read: op " + std::to_string(op.idx) + " key " + op.key +
                  (got < 0 ? " returned a value never written to it"
                           : " returned v" + std::to_string(got)) +
                  " but v" + std::to_string(floor) + " was acked before the GET was issued");
      }
      continue;
    }
    switch (op.type) {
      case OpType::kPut:
      case OpType::kTxn:
        if (ok) {
          ++report_.acked;
        } else {
          ++report_.failed;
        }
        if (op.type == OpType::kPut && ok) {
          long& newest = acked.try_emplace(op.key, -1).first->second;
          newest = std::max(newest, version(op.key, op.value));
          final_acked_[op.key] = newest;
          acked_keys.insert(op.key);
        }
        break;
      case OpType::kGet:
        report_.gets_acked += ok ? 1 : 0;
        break;
      case OpType::kScan:
        if (ok) {
          ++report_.scans_acked;
          report_.scan_entries += op.entries.size();
        }
        break;
    }
  }
}

void Run::check_scan(const std::string& context, const std::string& start_key,
                     std::uint32_t limit, const std::set<std::string>& acked,
                     const client::Client::ScanEntries& entries) {
  // Strictly ascending: covers both ordering and duplicates.
  for (std::size_t i = 1; i < entries.size(); ++i) {
    if (entries[i - 1].first < entries[i].first) continue;
    ++report_.dup_keys;
    violation(context + ": result not strictly ascending at [" + std::to_string(i) + "]: \"" +
              entries[i - 1].first + "\" then \"" + entries[i].first + "\"");
  }
  // No phantoms: every entry is a (key, value) the workload wrote.
  for (const auto& [k, v] : entries) {
    const auto it = writes_.find(k);
    if (it == writes_.end()) {
      ++report_.phantoms;
      violation(context + ": phantom key \"" + k + "\"");
      continue;
    }
    if (k < start_key) {
      ++report_.lost_keys;
      violation(context + ": key \"" + k + "\" precedes scan start \"" + start_key + "\"");
    }
    if (std::find(it->second.begin(), it->second.end(), v) == it->second.end()) {
      ++report_.phantoms;
      violation(context + ": key \"" + k + "\" carries foreign value \"" + v + "\"");
    }
  }
  // No lost key inside the observed window. When the limit was filled the
  // window closes at the last returned key; otherwise the scan claims to
  // have exhausted the range.
  const bool window_closed = entries.size() >= limit;
  const std::string upper = window_closed && !entries.empty() ? entries.back().first : "";
  for (auto it = acked.lower_bound(start_key); it != acked.end(); ++it) {
    if (window_closed && *it > upper) break;
    const bool present = std::binary_search(
        entries.begin(), entries.end(), std::make_pair(*it, std::string()),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    if (present) continue;
    ++report_.lost_keys;
    violation(context + ": acked key \"" + *it + "\" missing from scan window [\"" +
              start_key + "\", " + (window_closed ? "\"" + upper + "\"" : "inf") + "]");
  }
}

// Post-settle, every preloaded or acked key reads back at least as new as
// its newest acked write; after a migration each is held by exactly its
// owner's store.
void Run::audit_keys() {
  std::vector<std::string> keys;
  std::set<std::string> seen;
  for (const auto& [key, value] : preloads_) {
    if (seen.insert(key).second) keys.push_back(key);
  }
  for (const Op& op : ops_) {
    if (op.type == OpType::kPut && op.done && op.status == Status::kOk &&
        seen.insert(op.key).second) {
      keys.push_back(op.key);
    }
  }
  const bool ownership = migration_started_ && plan_.driver == Driver::kKv;
  const std::vector<ShardId> members = cluster_.ring().shards();
  std::uint64_t subject_owned = 0;
  for (const std::string& key : keys) {
    const long want = final_acked_[key];
    Status st = Status::kOk;
    const auto got = cluster_.get(key, 0, &st);
    if (!got.has_value()) {
      violation("key " + key + " unreadable after settle: " + status_name(st));
      continue;
    }
    const long have = version(key, *got);
    if (have < want) {
      ++report_.stale_reads;
      violation("post-settle read of " + key +
                (have < 0 ? " returned a value never written to it"
                          : " returned v" + std::to_string(have)) +
                " < acked v" + std::to_string(want));
      continue;
    }
    if (!ownership) continue;
    const std::string& value = writes_[key][static_cast<std::size_t>(want)];
    const ShardId owner = cluster_.owner_of(key);
    if (owner == subject_) ++subject_owned;
    for (const ShardId member : members) {
      auto* sh = cluster_.shard(member);
      if (sh == nullptr || !sh->alive()) {
        violation("ring member " + std::to_string(member) + " not serving");
        break;
      }
      auto view = sh->store().get(key, sched_.now(), /*grant_lease=*/false);
      if (member == owner) {
        if (!view.ok()) {
          violation("key " + key + " lost: owner " + std::to_string(owner) +
                    " does not hold it");
        } else if (view.value().value != value) {
          violation("key " + key + " stale in owner store");
        }
      } else if (view.ok()) {
        violation("key " + key + " double-owned: shard " + std::to_string(member) +
                  " still holds it (owner " + std::to_string(owner) + ")");
      }
    }
  }
  if (ownership && report_.migration_completed && add_ && subject_owned == 0) {
    violation("added shard owns none of the dataset");
  }
}

// Acked transactions are all-or-nothing. Disjoint mode replays each
// client's acked txns serially for the exact final state (keys any
// non-acked txn touched are excluded: their fate is legitimately unknown);
// contention mode requires every surviving value to trace to a writer.
void Run::audit_txn() {
  if (plan_.hot_keys == 0) {
    std::map<std::string, std::pair<bool, std::string>> expected;  // present?, value
    std::set<std::string> tainted;
    for (const Op& op : ops_) {
      for (const proto::TxnOp& t : op.txn) {
        if (t.op == proto::MsgType::kGet) continue;
        if (!op.done || op.status != Status::kOk) {
          tainted.insert(t.key);
        } else {
          expected[t.key] = {t.op != proto::MsgType::kRemove, t.value};
        }
      }
    }
    for (const auto& [key, want] : expected) {
      if (tainted.count(key) != 0) continue;
      Status st = Status::kOk;
      const auto got = cluster_.get(key, 0, &st);
      if (!want.first) {
        if (got.has_value()) violation("acked remove of " + key + " resurfaced a value");
      } else if (!got.has_value()) {
        violation("acked key " + key + " unreadable after faults: " + status_name(st));
      } else if (*got != want.second) {
        violation("acked key " + key + " returned a different value");
      }
    }
    return;
  }
  std::map<std::string, std::set<std::string>> writers;
  for (const Op& op : ops_) {
    for (const proto::TxnOp& t : op.txn) {
      if (t.op == proto::MsgType::kPut) writers[t.key].insert(t.value);
    }
  }
  for (const auto& [key, values] : writers) {
    const auto got = cluster_.get(key, 0, nullptr);
    if (got.has_value() && values.count(*got) == 0) {
      violation("hot key " + key + " holds a value no transaction wrote");
    }
  }
}

void Run::check_cluster() {
  const auto shards = static_cast<ShardId>(cluster_.shard_count());
  // No lock word leaked held.
  for (ShardId s = 0; s < shards; ++s) {
    auto* sh = cluster_.shard(s);
    if (sh == nullptr || !sh->alive()) continue;
    for (std::uint32_t w = 0; w < sh->lock_word_count(); ++w) {
      const std::uint64_t word = sh->lock_word(w);
      if (word == 0) continue;
      ++report_.lock_leaks;
      violation("shard " + std::to_string(s) + " lock word " + std::to_string(w) +
                " leaked held by txn " + std::to_string(word & ~txn::kLockHeldBit));
    }
  }
  // Abort-order discipline: NO_WAIT never waits; WAIT_DIE never kills an
  // older transaction on behalf of a younger holder.
  const bool no_wait = plan_.txn_mode == proto::TxnMode::kNoWait;
  if (std::any_of(conflicts_.begin(), conflicts_.end(), [&](const Conflict& c) {
        return no_wait ? !c.died : c.died && c.requester < c.holder;
      })) {
    violation(no_wait ? "NO_WAIT transaction waited on a conflict"
                      : "WAIT_DIE killed an older transaction for a younger holder");
  }
  // Every killed primary was replaced (or its shard retired).
  for (const ShardId s : killed_) {
    auto* sh = cluster_.shard(s);
    if (!cluster_.shard_retired(s) && (sh == nullptr || !sh->alive())) {
      violation("primary of shard " + std::to_string(s) +
                " was killed and no promotion ever completed");
    }
  }
  // Replication factor restored. A secondary killed after the last
  // promotion legitimately degrades it (only promotions respawn), so the
  // check applies only where the factor must come back exactly.
  if (report_.failovers > 0 && !killed_secondary_) {
    for (ShardId s = 0; s < shards; ++s) {
      if (cluster_.shard_retired(s)) continue;
      std::size_t live = 0;
      for (auto* sec : cluster_.secondaries_of(s)) live += sec->alive() ? 1 : 0;
      if (live != static_cast<std::size_t>(plan_.replicas)) {
        violation("shard " + std::to_string(s) + " replication factor " +
                  std::to_string(live) + " != " + std::to_string(plan_.replicas) +
                  " after promotion");
      }
    }
  }
  if (migration_tried_) check_migration();
  if (plan_.fast_failover) check_fast_failover();
}

void Run::check_migration() {
  if (!migration_started_) {
    violation("migration never started (add/drain call rejected)");
    return;
  }
  if (!report_.migration_completed) violation("migration never committed");
  if (cluster_.migration_stats().aborted > 0) violation("migration aborted");
  if (!report_.migration_completed) return;
  if (report_.epoch_after <= report_.epoch_before) {
    violation("commit did not bump the routing epoch");
  }
  if (add_ && !cluster_.ring().contains(subject_)) {
    violation("added shard missing from the committed ring");
  }
  if (!add_ && (cluster_.ring().contains(subject_) || !cluster_.shard_retired(subject_))) {
    violation("drained shard still present after commit");
  }
}

void Run::check_fast_failover() {
  const obs::TraceQuery q = plane_->query();
  // At most one primary per epoch, part 1: routing epochs publish strictly
  // monotonically (a regressing or duplicated epoch means two promotions
  // fought over the same slot).
  bool first_epoch = true;
  std::uint64_t prev_epoch = 0;
  for (const obs::TraceRecord& r : q.of(obs::TraceKind::kEpochPublished)) {
    if (!first_epoch && r.a <= prev_epoch) {
      violation("routing epoch published non-monotonically: " + std::to_string(r.a) +
                " after " + std::to_string(prev_epoch));
    }
    prev_epoch = r.a;
    first_epoch = false;
  }
  // Part 2: outside a migration's commit (published under its subject),
  // each shard's epochs pair 1:1 with its promotions -- a double promotion
  // would publish two epochs for one death.
  for (ShardId s = 0; s < static_cast<ShardId>(cluster_.shard_count()); ++s) {
    if (s == subject_) continue;
    const std::size_t promos = q.count(obs::TraceKind::kPromotionDone, s);
    const std::size_t epochs = q.count(obs::TraceKind::kEpochPublished, s);
    if (promos != epochs) {
      violation("shard " + std::to_string(s) + " published " + std::to_string(epochs) +
                " epochs for " + std::to_string(promos) + " promotions");
    }
  }

  const obs::TraceQuery& fq = recovery_q_.has_value() ? *recovery_q_ : q;
  // The failover gap: first primary crash to that shard's promotion.
  if (!killed_.empty()) {
    std::optional<obs::TraceRecord> crash;
    for (const obs::TraceRecord& r : fq.of(obs::TraceKind::kCrashInjected)) {
      if (r.a == 0) {  // a=0: primary crash
        crash = r;
        break;
      }
    }
    const std::optional<obs::TraceRecord> done =
        crash.has_value()
            ? fq.first_after(obs::TraceKind::kPromotionDone, crash->seq, crash->shard)
            : std::nullopt;
    if (crash.has_value() && done.has_value()) {
      report_.failover_gap = done->at - crash->at;
      appendf(hist_, "failover-gap=%llu\n",
              static_cast<unsigned long long>(report_.failover_gap));
      if (plan_.expect_fast && report_.failover_gap > kMillisecond) {
        violation("fast failover gap " + std::to_string(report_.failover_gap) +
                  "ns exceeds the 1ms bound");
      }
    } else if (!done.has_value()) {
      violation("primary crash has no matching promotion trace");
    }
  }
  // Protocol ordering whenever the fast path actually promoted:
  // suspicion -> revocation -> ballot -> promotion.
  if (report_.fast_promotions > 0) {
    if (!fq.happened_before(obs::TraceKind::kSuspicionRaised, obs::TraceKind::kRkeyRevoked)) {
      violation("revocation preceded suspicion");
    }
    if (!fq.happened_before(obs::TraceKind::kRkeyRevoked, obs::TraceKind::kBallotCast)) {
      violation("ballot preceded revocation");
    }
    if (!fq.happened_before(obs::TraceKind::kBallotCast, obs::TraceKind::kPromotionDone)) {
      violation("promotion preceded ballot");
    }
    if (fq.count(obs::TraceKind::kBallotWon) == 0) {
      violation("fast promotion without a winning ballot");
    }
  }
}

}  // namespace

Report Runner::run(const Schedule& schedule, std::uint64_t seed, obs::Plane* plane) {
  return Run(schedule, seed, plane).execute();
}

}  // namespace hydra::chaos
