// End-to-end benchmark program for HydraDB.
//
// Runs ONE named workload in this (fresh) process against a
// db::HydraCluster, driving every simulated client closed-loop (window 1)
// through a pre-generated YCSB trace, and prints one JSON object with:
//
//  * "virtual": metrics on the simulator's clock (latencies, virtual
//    throughput, per-layer counts and ratios). Bit-identical for a seed.
//  * "host": metrics on the host clock (set-up time, ops per host second,
//    RSS, host time per event / per client call).
//  * "attempted", "failed", "violations": op accounting and output checks.
//
// Every value the benchmark writes encodes (record, writer, phase, seq), so
// each GET, scan entry and the final audit can be checked against the exact
// write that produced it. Only public API and public stats structs are used.
//
// Usage: hydra_perfbench --workload NAME [--seed N] [--seconds S]
//            [--setups K] [--trace 0|1] [--spans FILE]
//            [--small] [--ops-per-client N]   (self-test sizes)
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/keygen.hpp"
#include "common/rng.hpp"
#include "hydradb/hydra_cluster.hpp"
#include "ycsb/workload.hpp"

namespace {

using namespace hydra;
using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nominal time of speed_probe_s(), about its time on an idle core of the
/// machine the workloads were sized on. It only scales host_ops_per_s.
constexpr double kProbeRefS = 1e-3;

/// Host-speed probe: a fixed integer kernel of four independent streams of
/// L2-resident table lookups and multiplies; returns its host seconds. On a
/// shared machine other tenants' load on the same cores and caches slows it
/// down together with the simulator (both by tens of percent), so its time
/// rescales each measured window to a host of fixed speed.
double speed_probe_s() {
  constexpr std::uint32_t kMask = (1u << 16) - 1;  // 256 KiB table
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(kMask + 1);
    std::uint64_t r = 0x9E3779B97F4A7C15ULL;
    for (auto& x : t) x = static_cast<std::uint32_t>(r = mix64(r));
    return t;
  }();
  const Clock::time_point t0 = Clock::now();
  std::uint32_t a = 1, b = 2, c = 3, d = 4;
  for (int i = 0; i < 80'000; ++i) {
    a = table[a & kMask] ^ (a * 2654435761u);
    b = table[b & kMask] ^ (b * 2246822519u);
    c = table[c & kMask] ^ (c * 3266489917u);
    d = table[d & kMask] ^ (d * 668265263u);
    if (((a ^ b) & 1) != 0) {
      c += d;
    } else {
      d += a;
    }
  }
  asm volatile("" : : "r"(a), "r"(b), "r"(c), "r"(d));  // keep the loop
  return secs_since(t0);
}

// ------------------------------------------------------------- workloads

struct Workload {
  std::string name;
  db::ClusterOptions opts;
  ycsb::WorkloadSpec spec;
  /// Measured-phase ops per host second this workload was sized at on a
  /// 4-core x86 VM; --seconds times this fixes the (deterministic) op count.
  double sized_ops_per_s = 0.0;
  std::uint64_t warmup_per_client = 0;
};

db::ClusterOptions base_options() {
  db::ClusterOptions o;
  o.server_nodes = 1;  // the paper testbed: 1 server x 4 shards, 5 x 10 clients
  o.shards_per_node = 4;
  o.client_nodes = 5;
  o.clients_per_node = 10;
  o.enable_swat = false;  // no faults are injected; HA stays idle
  o.client_template.window = 1;
  return o;
}

bool make_workload(const std::string& name, std::uint64_t seed, bool small, Workload* w) {
  w->name = name;
  w->opts = base_options();
  ycsb::WorkloadSpec& s = w->spec;
  s.seed = seed;
  if (name == "read-zipf") {
    s.get_fraction = 0.9;
    s.distribution = Distribution::kZipfian;
    s.record_count = 50'000;  // fits the 65,536-entry per-node pointer cache
    w->sized_ops_per_s = 240'000;
    w->warmup_per_client = 2'000;
  } else if (name == "write-rep") {
    w->opts.server_nodes = 3;
    w->opts.shards_per_node = 2;
    w->opts.replicas = 2;
    w->opts.replication.mode = replication::ReplicationMode::kStrictAck;
    s.get_fraction = 0.5;
    s.distribution = Distribution::kUniform;
    s.record_count = 100'000;  // larger than the pointer cache
    s.value_len = 1024;
    // Leases (paper: 1-64 s) and the reclaimer cadence are scaled to the
    // run's ~1 s of virtual time so reclamation reaches steady state, as it
    // does in the paper's minutes-long runs; at paper leases no retired
    // 1 KiB version would be freed within the run and the arenas overflow.
    w->opts.shard_template.store.min_lease = 5 * kMillisecond;
    w->opts.shard_template.store.max_lease = 40 * kMillisecond;
    w->opts.shard_template.gc_min_interval = 1 * kMillisecond;
    w->sized_ops_per_s = 72'000;
    w->warmup_per_client = 1'000;
  } else if (name == "scan-e") {
    w->opts.ordered_index = true;
    // Batches smaller than most scans force continuations, which is the
    // traffic the one-sided leaf-read path serves (as in bench_ycsb_e).
    w->opts.client_template.scan_batch = 8;
    s.get_fraction = 0.0;  // the non-scan 5% are updates
    s.scan_fraction = 0.95;
    s.max_scan_len = 64;
    s.distribution = Distribution::kZipfian;
    s.record_count = 100'000;
    w->sized_ops_per_s = 12'000;
    w->warmup_per_client = 200;
  } else if (name == "mux-fanin") {
    w->opts.mux_connections = true;
    w->opts.client_nodes = 16;
    w->opts.clients_per_node = 64;
    s.get_fraction = 0.95;
    s.distribution = Distribution::kUniform;
    s.record_count = 100'000;
    w->sized_ops_per_s = 120'000;
    w->warmup_per_client = 100;
  } else {
    return false;
  }
  if (small) {  // determinism self-test size: same wiring, far less data
    s.record_count = 2'000;
    w->opts.clients_per_node = std::min(w->opts.clients_per_node, 4);
    w->warmup_per_client = 20;
  }
  return true;
}

// ------------------------------------------------------------ value codec

/// Who wrote a value: phase 0 is the load (writer 0, seq 0); phases 1 and 2
/// are warm-up and measured, writer = client index + 1, seq = trace index.
struct WriteId {
  std::uint32_t record = 0;
  std::uint32_t writer = 0;
  std::uint32_t phase = 0;
  std::uint32_t seq = 0;
};

constexpr std::size_t kHeaderBytes = 16;

std::string encode_value(const WriteId& id, std::size_t len) {
  std::string v(std::max(len, kHeaderBytes), '\0');
  const std::uint32_t h[4] = {id.record, id.writer, id.phase, id.seq};
  std::memcpy(v.data(), h, kHeaderBytes);
  SplitMix64 sm(mix64((std::uint64_t{id.record} << 32 | id.writer) ^
                      (std::uint64_t{id.phase} << 32 | id.seq) * 0x9E3779B97F4A7C15ULL));
  for (std::size_t i = kHeaderBytes; i < v.size(); i += 8) {
    const std::uint64_t word = sm.next();
    std::memcpy(v.data() + i, &word, std::min<std::size_t>(8, v.size() - i));
  }
  return v;
}

bool decode_value(std::string_view v, std::size_t len, WriteId* id) {
  if (v.size() != std::max(len, kHeaderBytes)) return false;
  std::uint32_t h[4];
  std::memcpy(h, v.data(), kHeaderBytes);
  *id = WriteId{h[0], h[1], h[2], h[3]};
  return encode_value(*id, len) == v;
}

/// Parses "user%012llu" (padded to key_len) back to its record index.
bool parse_key(std::string_view key, std::uint64_t* record) {
  if (key.size() < 16 || key.substr(0, 4) != "user") return false;
  std::uint64_t r = 0;
  for (std::size_t i = 4; i < 16; ++i) {
    if (key[i] < '0' || key[i] > '9') return false;
    r = r * 10 + static_cast<std::uint64_t>(key[i] - '0');
  }
  *record = r;
  return true;
}

// ---------------------------------------------------------------- metrics

enum OpKind { kRead = 0, kUpdate = 1 };  // "read" = GET, or SCAN on scan-e

double percentile_us(std::vector<Duration>& v, double q) {
  // Exact nearest-rank percentile over the sorted samples.
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::max<std::size_t>(rank, 1) - 1]) / 1000.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double rss_mib(const char* field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(f, line)) {
    if (line.compare(0, n, field) == 0) return std::strtod(line.c_str() + n, nullptr) / 1024.0;
  }
  return 0.0;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Cluster-wide counters the benchmark differences across the measured phase.
struct Counters {
  fabric::FabricStats fabric;
  std::vector<std::uint64_t> node_tx_ops;
  std::uint64_t tx_bytes = 0;
  std::vector<server::ShardStats> shards;
  std::uint64_t acks = 0, write_retries = 0, resends = 0, ack_probes = 0;
  client::NodeMuxStats mux;
  std::uint64_t store_gets = 0, store_misses = 0, oom = 0;
};

Counters snapshot(db::HydraCluster& c) {
  Counters k;
  k.fabric = c.fabric().stats();
  for (NodeId n : c.server_nodes()) k.node_tx_ops.push_back(c.fabric().node(n).nic().tx_ops);
  for (std::size_t n = 0; n < c.fabric().node_count(); ++n) {
    k.tx_bytes += c.fabric().node(static_cast<NodeId>(n)).nic().tx_bytes;
  }
  for (ShardId s = 0; s < c.shard_count(); ++s) {
    server::Shard* sh = c.shard(s);
    k.shards.push_back(sh->stats());
    if (auto* rep = sh->replicator()) {
      k.acks += rep->acks_received();
      k.write_retries += rep->write_retries();
      k.resends += rep->resends();
      k.ack_probes += rep->ack_probes();
    }
    const core::StoreStats& st = sh->store().stats();
    k.store_gets += st.gets;
    k.store_misses += st.get_misses;
    k.oom += st.oom_failures;
    for (auto* sec : c.secondaries_of(s)) k.oom += sec->store().stats().oom_failures;
  }
  for (int n = 0;; ++n) {
    client::NodeMux* m = c.node_mux(n);
    if (m == nullptr) break;
    k.mux.channels_opened += m->stats().channels_opened;
    k.mux.reclaimed_idle += m->stats().reclaimed_idle;
    k.mux.credit_waits += m->stats().credit_waits;
  }
  return k;
}

// ------------------------------------------------------------------ bench

struct Span {
  std::uint32_t client;
  std::uint32_t seq;
  std::uint8_t type;  // 0 GET, 1 UPDATE, 2 SCAN
  Time v_issue;
  std::int64_t host_call_ns;
};

struct PhaseSpan {
  std::string name;
  double host_start_s;
  double host_end_s;
  Time v_start;
  Time v_end;
};

class Bench {
 public:
  Bench(Workload w, int setups, bool trace) : w_(std::move(w)), setups_(setups), trace_(trace) {}

  int run(std::uint64_t ops_per_client, const std::string& spans_path);

 private:
  struct ClientRun {
    std::vector<ycsb::TraceOp> trace;
    std::vector<Time> issued;
    std::vector<Time> done;
    std::vector<std::uint8_t> ok;
    std::size_t next = 0;
    std::size_t completed = 0;
  };
  struct PhaseRun {
    std::uint32_t id = 0;
    std::vector<ClientRun> clients;
    int remaining = 0;
    std::uint64_t completed = 0;
  };

  void setup_once(std::uint64_t ops_per_client);
  void drive(PhaseRun& ph, bool measured);
  void issue(PhaseRun& ph, std::uint32_t c);
  void finish(PhaseRun& ph, std::uint32_t c, std::size_t i, Status s, int kind);
  bool check_value(std::uint64_t record, std::string_view value, Time read_done);
  void check_scan(const ycsb::TraceOp& op, const client::Client::ScanEntries& e, Time now);
  void audit();
  void violation(const char* fmt, std::uint64_t a, std::uint64_t b);
  void report(const Counters& before, const Counters& after, Time v_elapsed,
              double host_s, std::uint64_t events);
  void write_spans(const std::string& path) const;
  [[nodiscard]] double host_now() const { return secs_since(t_start_); }

  Workload w_;
  int setups_;
  bool trace_;
  Clock::time_point t_start_ = Clock::now();
  std::unique_ptr<db::HydraCluster> cluster_;
  PhaseRun phases_[3];  // [1] warm-up, [2] measured
  std::vector<double> build_s_, load_s_, tracegen_s_, setup_s_;
  double rss_after_build_ = 0.0;
  double warmup_s_ = 0.0;

  // Measured-phase accounting.
  std::vector<Duration> lat_[2];
  std::uint64_t failed_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t violations_ = 0;
  std::uint64_t updates_ok_ = 0;
  std::size_t peak_pending_ = 0;
  bool tracing_ = false;
  std::vector<Span> spans_;
  std::vector<PhaseSpan> phase_spans_;
  /// Measured-phase host seconds, ops and events of the untraced [0] and
  /// traced [1] event batches.
  double batch_s_[2] = {0.0, 0.0};
  std::uint64_t batch_ops_[2] = {0, 0};
  std::uint64_t batch_events_[2] = {0, 0};
  /// Consecutive untraced measured-phase windows of at least kWindowS host
  /// seconds: ops completed, host seconds, and the speed probe's time after.
  struct Window {
    std::uint64_t ops = 0;
    double host_s = 0.0;
    double probe_s = 0.0;
  };
  static constexpr double kWindowS = 0.25;
  std::vector<Window> windows_;
  Window open_window_;
  std::int64_t issue_ns_ = 0;
  std::uint64_t issue_calls_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::map<std::string, double> virt_, host_;
};

void Bench::violation(const char* fmt, std::uint64_t a, std::uint64_t b) {
  if (violations_++ < 10) {
    std::fprintf(stderr, "perfbench: output check failed: ");
    std::fprintf(stderr, fmt, static_cast<unsigned long long>(a), static_cast<unsigned long long>(b));
    std::fputc('\n', stderr);
  }
}

void Bench::setup_once(std::uint64_t ops_per_client) {
  cluster_.reset();  // free the previous set-up's cluster before timing a new one
  const double t0 = host_now();
  cluster_ = std::make_unique<db::HydraCluster>(w_.opts);
  const double t1 = host_now();
  rss_after_build_ = rss_mib("VmRSS:");
  for (std::uint64_t r = 0; r < w_.spec.record_count; ++r) {
    const WriteId load{static_cast<std::uint32_t>(r), 0, 0, 0};
    cluster_->direct_load(format_key(r, w_.spec.key_len), encode_value(load, w_.spec.value_len));
  }
  const double t2 = host_now();
  const std::size_t n = cluster_->clients().size();
  fingerprint_ = 0;
  ycsb::WorkloadSpec warmup = w_.spec;
  warmup.seed = mix64(w_.spec.seed ^ 0x5741524D55500000ULL);  // its own trace stream
  for (std::uint32_t p = 1; p <= 2; ++p) {
    PhaseRun& ph = phases_[p];
    ph = PhaseRun{};
    ph.id = p;
    ph.clients.resize(n);
    const std::uint64_t ops = p == 1 ? w_.warmup_per_client : ops_per_client;
    for (std::size_t c = 0; c < n; ++c) {
      ClientRun& cr = ph.clients[c];
      cr.trace = ycsb::generate_trace(p == 1 ? warmup : w_.spec, static_cast<int>(c), ops);
      cr.issued.assign(ops, 0);
      cr.done.assign(ops, 0);
      cr.ok.assign(ops, 0);
      for (const auto& op : cr.trace) {
        fingerprint_ = mix64(fingerprint_ ^ (op.record * 4 + (op.is_get ? 1 : 0) +
                                             (op.is_scan ? 2 : 0)) ^ (op.scan_len << 40));
      }
    }
  }
  const double t3 = host_now();
  build_s_.push_back(t1 - t0);
  load_s_.push_back(t2 - t1);
  tracegen_s_.push_back(t3 - t2);
  setup_s_.push_back(t3 - t0);
  phase_spans_.push_back({"setup.build", t0, t1, 0, 0});
  phase_spans_.push_back({"setup.load", t1, t2, 0, 0});
  phase_spans_.push_back({"setup.tracegen", t2, t3, 0, 0});
}

void Bench::issue(PhaseRun& ph, std::uint32_t c) {
  ClientRun& cr = ph.clients[c];
  const std::size_t i = cr.next++;
  const ycsb::TraceOp& op = cr.trace[i];
  client::Client& cl = *cluster_->clients()[c];
  std::string key = format_key(op.record, w_.spec.key_len);
  cr.issued[i] = cluster_->scheduler().now();
  const bool timed = tracing_;  // only ever set inside the measured phase
  const Clock::time_point h0 = timed ? Clock::now() : Clock::time_point{};
  PhaseRun* p = &ph;
  if (op.is_scan) {
    cl.scan(std::move(key), static_cast<std::uint32_t>(op.scan_len),
            [this, p, c, i](Status s, client::Client::ScanEntries e) {
              if (s == Status::kOk) {
                check_scan(p->clients[c].trace[i], e, cluster_->scheduler().now());
              }
              finish(*p, c, i, s, 2);
            });
  } else if (op.is_get) {
    const std::uint64_t record = op.record;
    cl.get(std::move(key), [this, p, c, i, record](Status s, std::string_view v) {
      if (s == Status::kOk) {
        check_value(record, v, cluster_->scheduler().now());
      } else if (s == Status::kNotFound) {
        violation("GET of loaded record %llu returned NOT_FOUND (client %llu)", record, c);
      }
      finish(*p, c, i, s, 0);
    });
  } else {
    const WriteId id{static_cast<std::uint32_t>(op.record), c + 1, ph.id,
                     static_cast<std::uint32_t>(i)};
    cl.update(std::move(key), encode_value(id, w_.spec.value_len),
              [this, p, c, i](Status s) { finish(*p, c, i, s, 1); });
  }
  if (timed) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - h0);
    issue_ns_ += ns.count();
    ++issue_calls_;
    spans_.push_back(Span{c, static_cast<std::uint32_t>(i),
                          static_cast<std::uint8_t>(op.is_scan ? 2 : op.is_get ? 0 : 1),
                          cr.issued[i], ns.count()});
  }
}

void Bench::finish(PhaseRun& ph, std::uint32_t c, std::size_t i, Status s, int kind) {
  ClientRun& cr = ph.clients[c];
  const Time now = cluster_->scheduler().now();
  cr.done[i] = now;
  cr.ok[i] = s == Status::kOk;
  ++cr.completed;
  ++ph.completed;
  if (ph.id == 2) {
    if (s == Status::kOk) {
      lat_[kind == 1 ? kUpdate : kRead].push_back(now - cr.issued[i]);
      updates_ok_ += kind == 1;
    } else {
      ++failed_;
    }
  }
  if (cr.next < cr.trace.size()) {
    issue(ph, c);
  } else if (cr.completed == cr.trace.size()) {
    --ph.remaining;
  }
}

bool Bench::check_value(std::uint64_t record, std::string_view value, Time read_done) {
  WriteId id;
  if (!decode_value(value, w_.spec.value_len, &id) || id.record != record) {
    violation("record %llu returned a value no writer produced (len %llu)", record, value.size());
    return false;
  }
  if (id.phase == 0) {
    if (id.writer != 0 || id.seq != 0) violation("record %llu: malformed load stamp %llu", record, id.seq);
    return id.writer == 0 && id.seq == 0;
  }
  const std::uint32_t c = id.writer - 1;
  const bool known = id.phase <= 2 && id.writer >= 1 && c < phases_[id.phase].clients.size() &&
                     id.seq < phases_[id.phase].clients[c].trace.size();
  if (!known) {
    violation("record %llu: value names an unknown write (seq %llu)", record, id.seq);
    return false;
  }
  const ClientRun& w = phases_[id.phase].clients[c];
  const ycsb::TraceOp& op = w.trace[id.seq];
  // The write must be an update of this very record, already issued.
  if (op.is_get || op.is_scan || op.record != record || id.seq >= w.next ||
      w.issued[id.seq] > read_done) {
    violation("record %llu: value from a write that never targeted it (seq %llu)", record, id.seq);
    return false;
  }
  return true;
}

void Bench::check_scan(const ycsb::TraceOp& op, const client::Client::ScanEntries& e, Time now) {
  // Every record exists and none is ever removed, so a scan from record r
  // with limit L must return exactly records r, r+1, ... (at most L of them).
  const std::uint64_t expect =
      std::min<std::uint64_t>(op.scan_len, w_.spec.record_count - op.record);
  if (e.size() > op.scan_len) violation("scan returned %llu entries over limit %llu", e.size(), op.scan_len);
  if (e.size() != expect) violation("scan from record %llu returned %llu entries", op.record, e.size());
  std::uint64_t prev = 0;
  for (std::size_t j = 0; j < e.size(); ++j) {
    std::uint64_t r = 0;
    if (!parse_key(e[j].first, &r)) {
      violation("scan from record %llu returned a foreign key (entry %llu)", op.record, j);
      continue;
    }
    if (r < op.record) violation("scan entry %llu precedes its start record %llu", r, op.record);
    if (j > 0 && r <= prev) violation("scan not strictly ascending at record %llu after %llu", r, prev);
    if (r != op.record + j) violation("scan skipped to record %llu (expected %llu)", r, op.record + j);
    prev = r;
    check_value(r, e[j].second, now);
  }
}

void Bench::drive(PhaseRun& ph, bool measured) {
  sim::Scheduler& sched = cluster_->scheduler();
  ph.remaining = static_cast<int>(ph.clients.size());
  for (std::uint32_t c = 0; c < ph.clients.size(); ++c) {
    if (ph.clients[c].trace.empty()) {
      --ph.remaining;
    } else {
      issue(ph, c);
    }
  }
  // Batches of events; with --trace 1 tracing alternates batch by batch so
  // one run yields both the traced and the untraced host rate.
  constexpr int kBatch = 1 << 12;
  for (std::uint64_t batch = 0; ph.remaining > 0; ++batch) {
    tracing_ = trace_ && measured && (batch & 1) != 0;
    const Clock::time_point h0 = Clock::now();
    const std::uint64_t done0 = ph.completed;
    const std::uint64_t ev0 = sched.events_executed();
    for (int i = 0; i < kBatch && ph.remaining > 0; ++i) {
      if (!sched.step()) {
        std::fprintf(stderr, "perfbench: simulation drained with %d clients unfinished\n",
                     ph.remaining);
        ph.remaining = 0;
        break;
      }
      peak_pending_ = std::max(peak_pending_, sched.pending());
    }
    if (measured) {
      batch_s_[tracing_] += secs_since(h0);
      batch_ops_[tracing_] += ph.completed - done0;
      batch_events_[tracing_] += sched.events_executed() - ev0;
      if (!tracing_) {
        open_window_.host_s += secs_since(h0);
        open_window_.ops += ph.completed - done0;
        if (open_window_.host_s >= kWindowS) {  // a shorter tail window is dropped
          open_window_.probe_s = speed_probe_s();
          windows_.push_back(open_window_);
          open_window_ = Window{};
        }
      }
    }
  }
  tracing_ = false;
}

void Bench::audit() {
  // Read back a seeded sample of records once the cluster is quiescent.
  // The value must be the load or a benchmark update of that record that
  // completed no earlier than the issue of any other completed update of it.
  const std::uint64_t n = std::min<std::uint64_t>(w_.spec.record_count, 2'000);
  Xoshiro256 rng(mix64(w_.spec.seed ^ 0xA0D17ULL));
  std::vector<std::uint64_t> sample(n);
  for (auto& r : sample) r = rng.below(w_.spec.record_count);
  const std::set<std::uint64_t> sampled(sample.begin(), sample.end());
  std::map<std::uint64_t, Time> last_issue;  // latest issue of a completed update
  for (std::uint32_t p = 1; p <= 2; ++p) {
    for (const ClientRun& cr : phases_[p].clients) {
      for (std::size_t i = 0; i < cr.trace.size(); ++i) {
        const auto& op = cr.trace[i];
        if (op.is_get || op.is_scan || !cr.ok[i] || sampled.count(op.record) == 0) continue;
        Time& t = last_issue[op.record];
        t = std::max(t, cr.issued[i]);
      }
    }
  }
  auto& clients = cluster_->clients();
  std::uint64_t pending = 0;
  for (std::size_t k = 0; k < sample.size(); ++k) {
    const std::uint64_t r = sample[k];
    ++pending;
    clients[k % clients.size()]->get(
        format_key(r, w_.spec.key_len), [this, r, &pending, &last_issue](Status s, std::string_view v) {
          --pending;
          const Time now = cluster_->scheduler().now();
          if (s != Status::kOk) {
            violation("audit: record %llu unreadable (status %llu)", r, static_cast<std::uint64_t>(s));
            return;
          }
          if (!check_value(r, v, now)) return;
          WriteId id;
          decode_value(v, w_.spec.value_len, &id);
          const auto it = last_issue.find(r);
          if (it == last_issue.end()) {
            if (id.phase != 0) violation("audit: record %llu never updated yet holds %llu", r, id.seq);
            return;
          }
          const ClientRun& wr = phases_[id.phase].clients[id.writer - 1];
          // A write whose call failed may still have applied at an unknown
          // time, so only acknowledged writes are ordered against others.
          if (id.phase == 0 || (wr.ok[id.seq] && wr.done[id.seq] < it->second)) {
            violation("audit: record %llu holds a superseded write (seq %llu)", r, id.seq);
          }
        });
    if (pending >= clients.size() || k + 1 == sample.size()) {
      while (pending > 0 && cluster_->scheduler().step()) {
      }
    }
  }
  if (pending > 0) violation("audit: %llu reads never completed (of %llu)", pending, n);
}

void Bench::report(const Counters& b, const Counters& a, Time v_elapsed, double host_s,
                   std::uint64_t events) {
  db::HydraCluster& c = *cluster_;
  const double ops = static_cast<double>(attempted_);
  const double completed = static_cast<double>(phases_[2].completed);
  const double v_s = static_cast<double>(v_elapsed) / 1e9;
  auto& V = virt_;
  auto& H = host_;
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };

  // ---- end to end
  H["setup_s"] = median(setup_s_);
  // Host speed on a shared machine comes and goes with other tenants' load,
  // by tens of percent and in episodes of seconds to minutes. So each
  // window's host seconds are rescaled by the speed probe run right after
  // it, to seconds of a host on which the probe takes kProbeRefS.
  if (windows_.empty()) {  // a phase shorter than one window
    windows_.push_back({phases_[2].completed, host_s, speed_probe_s()});
  }
  double window_ops = 0.0;
  double window_s = 0.0;
  double ref_s = 0.0;
  std::vector<double> probe_s;
  for (const Window& w : windows_) {
    window_ops += d(w.ops);
    window_s += w.host_s;
    ref_s += w.host_s * kProbeRefS / w.probe_s;
    probe_s.push_back(w.probe_s);
  }
  H["host_ops_per_s"] = ratio(window_ops, ref_s);
  H["trace.probe_us"] = median(probe_s) * 1e6;
  std::fprintf(stderr,
               "perfbench: %zu windows: %.0f host ops/s raw, probe median %.1f us, "
               "%.0f ops/s rescaled\n",
               windows_.size(), ratio(window_ops, window_s), H["trace.probe_us"],
               H["host_ops_per_s"]);
  H["peak_rss_mib"] = peak_rss_mib();
  V["virt_mops"] = ratio(completed, v_s) / 1e6;
  const char* names[2] = {"read", "update"};
  for (int k = 0; k < 2; ++k) {
    std::vector<Duration>& l = lat_[k];
    std::sort(l.begin(), l.end());
    V[std::string("ycsb.") + names[k] + "_samples"] = static_cast<double>(l.size());
    if (l.size() < 10'000) continue;  // p99.9 needs >= 10 samples beyond it
    const std::string name = names[k];
    const Duration sum = std::accumulate(l.begin(), l.end(), Duration{0});
    V[name + "_mean_us"] = static_cast<double>(sum) / static_cast<double>(l.size()) / 1000.0;
    // The median is logged but is no benchmark metric: where most ops take
    // the uncontended path it is that path's fixed modelled cost, the same
    // for every seed.
    V[name + "_p50_us"] = percentile_us(l, 0.50);
    V[name + "_p999_us"] = percentile_us(l, 0.999);
  }
  V["fail_ratio"] = ratio(static_cast<double>(failed_), ops);

  // ---- sim
  V["sim.events_per_op"] = ratio(static_cast<double>(events), ops);
  H["sim.host_ns_per_event"] = ratio(batch_s_[0] * 1e9, d(batch_events_[0]));
  V["sim.peak_pending"] = static_cast<double>(peak_pending_);

  // ---- hydradb / core / ycsb set-up phases (medians over set-ups)
  H["hydradb.build_s"] = median(build_s_);
  H["hydradb.rss_after_build_mib"] = rss_after_build_;
  H["core.load_s"] = median(load_s_);
  H["ycsb.tracegen_s"] = median(tracegen_s_);
  H["ycsb.warmup_s"] = warmup_s_;
  double reserved = 0.0, in_use = 0.0;
  for (ShardId s = 0; s < c.shard_count(); ++s) {
    reserved += static_cast<double>(c.shard(s)->store().arena().capacity());
    in_use += static_cast<double>(c.shard(s)->store().arena().bytes_in_use());
    for (auto* sec : c.secondaries_of(s)) {
      reserved += static_cast<double>(sec->store().arena().capacity());
      in_use += static_cast<double>(sec->store().arena().bytes_in_use());
    }
  }
  const double user_bytes = static_cast<double>(w_.spec.record_count) *
                            static_cast<double>(w_.spec.key_len + w_.spec.value_len);
  V["core.arena_reserved_mib"] = reserved / (1 << 20);
  V["core.bytes_stored_per_user_byte"] = ratio(in_use, user_bytes);
  V["core.get_miss_ratio"] = ratio(static_cast<double>(a.store_misses - b.store_misses),
                                   static_cast<double>(a.store_gets - b.store_gets));
  V["core.oom_failures"] = static_cast<double>(a.oom);

  // ---- client
  client::ClientStats cs;
  for (auto* cl : c.clients()) {
    const client::ClientStats& s = cl->stats();
    cs.gets += s.gets;
    cs.ptr_hits += s.ptr_hits;
    cs.invalid_hits += s.invalid_hits;
    cs.renews_sent += s.renews_sent;
    cs.retries += s.retries;
    cs.timeouts += s.timeouts;
    cs.scans += s.scans;
    cs.scan_batches += s.scan_batches;
    cs.scan_entries += s.scan_entries;
    cs.scan_leaf_reads += s.scan_leaf_reads;
    cs.scan_leaf_fallbacks += s.scan_leaf_fallbacks;
  }
  V["client.ptr_hit_ratio"] = ratio(d(cs.ptr_hits), d(cs.gets));
  V["client.invalid_hit_ratio"] = ratio(d(cs.invalid_hits), d(cs.gets));
  V["client.renews_per_get"] = ratio(d(cs.renews_sent), d(cs.gets));
  V["client.retries_per_op"] = ratio(d(cs.retries), ops);
  V["client.timeouts"] = d(cs.timeouts);
  H["client.issue_host_ns"] = ratio(static_cast<double>(issue_ns_), d(issue_calls_));

  // ---- server
  double busy_sum = 0.0, busy_max = 0.0, msg = 0.0, resp = 0.0, batched = 0.0, refresh = 0.0;
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    const server::ShardStats& x = a.shards[s];
    const server::ShardStats& y = b.shards[s];
    const double busy = d(static_cast<std::uint64_t>(x.busy_time - y.busy_time));
    busy_sum += busy;
    busy_max = std::max(busy_max, busy);
    msg += d((x.gets + x.puts + x.removes + x.renews + x.scans) -
             (y.gets + y.puts + y.removes + y.renews + y.scans));
    resp += d(x.responses - y.responses);
    batched += d(x.batched_responses - y.batched_responses);
    refresh += d(x.scan_leaf_refreshes - y.scan_leaf_refreshes);
  }
  const double nshards = d(a.shards.size());
  V["server.busy_frac"] = ratio(busy_sum, nshards * static_cast<double>(v_elapsed));
  V["server.busy_max_over_mean"] = ratio(busy_max * nshards, busy_sum);
  V["server.msg_requests_per_op"] = ratio(msg, ops);
  V["server.batched_response_ratio"] = ratio(batched, resp);

  // ---- replication
  V["replication.acks_per_update"] = ratio(d(a.acks - b.acks), d(updates_ok_));
  V["replication.write_retries"] = d(a.write_retries - b.write_retries);
  V["replication.resends"] = d(a.resends - b.resends);
  V["replication.ack_probes"] = d(a.ack_probes - b.ack_probes);

  // ---- fabric
  V["fabric.rdma_reads_per_op"] = ratio(d(a.fabric.rdma_reads - b.fabric.rdma_reads), ops);
  V["fabric.rdma_writes_per_op"] = ratio(d(a.fabric.rdma_writes - b.fabric.rdma_writes), ops);
  V["fabric.tx_bytes_per_op"] = ratio(d(a.tx_bytes - b.tx_bytes), ops);
  double tx_max = 0.0, tx_sum = 0.0;
  for (std::size_t n = 0; n < a.node_tx_ops.size(); ++n) {
    const double tx = d(a.node_tx_ops[n] - b.node_tx_ops[n]);
    tx_max = std::max(tx_max, tx);
    tx_sum += tx;
  }
  V["fabric.nic_load_ratio"] = ratio(tx_max * d(a.node_tx_ops.size()), tx_sum);
  V["fabric.live_qp_pairs"] = d(c.fabric().live_qp_pairs());

  // ---- index (scan cursor)
  V["index.batches_per_scan"] = ratio(d(cs.scan_batches), d(cs.scans));
  V["index.entries_per_scan"] = ratio(d(cs.scan_entries), d(cs.scans));
  V["index.leaf_read_ratio"] = ratio(d(cs.scan_leaf_reads), d(cs.scan_leaf_reads + cs.scan_batches));
  V["index.leaf_fallback_ratio"] =
      ratio(d(cs.scan_leaf_fallbacks), d(cs.scan_leaf_reads + cs.scan_leaf_fallbacks));
  V["index.leaf_refreshes_per_update"] = ratio(refresh, d(updates_ok_));

  // ---- mux
  V["mux.credit_waits_per_op"] = ratio(d(a.mux.credit_waits - b.mux.credit_waits), ops);
  V["mux.channels_opened"] = d(a.mux.channels_opened);
  V["mux.reclaimed_idle"] = d(a.mux.reclaimed_idle);

  // ---- tracing overhead (only meaningful with --trace 1)
  // Traced and untraced batches interleave, so both rates see the same
  // machine conditions.
  H["trace.untraced_host_ops_per_s"] = ratio(d(batch_ops_[0]), batch_s_[0]);
  H["trace.traced_host_ops_per_s"] = ratio(d(batch_ops_[1]), batch_s_[1]);
  H["trace.overhead_frac"] =
      batch_ops_[1] > 0
          ? 1.0 - H["trace.traced_host_ops_per_s"] / H["trace.untraced_host_ops_per_s"]
          : 0.0;
}

void Bench::write_spans(const std::string& path) const {
  // One row per span: set-up phases (one set per set-up), warm-up, the
  // measured phase, and one span per op issued while tracing was on; ops
  // name the measured phase as their parent.
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "span,id,parent,v_start_ns,v_end_ns,host_start_s,host_end_s,host_call_ns\n");
  for (std::size_t k = 0; k < phase_spans_.size(); ++k) {
    const PhaseSpan& p = phase_spans_[k];
    std::fprintf(f, "%s,%zu,,%" PRId64 ",%" PRId64 ",%.9f,%.9f,\n", p.name.c_str(), k, p.v_start,
                 p.v_end, p.host_start_s, p.host_end_s);
  }
  static const char* kTypes[3] = {"op.get", "op.update", "op.scan"};
  for (const Span& s : spans_) {
    const Time done = phases_[2].clients[s.client].done[s.seq];
    std::fprintf(f, "%s,%u.%u,measured,%" PRId64 ",%" PRId64 ",,,%" PRId64 "\n", kTypes[s.type],
                 s.client, s.seq, s.v_issue, done, s.host_call_ns);
  }
  std::fclose(f);
}

int Bench::run(std::uint64_t ops_per_client, const std::string& spans_path) {
  for (int k = 0; k < setups_; ++k) setup_once(ops_per_client);

  // Warm-up: fills the pointer cache and opens lazy mux channels.
  sim::Scheduler& sched = cluster_->scheduler();
  const double w0 = host_now();
  const Time vw0 = sched.now();
  drive(phases_[1], false);
  warmup_s_ = host_now() - w0;
  phase_spans_.push_back({"warmup", w0, host_now(), vw0, sched.now()});

  // Measured phase.
  for (auto* cl : cluster_->clients()) cl->mutable_stats() = client::ClientStats{};
  const Counters before = snapshot(*cluster_);
  const std::uint64_t ev0 = sched.events_executed();
  const Time v0 = sched.now();
  peak_pending_ = 0;
  const double m0 = host_now();
  drive(phases_[2], true);
  const double host_s = host_now() - m0;
  const Time v1 = sched.now();
  phase_spans_.push_back({"measured", m0, host_now(), v0, v1});
  const std::uint64_t events = sched.events_executed() - ev0;
  const Counters after = snapshot(*cluster_);

  for (const ClientRun& cr : phases_[2].clients) {
    attempted_ += cr.trace.size();
    failed_ += cr.trace.size() - cr.completed;  // never completed
  }
  report(before, after, v1 - v0, host_s, events);
  const double a0 = host_now();
  audit();
  const double audit_s = host_now() - a0;
  if (trace_ && !spans_path.empty()) write_spans(spans_path);
  std::fprintf(stderr, "perfbench: %s set-ups %.2f s, warm-up %.2f s, measured %.2f s, audit %.2f s\n",
               w_.name.c_str(), w0, warmup_s_, host_s, audit_s);

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"attempted\": %llu, \"failed\": %llu, "
              "\"violations\": %llu, \"fingerprint\": \"%016llx\", \"virtual\": {",
              w_.name.c_str(), static_cast<unsigned long long>(w_.spec.seed),
              static_cast<unsigned long long>(attempted_), static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(violations_),
              static_cast<unsigned long long>(fingerprint_));
  const char* sep = "";
  for (const auto& [k, v] : virt_) {
    std::printf("%s\"%s\": %.17g", sep, k.c_str(), v);
    sep = ", ";
  }
  std::printf("}, \"host\": {");
  sep = "";
  for (const auto& [k, v] : host_) {
    std::printf("%s\"%s\": %.17g", sep, k.c_str(), v);
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int setups = 3;
  bool trace = false;
  bool small = false;
  std::uint64_t ops_override = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_val = i + 1 < argc;
    if (a == "--workload" && has_val) {
      workload = argv[++i];
    } else if (a == "--seed" && has_val) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_val) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--setups" && has_val) {
      setups = std::atoi(argv[++i]);
    } else if (a == "--trace" && has_val) {
      trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--spans" && has_val) {
      spans = argv[++i];
    } else if (a == "--ops-per-client" && has_val) {
      ops_override = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--small") {
      small = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  Workload w;
  if (!make_workload(workload, seed, small, &w)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  if (setups < 1 || seconds <= 0) {
    std::fprintf(stderr, "perfbench: --setups must be >= 1 and --seconds > 0\n");
    return 2;
  }
  const auto clients = static_cast<double>(w.opts.client_nodes * w.opts.clients_per_node);
  const std::uint64_t ops_per_client =
      ops_override > 0 ? ops_override
                       : static_cast<std::uint64_t>(std::ceil(w.sized_ops_per_s * seconds / clients));
  Bench bench(std::move(w), setups, trace);
  return bench.run(ops_per_client, spans);
}
