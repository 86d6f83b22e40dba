// Range-scan system tests (DESIGN.md §13): cluster-level cross-shard merge
// correctness, the one-sided leaf-read fast path and its message-path
// parity, kScan hardening against index-less shards, and the
// scan-mid-migration chaos family (scripted schedules x seeds plus a
// seeded sweep scaled by HYDRA_SCAN_RANDOM_RUNS).

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "chaos/chaos.hpp"
#include "chaos_util.hpp"
#include "common/rng.hpp"
#include "hydradb/hydra_cluster.hpp"
#include "index/leaf_page.hpp"

namespace hydra {
namespace {

std::string skey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "sk-%06d", i);
  return buf;
}

db::ClusterOptions scan_options(bool leaf_reads = true) {
  db::ClusterOptions opts;
  opts.server_nodes = 3;
  opts.shards_per_node = 1;
  opts.client_nodes = 1;
  opts.clients_per_node = 2;
  opts.replicas = 0;
  opts.enable_swat = false;
  opts.ordered_index = true;
  opts.client_template.scan_leaf_reads = leaf_reads;
  return opts;
}

// --------------------------------------------------------------- data path

TEST(ScanCluster, MergesSortedAcrossShards) {
  db::HydraCluster cluster(scan_options());
  const int n = 200;
  for (int i = 0; i < n; ++i) cluster.direct_load(skey(i), "v" + std::to_string(i));

  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_EQ(cluster.scan(skey(0), n + 10, &out), Status::kOk);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].first, skey(i));
    EXPECT_EQ(out[static_cast<std::size_t>(i)].second, "v" + std::to_string(i));
  }
  // Keys really are spread: more than one shard contributed.
  std::map<ShardId, int> per_shard;
  for (int i = 0; i < n; ++i) ++per_shard[cluster.owner_of(skey(i))];
  EXPECT_GT(per_shard.size(), 1u);
}

TEST(ScanCluster, HonorsLimitAndStartKey) {
  db::HydraCluster cluster(scan_options());
  for (int i = 0; i < 100; ++i) cluster.direct_load(skey(i), "v");

  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_EQ(cluster.scan(skey(40), 25, &out), Status::kOk);
  ASSERT_EQ(out.size(), 25u);
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].first, skey(40 + i));
  }
  // Start past the end: empty result, still kOk.
  out.clear();
  ASSERT_EQ(cluster.scan(skey(100), 10, &out), Status::kOk);
  EXPECT_TRUE(out.empty());
  // Mid-gap start resumes at the successor.
  out.clear();
  ASSERT_EQ(cluster.scan(skey(40) + "x", 3, &out), Status::kOk);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].first, skey(41));
}

TEST(ScanCluster, ScansSeeAckedWrites) {
  db::HydraCluster cluster(scan_options());
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(cluster.put(skey(i), "w" + std::to_string(i)), Status::kOk);
  }
  ASSERT_EQ(cluster.remove(skey(25)), Status::kOk);
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_EQ(cluster.scan(skey(0), 100, &out), Status::kOk);
  ASSERT_EQ(out.size(), 49u);
  for (const auto& [k, v] : out) EXPECT_NE(k, skey(25));
}

TEST(ScanCluster, LeafReadsServeAndParityWithMessagePath) {
  // Same dataset scanned with and without the one-sided leaf fast path:
  // identical results, and the fast path actually fires when enabled.
  std::vector<std::pair<std::string, std::string>> with_leaf;
  std::vector<std::pair<std::string, std::string>> without_leaf;
  std::uint64_t leaf_reads = 0;
  for (const bool leaf : {true, false}) {
    db::HydraCluster cluster(scan_options(leaf));
    for (int i = 0; i < 300; ++i) cluster.direct_load(skey(i), "v" + std::to_string(i));
    // Repeated scans let continuations ride the advertised leaf hints.
    auto& out = leaf ? with_leaf : without_leaf;
    for (int r = 0; r < 4; ++r) {
      out.clear();
      ASSERT_EQ(cluster.scan(skey(0), 310, &out), Status::kOk);
    }
    std::uint64_t reads = 0;
    std::uint64_t fallbacks = 0;
    for (const auto* c : cluster.clients()) {
      reads += c->stats().scan_leaf_reads;
      fallbacks += c->stats().scan_leaf_fallbacks;
    }
    if (leaf) {
      leaf_reads = reads;
    } else {
      EXPECT_EQ(reads, 0u);
      EXPECT_EQ(fallbacks, 0u);
    }
  }
  EXPECT_GT(leaf_reads, 0u);
  EXPECT_EQ(with_leaf, without_leaf);
}

// How the parity runs below serve continuations.
enum class LeafMode {
  kOff,        ///< message path only
  kOn,         ///< one-sided leaf reads of the shard's mirror pages
  kTruncated,  ///< leaf reads, but each non-last page is cut to its first
               ///< entry once read: a valid page that is stale for later readers
};

struct ParityRun {
  std::vector<client::Client::ScanEntries> results;
  std::uint64_t pages_served = 0;   ///< one-sided reads of a mirror page
  std::uint64_t page_entries = 0;   ///< entries on those pages
  std::uint64_t leaf_reads = 0;     ///< pages the cursor took entries from
  std::uint64_t fallbacks = 0;      ///< pages that failed validation
  std::uint64_t fresh_entries = 0;  ///< entries the cursor took from pages
};

ParityRun run_parity_scans(std::uint32_t batch, LeafMode mode) {
  db::ClusterOptions opts = scan_options(mode != LeafMode::kOff);
  opts.shard_template.store.index_fanout = 4;  // 2-4 entries per leaf
  opts.client_template.scan_batch = batch;
  db::HydraCluster cluster(opts);
  for (int i = 0; i < 240; ++i) {
    if (i % 7 != 3) cluster.direct_load(skey(i), "v" + std::to_string(i));
  }

  ParityRun run;
  cluster.fabric().set_read_fault_hook([&](NodeId, NodeId dst, const fabric::RemoteAddr& addr,
                                           std::uint32_t size) {
    for (ShardId s = 0; s < static_cast<ShardId>(cluster.shard_count()); ++s) {
      server::Shard* shard = cluster.shard(s);
      if (shard->node() != dst || shard->scan_leaf_rkey() != addr.rkey) continue;
      std::byte* bytes = cluster.fabric().node(dst).find_region(addr.rkey)->base() + addr.offset;
      const auto page = index::decode_leaf_page({bytes, size});
      if (!page.has_value()) break;
      ++run.pages_served;
      run.page_entries += page->entries.size();
      if (mode == LeafMode::kTruncated && !page->last && page->entries.size() > 1) {
        // Copy out first: the decoded entries alias the bytes being rewritten.
        const std::string key(page->entries.front().first);
        const std::string value(page->entries.front().second);
        EXPECT_TRUE(index::encode_leaf_page({bytes, size}, page->leaf_id, page->leaf_version,
                                            page->epoch, /*last=*/false, {{key, value}}));
      }
      break;
    }
    return fabric::ReadFault{};
  });

  Xoshiro256 rng(0x5CA17E57);
  for (int r = 0; r < 40; ++r) {
    std::string start = skey(static_cast<int>(rng.below(250)));
    if (rng.below(4) == 0) start += "x";  // start between two keys
    const auto limit = static_cast<std::uint32_t>(1 + rng.below(90));
    client::Client::ScanEntries out;
    EXPECT_EQ(cluster.scan(start, limit, &out), Status::kOk);
    run.results.push_back(std::move(out));
  }
  std::uint64_t client_entries = 0;
  std::uint64_t shard_entries = 0;
  for (const auto* c : cluster.clients()) {
    run.leaf_reads += c->stats().scan_leaf_reads;
    run.fallbacks += c->stats().scan_leaf_fallbacks;
    client_entries += c->stats().scan_entries;
  }
  for (ShardId s = 0; s < static_cast<ShardId>(cluster.shard_count()); ++s) {
    shard_entries += cluster.shard(s)->stats().scan_entries;
  }
  run.fresh_entries = client_entries - shard_entries;  // message entries are both
  return run;
}

TEST(ScanCluster, CursorParityAcrossBatchSizesAndLeafReads) {
  // The same seeded scans over a small-fanout tree, for every batch size and
  // continuation mode, must return identical entries. Together the runs
  // cover the two edges of the cursor's page handling: a page whose prefix
  // is at or below the stream's resume key (only the suffix is taken), and
  // an all-stale page that is not the shard's last, which must fall back to
  // the message path.
  const std::vector<client::Client::ScanEntries> expected =
      run_parity_scans(8, LeafMode::kOff).results;
  std::uint64_t skipped_prefix = 0;
  std::uint64_t all_stale = 0;
  for (const std::uint32_t batch : {1u, 8u, 32u}) {
    for (const LeafMode mode : {LeafMode::kOff, LeafMode::kOn, LeafMode::kTruncated}) {
      const ParityRun run = run_parity_scans(batch, mode);
      const std::string label =
          "batch=" + std::to_string(batch) + " mode=" + std::to_string(static_cast<int>(mode));
      ASSERT_EQ(run.results.size(), expected.size()) << label;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(run.results[i], expected[i]) << label << " scan " << i;
      }
      // Nothing is written during the scans, so every page validates.
      EXPECT_EQ(run.fallbacks, 0u) << label;
      if (mode == LeafMode::kOff) {
        EXPECT_EQ(run.pages_served, 0u) << label;
      } else if (mode == LeafMode::kOn) {
        EXPECT_GT(run.leaf_reads, 0u) << label;
        EXPECT_EQ(run.leaf_reads, run.pages_served) << label;
        skipped_prefix += run.page_entries - run.fresh_entries;
      } else {
        // A served page neither taken nor rejected was all stale.
        all_stale += run.pages_served - run.leaf_reads - run.fallbacks;
      }
    }
  }
  EXPECT_GT(skipped_prefix, 0u);
  EXPECT_GT(all_stale, 0u);
  std::size_t returned = 0;
  for (const auto& r : expected) returned += r.size();
  EXPECT_GT(returned, 500u);  // the scans are not trivially empty
}

TEST(ScanCluster, IndexlessShardRejectsScan) {
  db::ClusterOptions opts = scan_options();
  opts.ordered_index = false;  // stores never allocate the index
  db::HydraCluster cluster(opts);
  for (int i = 0; i < 10; ++i) cluster.direct_load(skey(i), "v");
  std::vector<std::pair<std::string, std::string>> out;
  EXPECT_EQ(cluster.scan(skey(0), 10, &out), Status::kInvalidArgument);
  EXPECT_TRUE(out.empty());
}

TEST(ScanCluster, ServerScanCountersAdvance) {
  db::HydraCluster cluster(scan_options());
  for (int i = 0; i < 100; ++i) cluster.direct_load(skey(i), "v");
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_EQ(cluster.scan(skey(0), 120, &out), Status::kOk);
  std::uint64_t scans = 0;
  std::uint64_t entries = 0;
  for (ShardId s = 0; s < static_cast<ShardId>(cluster.shard_count()); ++s) {
    scans += cluster.shard(s)->stats().scans;
    entries += cluster.shard(s)->stats().scan_entries;
  }
  EXPECT_GT(scans, 0u);
  EXPECT_GT(entries, 0u);  // leaf-read entries bypass the server counter
  std::uint64_t cursor_scans = 0;
  std::uint64_t client_entries = 0;
  for (const auto* c : cluster.clients()) {
    cursor_scans += c->stats().scans;
    client_entries += c->stats().scan_entries;
  }
  EXPECT_EQ(cursor_scans, 1u);
  EXPECT_GE(client_entries, 100u);  // message-path + leaf-read entries combined
}

// ------------------------------------------------------- chaos: migration

using chaos::Family;
using chaos::Runner;

void expect_clean(const chaos::Report& report, const std::string& label) {
  EXPECT_TRUE(report.passed()) << label << ":\n" << test::describe(report);
  EXPECT_GT(report.acked, 0u) << label;
  EXPECT_GT(report.scans_acked, 0u) << label;
}

TEST(ScanChaos, ScriptedFamilies) {
  for (const auto& schedule : chaos::scripted(Family::kScan)) {
    for (const std::uint64_t seed : {11ULL, 29ULL}) {
      const auto report = Runner::run(schedule, seed);
      expect_clean(report, schedule.name + " seed=" + std::to_string(seed));
      if (HasFailure()) return;
    }
  }
}

TEST(ScanChaos, TornLeafReadsAreCaught) {
  // The torn-read family must actually exercise the fallback machinery:
  // garbled pages happen AND every scan still verifies.
  const auto report = Runner::run(chaos::scripted(Family::kScan, "scan-torn-leaf-reads"), 7);
  expect_clean(report, "scan-torn-leaf-reads");
  EXPECT_GT(report.torn_reads, 0u);
  EXPECT_GT(report.scan_leaf_fallbacks, 0u);
}

TEST(ScanChaos, MigrationRestartsCursors) {
  // Crossing a live expansion must reject stale continuation tokens (epoch
  // fence) and restart cursors rather than silently mis-merging.
  const auto& schedule = chaos::scripted(Family::kScan, "scan-add-shard-live");
  std::uint64_t restarts = 0;
  for (const std::uint64_t seed : {3ULL, 5ULL, 17ULL}) {
    const auto report = Runner::run(schedule, seed);
    expect_clean(report, schedule.name + " seed=" + std::to_string(seed));
    restarts += report.scan_restarts + report.scan_token_rejects;
  }
  EXPECT_GT(restarts, 0u);
}

TEST(ScanChaos, SeededRandomSweep) {
  const int runs = test::env_runs("HYDRA_SCAN_RANDOM_RUNS", 25);
  for (int r = 0; r < runs; ++r) {
    const std::uint64_t seed = 9000 + static_cast<std::uint64_t>(r);
    const auto schedule = chaos::random(Family::kScan, seed);
    const auto report = Runner::run(schedule, seed);
    EXPECT_TRUE(report.passed()) << schedule.name << ":\n" << test::describe(report);
    if (HasFailure()) return;
  }
}

TEST(ScanChaos, DeterministicHistory) {
  // Byte-identical history across two runs of the same (schedule, seed).
  for (const auto& schedule : chaos::scripted(Family::kScan)) {
    const auto a = Runner::run(schedule, 21);
    const auto b = Runner::run(schedule, 21);
    ASSERT_EQ(a.history, b.history) << schedule.name;
  }
}

}  // namespace
}  // namespace hydra
