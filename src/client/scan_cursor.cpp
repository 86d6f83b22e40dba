#include "client/scan_cursor.hpp"

#include <algorithm>
#include <utility>

#include "index/leaf_page.hpp"
#include "obs/plane.hpp"

namespace hydra::client {

namespace {
/// Result capacity reserved up front: scans of up to this many entries never
/// regrow the result, and a huge `limit` does not allocate a huge vector.
constexpr std::uint32_t kResultReserve = 256;
}  // namespace

void Client::scan(std::string start_key, std::uint32_t limit, ScanResultFn cb) {
  ScanCursor::start(*this, std::move(start_key), limit, std::move(cb));
}

void ScanCursor::start(Client& client, std::string start_key, std::uint32_t limit,
                       Client::ScanResultFn cb) {
  auto cursor = std::shared_ptr<ScanCursor>(
      new ScanCursor(client, std::move(start_key), limit, std::move(cb)));
  cursor->self_ = cursor;
  cursor->begin();
}

ScanCursor::ScanCursor(Client& client, std::string start_key, std::uint32_t limit,
                       Client::ScanResultFn cb)
    : client_(client),
      start_(std::move(start_key)),
      limit_(limit),
      cb_(std::move(cb)),
      started_(client.now()) {
  out_.reserve(std::min(limit_, kResultReserve));
}

void ScanCursor::Batch::assign(
    std::span<const std::pair<std::string_view, std::string_view>> kv) {
  std::size_t total = 0;
  for (const auto& [k, v] : kv) total += k.size() + v.size();
  bytes.clear();
  bytes.reserve(total);
  entries.clear();
  entries.reserve(kv.size());
  head = 0;
  for (const auto& [k, v] : kv) {
    entries.push_back({bytes.size(), static_cast<std::uint32_t>(k.size()),
                       static_cast<std::uint32_t>(v.size())});
    bytes.append(k);
    bytes.append(v);
  }
}

void ScanCursor::Stream::take(
    std::span<const std::pair<std::string_view, std::string_view>> kv) {
  batch.assign(kv);
  if (kv.empty()) return;
  resume.assign(kv.back().first);
  exclusive = true;
}

void ScanCursor::begin() {
  if (limit_ == 0) {
    finish(Status::kOk);
    return;
  }
  epoch_ = client_.routing_epoch();
  const std::vector<ShardId> shards = client_.shard_list();
  if (shards.empty()) {
    finish(Status::kDisconnected);
    return;
  }
  streams_.clear();
  streams_.reserve(shards.size());
  for (const ShardId shard : shards) {
    Stream s;
    s.shard = shard;
    // After a restart, every stream resumes strictly past the last key the
    // *merge* emitted -- buffered-but-unemitted entries were discarded and
    // will be re-fetched, which is what makes restarts drop/dup-free.
    s.resume = emitted_any_ ? last_emitted_ : start_;
    s.exclusive = emitted_any_;
    streams_.push_back(std::move(s));
  }
  pump();
}

void ScanCursor::restart() {
  if (finished_) return;
  ++client_.mutable_stats().scan_restarts;
  if (++restarts_ > client_.config().max_scan_restarts) {
    finish(Status::kTimeout);
    return;
  }
  ++generation_;
  begin();
}

void ScanCursor::pump() {
  if (finished_) return;
  while (true) {
    if (out_.size() >= limit_) {
      finish(Status::kOk);
      return;
    }
    // Phase 1: every unfinished, unbuffered stream must be fetching. The
    // merge may not emit while any of them is outstanding -- it could still
    // produce the global minimum.
    bool waiting = false;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      Stream& s = streams_[i];
      if (s.done || !s.batch.empty()) continue;
      if (!s.inflight) fetch(i);
      waiting = true;
    }
    if (waiting) return;
    // Phase 2: all streams are done or buffered; emit the smallest head.
    std::size_t best = streams_.size();
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      if (streams_[i].batch.empty()) continue;
      if (best == streams_.size() || streams_[i].batch.key() < streams_[best].batch.key()) {
        best = i;
      }
    }
    if (best == streams_.size()) {
      finish(Status::kOk);  // every shard exhausted before `limit`
      return;
    }
    Batch& b = streams_[best].batch;
    const std::string_view key = b.key();
    const std::string_view value = b.value();
    ++b.head;
    // Strictly-ascending emit: a key at or below the last emitted one is a
    // dual-ownership duplicate (the migration copy window briefly exposes
    // moved keys on source and destination alike) -- drop it.
    if (emitted_any_ && key <= last_emitted_) continue;
    last_emitted_.assign(key);
    emitted_any_ = true;
    out_.emplace_back(key, value);
  }
}

void ScanCursor::fetch(std::size_t idx) {
  Stream& s = streams_[idx];
  s.inflight = true;
  const std::uint64_t gen = generation_;

  if (client_.config().scan_leaf_reads && s.hint.valid()) {
    // The hint stays armed until on_leaf_page consumes it, so a validation
    // failure falls back to the message path on the next fetch.
    auto on_page = [self = shared_from_this(), idx, gen](Status st,
                                                         std::vector<std::byte> page) {
      self->on_leaf_page(idx, gen, st, std::move(page));
    };
    static_assert(Client::LeafReadCallback::stores_inline<decltype(on_page)>);
    client_.leaf_read(s.hint.node, fabric::RemoteAddr{s.hint.rkey, s.hint.offset},
                      s.hint.len, std::move(on_page));
    return;
  }

  proto::ScanReq sreq;
  sreq.epoch = epoch_;
  const std::uint32_t need =
      limit_ - static_cast<std::uint32_t>(std::min<std::size_t>(out_.size(), limit_));
  sreq.limit = std::max<std::uint32_t>(1, std::min(client_.config().scan_batch, need));
  sreq.flags = s.exclusive ? proto::kScanFlagExclusive : std::uint8_t{0};
  auto on_resp = [self = shared_from_this(), idx, gen](Status st,
                                                       const proto::ScanResp& resp) {
    self->on_batch(idx, gen, st, resp);
  };
  static_assert(Client::ScanRespCallback::stores_inline<decltype(on_resp)>);
  client_.scan_shard(s.shard, s.resume, sreq, std::move(on_resp));
}

void ScanCursor::on_batch(std::size_t idx, std::uint64_t gen, Status st,
                          const proto::ScanResp& resp) {
  if (finished_ || gen != generation_) return;
  Stream& s = streams_[idx];
  s.inflight = false;
  if (st == Status::kWrongOwner || st == Status::kTimeout || st == Status::kDisconnected) {
    // Epoch fence, a mid-scan failover, or a drained shard: the whole shard
    // set may have changed; re-resolve and resume from the merge position.
    restart();
    return;
  }
  if (st != Status::kOk) {
    finish(st);
    return;
  }
  if (resp.entries.empty() && !resp.done) {
    // A live shard never answers "not done" with zero entries; treat the
    // contradiction like a lost response rather than spinning on it.
    restart();
    return;
  }
  s.take(resp.entries);
  s.done = resp.done;
  if (!resp.done && resp.hint.valid()) s.hint = resp.hint;
  pump();
}

void ScanCursor::on_leaf_page(std::size_t idx, std::uint64_t gen, Status st,
                              std::vector<std::byte> page) {
  if (finished_ || gen != generation_) return;
  Stream& s = streams_[idx];
  s.inflight = false;
  const proto::ScanLeafHint hint = std::exchange(s.hint, proto::ScanLeafHint{});
  ClientStats& stats = client_.mutable_stats();
  obs::Plane* obs = client_.fabric().obs();

  auto fall_back = [&] {
    // The page failed to arrive or to validate (torn read, version moved,
    // stale epoch, slot reused for another leaf): the hint was consumed, so
    // pump() re-fetches this position through the message path.
    ++stats.scan_leaf_fallbacks;
    if (obs != nullptr) {
      obs->trace(client_.now(), client_.node(), obs::TraceKind::kScanLeafFallback,
                 s.shard, hint.leaf_id, 0);
    }
    pump();
  };

  if (st != Status::kOk) {
    fall_back();
    return;
  }
  // The decoded entries are views into `page`, which lives until we return.
  const auto decoded = index::decode_leaf_page(page);
  if (!decoded.has_value() || decoded->leaf_id != hint.leaf_id ||
      decoded->leaf_version != hint.leaf_version || decoded->epoch != epoch_) {
    fall_back();
    return;
  }
  // Structural re-check: entries must be strictly ascending (a checksum
  // collision shield; also what lets the merge trust the buffered order).
  // The fresh entries, those past `resume`, are then a suffix of the page.
  const index::LeafPageEntries& entries = decoded->entries;
  std::size_t fresh_from = entries.size();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i > 0 && entries[i].first <= entries[i - 1].first) {
      fall_back();
      return;
    }
    if (fresh_from == entries.size() && entries[i].first > s.resume) fresh_from = i;
  }
  const auto fresh = std::span(entries).subspan(fresh_from);
  if (fresh.empty() && !decoded->last) {
    // Deletions emptied our window into this leaf; let the message path
    // walk to the successor (guaranteed progress, unlike re-reading).
    pump();
    return;
  }
  ++stats.scan_leaf_reads;
  stats.scan_entries += fresh.size();
  if (obs != nullptr) {
    obs->trace(client_.now(), client_.node(), obs::TraceKind::kScanLeafRead, s.shard,
               hint.leaf_id, fresh.size());
  }
  s.take(fresh);
  if (decoded->last) s.done = true;
  pump();
}

void ScanCursor::finish(Status st) {
  if (finished_) return;
  finished_ = true;
  ClientStats& stats = client_.mutable_stats();
  ++stats.scans;
  stats.scan_latency.record(client_.now() - started_);
  auto cb = std::move(cb_);
  const auto self = std::move(self_);  // keep *this alive through the callback
  if (cb) cb(st, std::move(out_));
}

}  // namespace hydra::client
