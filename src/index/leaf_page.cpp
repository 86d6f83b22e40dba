#include "index/leaf_page.hpp"

#include <cstring>
#include <limits>

namespace hydra::index {

namespace {

// Header layout (kLeafPageHeaderBytes = 48, little-endian):
//   [0]  magic          u32
//   [4]  count          u32
//   [8]  leaf_id        u64
//   [16] leaf_version   u64
//   [24] epoch          u64
//   [32] payload_bytes  u32   (entry region length, header excluded)
//   [36] flags          u32   (bit0: last leaf on this shard)
//   [40] checksum       u64   (word-wise FNV-1a over header-with-checksum-
//                              zeroed + payload; see page_checksum)
// Entries: repeated { klen u16, vlen u32, key bytes, value bytes }, packed
// without padding, so the payload is not word-aligned in general.
constexpr std::size_t kEntryOverhead = leaf_page_entry_bytes({}, {});
constexpr std::size_t kChecksumOffset = 40;

void put_u16(std::byte* p, std::uint16_t v) { std::memcpy(p, &v, sizeof v); }
void put_u32(std::byte* p, std::uint32_t v) { std::memcpy(p, &v, sizeof v); }
void put_u64(std::byte* p, std::uint64_t v) { std::memcpy(p, &v, sizeof v); }

std::uint16_t get_u16(const std::byte* p) {
  std::uint16_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
std::uint32_t get_u32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
std::uint64_t get_u64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

// FNV-1a stepped over 8-byte little-endian words, then over the byte tail.
// Every step (xor the input in, multiply by an odd constant mod 2^64) is a
// bijection of the running hash for a fixed input and of the input for a
// fixed hash, so changing any one word -- a fortiori any single byte or bit
// -- changes the result.
std::uint64_t fnv1a_words(std::uint64_t h, const std::byte* p, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    h ^= get_u64(p + i);
    h *= kFnvPrime;
  }
  for (; i < n; ++i) {
    h ^= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(p[i]));
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t page_checksum(std::span<const std::byte> encoded) {
  // Header words with the checksum field treated as zero, then the payload.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  h = fnv1a_words(h, encoded.data(), kChecksumOffset);
  h *= kFnvPrime;  // the zeroed checksum word: h ^= 0, h *= prime
  return fnv1a_words(h, encoded.data() + kLeafPageHeaderBytes,
                     encoded.size() - kLeafPageHeaderBytes);
}

}  // namespace

std::size_t leaf_page_bytes(const LeafPageEntries& entries) {
  std::size_t n = kLeafPageHeaderBytes;
  for (const auto& [k, v] : entries) n += leaf_page_entry_bytes(k, v);
  return n;
}

bool LeafPageWriter::add(std::string_view key, std::string_view value) {
  if (!ok_ || key.size() > std::numeric_limits<std::uint16_t>::max() ||
      value.size() > std::numeric_limits<std::uint32_t>::max() ||
      out_.size() < end_ || out_.size() - end_ < leaf_page_entry_bytes(key, value)) {
    ok_ = false;
    return false;
  }
  std::byte* p = out_.data() + end_;
  put_u16(p, static_cast<std::uint16_t>(key.size()));
  put_u32(p + 2, static_cast<std::uint32_t>(value.size()));
  std::memcpy(p + kEntryOverhead, key.data(), key.size());
  std::memcpy(p + kEntryOverhead + key.size(), value.data(), value.size());
  end_ += leaf_page_entry_bytes(key, value);
  ++count_;
  return true;
}

bool LeafPageWriter::finish(std::uint64_t leaf_id, std::uint64_t leaf_version,
                            std::uint64_t epoch, bool last) {
  if (!ok_ || out_.size() < end_) return false;
  std::byte* p = out_.data();
  put_u32(p, kLeafPageMagic);
  put_u32(p + 4, count_);
  put_u64(p + 8, leaf_id);
  put_u64(p + 16, leaf_version);
  put_u64(p + 24, epoch);
  put_u32(p + 32, static_cast<std::uint32_t>(end_ - kLeafPageHeaderBytes));
  put_u32(p + 36, last ? kLeafPageFlagLast : 0);
  put_u64(p + kChecksumOffset, page_checksum(out_.first(end_)));
  return true;
}

bool encode_leaf_page(std::span<std::byte> out, std::uint64_t leaf_id,
                      std::uint64_t leaf_version, std::uint64_t epoch, bool last,
                      const LeafPageEntries& entries) {
  if (out.size() < leaf_page_bytes(entries)) return false;
  LeafPageWriter w(out);
  for (const auto& [k, v] : entries) {
    if (!w.add(k, v)) return false;
  }
  return w.finish(leaf_id, leaf_version, epoch, last);
}

std::optional<LeafPage> decode_leaf_page(std::span<const std::byte> bytes) {
  if (bytes.size() < kLeafPageHeaderBytes) return std::nullopt;
  if (get_u32(bytes.data()) != kLeafPageMagic) return std::nullopt;
  const std::uint32_t count = get_u32(bytes.data() + 4);
  const std::uint32_t payload_bytes = get_u32(bytes.data() + 32);
  if (payload_bytes > bytes.size() - kLeafPageHeaderBytes) return std::nullopt;
  // Each entry needs at least its length fields; reject absurd counts before
  // walking (or allocating for) the payload.
  if (static_cast<std::uint64_t>(count) * kEntryOverhead > payload_bytes) {
    return std::nullopt;
  }
  const std::uint32_t flags = get_u32(bytes.data() + 36);
  if ((flags & ~kLeafPageFlagLast) != 0) return std::nullopt;

  const std::span<const std::byte> encoded =
      bytes.first(kLeafPageHeaderBytes + payload_bytes);
  if (get_u64(bytes.data() + kChecksumOffset) != page_checksum(encoded)) {
    return std::nullopt;
  }

  LeafPage page;
  page.leaf_id = get_u64(bytes.data() + 8);
  page.leaf_version = get_u64(bytes.data() + 16);
  page.epoch = get_u64(bytes.data() + 24);
  page.last = (flags & kLeafPageFlagLast) != 0;
  page.entries.reserve(count);
  std::size_t off = kLeafPageHeaderBytes;
  const std::size_t end = kLeafPageHeaderBytes + payload_bytes;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (end - off < kEntryOverhead) return std::nullopt;
    const std::uint16_t klen = get_u16(bytes.data() + off);
    const std::uint32_t vlen = get_u32(bytes.data() + off + 2);
    off += kEntryOverhead;
    if (end - off < static_cast<std::size_t>(klen) + vlen) return std::nullopt;
    const char* kp = reinterpret_cast<const char*>(bytes.data() + off);
    page.entries.emplace_back(std::string_view(kp, klen), std::string_view(kp + klen, vlen));
    off += static_cast<std::size_t>(klen) + vlen;
  }
  if (off != end) return std::nullopt;  // undeclared trailing bytes in the payload
  return page;
}

}  // namespace hydra::index
