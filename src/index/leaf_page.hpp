// One-sided-traversable leaf page layout (DESIGN.md §13). The shard
// serializes B+-tree leaves into a small MR-registered mirror region;
// clients RDMA-Read a whole page and validate it locally: magic, word-wise
// FNV-1a checksum over the encoded prefix, (leaf_id, leaf_version) against
// the hint that advertised the page, and the routing epoch stamped at
// serialization time. Any mismatch (torn read, slot reuse, stale mirror,
// epoch advance) falls back to the message path, which is always correct.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

namespace hydra::index {

inline constexpr std::uint32_t kLeafPageMagic = 0x484C4631;  // "HLF1"
inline constexpr std::size_t kLeafPageHeaderBytes = 48;
inline constexpr std::uint32_t kLeafPageFlagLast = 1;  ///< no leaf follows on this shard

using LeafPageEntries = std::vector<std::pair<std::string_view, std::string_view>>;

/// A decoded page. `entries` are (key, value) views into the decoded bytes,
/// sorted; they are valid only while those bytes are.
struct LeafPage {
  std::uint64_t leaf_id = 0;
  std::uint64_t leaf_version = 0;
  std::uint64_t epoch = 0;  ///< routing epoch at serialization time
  bool last = false;
  LeafPageEntries entries;
};

/// Bytes one entry adds to a page: its length fields plus key and value.
[[nodiscard]] constexpr std::size_t leaf_page_entry_bytes(std::string_view key,
                                                          std::string_view value) noexcept {
  return 6 + key.size() + value.size();
}

/// Encoded size for the given entries, header included.
[[nodiscard]] std::size_t leaf_page_bytes(const LeafPageEntries& entries);

/// Incremental encoder: entries are copied straight from the caller's
/// storage into `out`, then finish() writes the header and checksum. `out`
/// may be larger than the page; the slack past the encoded prefix is ignored
/// by the decoder.
class LeafPageWriter {
 public:
  explicit LeafPageWriter(std::span<std::byte> out) noexcept : out_(out) {}

  /// Appends one entry (keys in ascending order). Returns false, and fails
  /// the page, when `out` is too small or the entry overflows a length field.
  bool add(std::string_view key, std::string_view value);

  /// Writes the header and checksum. Returns false when any add() failed or
  /// `out` cannot hold the header.
  bool finish(std::uint64_t leaf_id, std::uint64_t leaf_version, std::uint64_t epoch,
              bool last);

 private:
  std::span<std::byte> out_;
  std::size_t end_ = kLeafPageHeaderBytes;  ///< encoded prefix so far
  std::uint32_t count_ = 0;
  bool ok_ = true;
};

/// Serializes a whole page into `out`. Returns false when `out` is too
/// small or an entry overflows the length fields.
bool encode_leaf_page(std::span<std::byte> out, std::uint64_t leaf_id,
                      std::uint64_t leaf_version, std::uint64_t epoch, bool last,
                      const LeafPageEntries& entries);

/// Hardened decode: every length is bounds-checked against the declared
/// payload, the checksum must match, and the entry region must be consumed
/// exactly. Returns nullopt on any inconsistency -- never a wild read. The
/// entries alias `bytes`; nothing is copied.
[[nodiscard]] std::optional<LeafPage> decode_leaf_page(std::span<const std::byte> bytes);

}  // namespace hydra::index
