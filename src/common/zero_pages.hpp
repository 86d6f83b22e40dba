// Zero-on-demand byte buffer for registered memory.
//
// Arenas, request/response slot regions and replication rings are sized
// for the worst case but touched sparsely. Backing them with a
// zero-initialised std::vector makes the host zero, and keep resident,
// every provisioned byte. ZeroPages maps anonymous private memory instead:
// every byte reads as zero, and a page becomes resident only once something
// writes to it, so host RSS tracks bytes touched rather than bytes
// provisioned.
//
// Two constraints shape the mapping (DESIGN.md §2):
//  * no per-buffer PROT_NONE guard page -- adjacent plain anonymous maps
//    merge into one VMA, while a guard page per buffer splits every map in
//    two and 100k client regions exceed vm.max_map_count;
//  * ASan still catches overflows: one extra page is mapped and everything
//    past size() is poisoned (a no-op outside ASan builds).
#pragma once

#include <cstddef>
#include <span>

namespace hydra {

class ZeroPages {
 public:
  ZeroPages() noexcept = default;
  /// Maps `size` zero bytes; throws std::bad_alloc if the map fails.
  explicit ZeroPages(std::size_t size);
  ~ZeroPages();

  ZeroPages(ZeroPages&& other) noexcept;
  ZeroPages& operator=(ZeroPages&& other) noexcept;
  ZeroPages(const ZeroPages&) = delete;
  ZeroPages& operator=(const ZeroPages&) = delete;

  [[nodiscard]] std::byte* data() noexcept { return data_; }
  [[nodiscard]] const std::byte* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  // Contiguous-range surface, so a ZeroPages converts to std::span.
  [[nodiscard]] std::byte* begin() noexcept { return data_; }
  [[nodiscard]] std::byte* end() noexcept { return data_ + size_; }
  [[nodiscard]] const std::byte* begin() const noexcept { return data_; }
  [[nodiscard]] const std::byte* end() const noexcept { return data_ + size_; }

  /// Resets every byte to zero by handing the pages back to the kernel
  /// (MADV_DONTNEED): the next read sees zeros and RSS drops accordingly.
  void zero() noexcept;

 private:
  void release() noexcept;

  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t mapped_ = 0;  ///< bytes mapped: size_ rounded up, plus one page
};

}  // namespace hydra
