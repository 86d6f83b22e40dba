#include "common/zero_pages.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <new>
#include <utility>

#include <sanitizer/asan_interface.h>

namespace hydra {
namespace {

std::size_t page_size() noexcept {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

ZeroPages::ZeroPages(std::size_t size) : size_(size) {
  if (size == 0) return;
  const std::size_t page = page_size();
  mapped_ = (size + page - 1) / page * page + page;
  // MAP_NORESERVE: the point of these buffers is to provision far more than
  // is ever touched, so no swap is accounted for the untouched remainder.
  void* p = mmap(nullptr, mapped_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  data_ = static_cast<std::byte*>(p);
  ASAN_POISON_MEMORY_REGION(data_ + size_, mapped_ - size_);
}

ZeroPages::~ZeroPages() { release(); }

ZeroPages::ZeroPages(ZeroPages&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_(std::exchange(other.mapped_, 0)) {}

ZeroPages& ZeroPages::operator=(ZeroPages&& other) noexcept {
  if (this != &other) {
    release();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_ = std::exchange(other.mapped_, 0);
  }
  return *this;
}

void ZeroPages::zero() noexcept {
  if (data_ != nullptr) madvise(data_, mapped_, MADV_DONTNEED);
}

void ZeroPages::release() noexcept {
  if (data_ == nullptr) return;
  // Unpoison first: a later map may reuse these addresses.
  ASAN_UNPOISON_MEMORY_REGION(data_, mapped_);
  munmap(data_, mapped_);
  data_ = nullptr;
  size_ = 0;
  mapped_ = 0;
}

}  // namespace hydra
