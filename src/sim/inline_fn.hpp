// Move-only type-erased callable with inline storage.
//
// The simulator's events and NIC completions are one-shot closures that
// are created, moved once or twice and invoked once. `std::function` pays
// for copyability it never uses: every closure above its small buffer is
// heap-allocated, and a capture that cannot be copied (a `unique_ptr`, a
// moved-in payload vector owned by nobody else) has to be wrapped in a
// `shared_ptr` first. InlineFn keeps closures of up to `Capacity` bytes in
// place, falls back to exactly one heap allocation for larger ones, and
// accepts move-only captures.
//
// Like std::function, operator() is const and invokes the stored callable
// non-const, so `mutable` lambdas may move out of their captures.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace hydra::sim {

template <typename Sig, std::size_t Capacity>
class InlineFn;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFn<R(Args...), Capacity> {
 public:
  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFn> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (std::is_constructible_v<bool, const D&>) {
      if (!static_cast<bool>(f)) return;  // empty std::function / null pointer
    }
    if constexpr (stores_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
    }
    ops_ = &kOps<D>;
  }

  InlineFn(InlineFn&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }

  InlineFn& operator=(InlineFn&& o) noexcept {
    if (this != &o) {
      reset();
      if (o.ops_ != nullptr) {
        o.ops_->relocate(buf_, o.buf_);
        ops_ = o.ops_;
        o.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) const {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  /// True when a callable of type F is stored in place (no heap allocation).
  template <typename F>
  static constexpr bool stores_inline = sizeof(F) <= Capacity &&
                                        alignof(F) <= alignof(void*) &&
                                        std::is_nothrow_move_constructible_v<F>;

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    /// Move-constructs the callable at `dst` from `src` and ends `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  static D& target(void* storage) noexcept {
    if constexpr (stores_inline<D>) {
      return *std::launder(static_cast<D*>(storage));
    } else {
      return **std::launder(static_cast<D**>(storage));
    }
  }

  template <typename D>
  static constexpr Ops kOps{
      [](void* s, Args&&... args) -> R {
        return static_cast<R>(target<D>(s)(std::forward<Args>(args)...));
      },
      [](void* dst, void* src) noexcept {
        if constexpr (stores_inline<D>) {
          D& from = target<D>(src);
          ::new (dst) D(std::move(from));
          from.~D();
        } else {
          ::new (dst) D*(&target<D>(src));
        }
      },
      [](void* s) noexcept {
        if constexpr (stores_inline<D>) {
          target<D>(s).~D();
        } else {
          delete &target<D>(s);
        }
      },
  };

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  // Pointer alignment, not max_align_t: a 16-byte-aligned member would
  // round every closure that holds an InlineFn up to a multiple of 16.
  alignas(void*) mutable std::byte buf_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace hydra::sim
