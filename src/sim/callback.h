// Small-buffer-optimized callable for the simulation hot path.
//
// Replaces std::function<void()> on every scheduled event. The inline
// buffer is sized for the largest per-packet closure in src/ (a delivery
// that carries a 64-byte Packet), so scheduling a packet event performs no
// heap allocation; each of those closures pins this with a static_assert
// on FitsInline. Larger or throwing-move callables fall back to one heap
// allocation, preserving std::function generality. Move-only by design —
// events are scheduled once and fired once, so copies would only hide
// accidental capture duplication.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace occamy::sim {

class Callback {
 public:
  // Inline storage for the captured state: on x86-64, 88 bytes is the
  // largest closure that carries a 64-byte Packet (net::Network's arrival:
  // two pointers, a port and the packet); the host and switch TX-completion
  // closures take 72 and 80. With the ops pointer a Callback is 96 bytes,
  // and an EventQueue arena slot 112.
  static constexpr size_t kInlineBytes = 88;

  Callback() = default;
  Callback(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        !std::is_same_v<D, std::nullptr_t> &&
                                        std::is_invocable_r_v<void, D&>>>
  Callback(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (FitsInline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  Callback(Callback&& other) noexcept { MoveFrom(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  Callback& operator=(std::nullptr_t) {
    Reset();
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

  // True if the wrapped callable lives in the inline buffer (test hook).
  bool IsInlineForTest() const { return ops_ != nullptr && ops_->inline_storage; }

  // True if a callable of type D is stored inline. Hot closures
  // static_assert it, so growing one past the buffer fails the build
  // instead of adding a heap allocation per event.
  template <typename D>
  static constexpr bool FitsInline() {
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-constructs the callable from `from` into `to`, then destroys the
    // original (used when the Callback object itself is moved).
    void (*relocate)(void* from, void* to);
    void (*destroy)(void*);
    bool inline_storage;
  };

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); },
      [](void* from, void* to) {
        D* f = std::launder(reinterpret_cast<D*>(from));
        ::new (to) D(std::move(*f));
        f->~D();
      },
      [](void* p) { std::launder(reinterpret_cast<D*>(p))->~D(); },
      /*inline_storage=*/true,
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* p) { (**reinterpret_cast<D**>(p))(); },
      [](void* from, void* to) { std::memcpy(to, from, sizeof(D*)); },
      [](void* p) { delete *reinterpret_cast<D**>(p); },
      /*inline_storage=*/false,
  };

  void MoveFrom(Callback& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(other.storage_, storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace occamy::sim
