// A move-only callable wrapper with a fixed small buffer and no heap
// fallback. The event loop stores every scheduled callback in one of these,
// so per-event capture state (including a whole tcpip::Packet moving through
// a netsim stage) lives inside the scheduler's slot array instead of in a
// std::function heap allocation. A callable that does not fit is a compile
// error, not a silent allocation — raise Capacity at the use site instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace reorder::util {

template <class Signature, std::size_t Capacity>
class InplaceFunction;  // primary template intentionally undefined

/// Move-only small-buffer function: like std::function but the target is
/// always stored inline (`Capacity` bytes, max_align_t aligned) and must be
/// nothrow-move-constructible. Empty instances are default-constructed or
/// moved-from; invoking an empty InplaceFunction is undefined (call sites
/// check operator bool, exactly as with a null function pointer).
template <class R, class... Args, std::size_t Capacity>
class InplaceFunction<R(Args...), Capacity> {
 public:
  InplaceFunction() noexcept = default;
  InplaceFunction(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InplaceFunction> &&
             std::is_invocable_r_v<R, std::remove_cvref_t<F>&, Args...>)
  InplaceFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    init(std::forward<F>(f));
  }

  /// Destroys any current target and constructs `f` directly in the
  /// buffer — the zero-extra-move path for callers that own the storage
  /// (the scheduler constructs callbacks straight into their slot).
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InplaceFunction> &&
             std::is_invocable_r_v<R, std::remove_cvref_t<F>&, Args...>)
  void emplace(F&& f) {
    reset();
    init(std::forward<F>(f));
  }

  InplaceFunction(InplaceFunction&& other) noexcept { take_from(other); }

  InplaceFunction& operator=(InplaceFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take_from(other);
    }
    return *this;
  }

  InplaceFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;

  ~InplaceFunction() { reset(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  R operator()(Args... args) { return invoke_(buf_, std::forward<Args>(args)...); }

  /// Destroys the target (releasing whatever it captured) and goes empty.
  void reset() noexcept {
    if (relocate_ != nullptr) relocate_(buf_, nullptr);
    invoke_ = nullptr;
    relocate_ = nullptr;
    trivial_bytes_ = 0;
  }

 private:
  using InvokePtr = R (*)(void*, Args&&...);
  /// Move-constructs the target at `dst` (or nowhere when null) and
  /// destroys it at `self` — one pointer covers both move and destroy.
  /// Null for empty instances and for trivially-relocatable targets, which
  /// use the memcpy path keyed off trivial_bytes_ instead.
  using RelocatePtr = void (*)(void* self, void* dst) noexcept;

  template <class F>
  void init(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    static_assert(sizeof(Fn) <= Capacity,
                  "callable too large for InplaceFunction buffer; raise Capacity");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "callable over-aligned for InplaceFunction buffer");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "InplaceFunction targets must be nothrow-move-constructible");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    invoke_ = [](void* self, Args&&... args) -> R {
      return (*static_cast<Fn*>(self))(std::forward<Args>(args)...);
    };
    if constexpr (std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>) {
      // Fast path for POD-ish captures (a timer's `this` + its run's,
      // plain state blocks): moves are a small memcpy and destruction is free —
      // no indirect relocate call on the scheduler's per-event path.
      trivial_bytes_ = static_cast<std::uint32_t>(sizeof(Fn));
    } else {
      relocate_ = [](void* self, void* dst) noexcept {
        Fn* fn = static_cast<Fn*>(self);
        if (dst != nullptr) ::new (dst) Fn(std::move(*fn));
        fn->~Fn();
      };
    }
  }

  void take_from(InplaceFunction& other) noexcept {
    if (other.relocate_ != nullptr) {
      other.relocate_(other.buf_, buf_);
    } else if (other.trivial_bytes_ != 0) {
      std::memcpy(buf_, other.buf_, other.trivial_bytes_);
    } else {
      return;  // other is empty
    }
    invoke_ = other.invoke_;
    relocate_ = other.relocate_;
    trivial_bytes_ = other.trivial_bytes_;
    other.invoke_ = nullptr;
    other.relocate_ = nullptr;
    other.trivial_bytes_ = 0;
  }

  // Header before buffer: a small capture and the dispatch pointers then
  // share cache lines, which matters when thousands of these live in the
  // scheduler's slot array.
  InvokePtr invoke_{nullptr};
  RelocatePtr relocate_{nullptr};
  std::uint32_t trivial_bytes_{0};
  alignas(std::max_align_t) unsigned char buf_[Capacity];
};

}  // namespace reorder::util
