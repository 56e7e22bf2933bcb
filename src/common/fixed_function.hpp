// Small-buffer move-only callable: the engine's task storage. A lambda
// whose captures fit InlineBytes is stored in place — no allocation of its
// own — and larger callables degrade to one heap allocation (never a
// silent compile break at a call site). Unlike std::function it supports
// move-only callables, which lets tasks own their buffers instead of
// sharing them.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace remio {

template <class Sig, std::size_t InlineBytes = 104>
class FixedFunction;

template <class R, class... Args, std::size_t InlineBytes>
class FixedFunction<R(Args...), InlineBytes> {
 public:
  FixedFunction() = default;

  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FixedFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  FixedFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= InlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = [](void* self, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<Fn*>(self)))(
            std::forward<Args>(args)...);
      };
      manage_ = [](void* self, void* dst) {
        Fn* fn = std::launder(reinterpret_cast<Fn*>(self));
        if (dst != nullptr) ::new (dst) Fn(std::move(*fn));
        fn->~Fn();
      };
    } else {
      // Out-of-line fallback: the buffer holds one owning pointer.
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      invoke_ = [](void* self, Args&&... args) -> R {
        return (**std::launder(reinterpret_cast<Fn**>(self)))(
            std::forward<Args>(args)...);
      };
      manage_ = [](void* self, void* dst) {
        // The stored Fn* is trivially destructible; moving just transplants
        // ownership of the heap callable.
        Fn** slot = std::launder(reinterpret_cast<Fn**>(self));
        if (dst != nullptr)
          ::new (dst) Fn*(*slot);
        else
          delete *slot;
      };
    }
  }

  FixedFunction(FixedFunction&& other) noexcept { move_from(other); }

  FixedFunction& operator=(FixedFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  FixedFunction(const FixedFunction&) = delete;
  FixedFunction& operator=(const FixedFunction&) = delete;

  ~FixedFunction() { reset(); }

  R operator()(Args... args) {
    return invoke_(buf_, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return invoke_ != nullptr; }

  void reset() {
    if (manage_ != nullptr) manage_(buf_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

 private:
  using Invoke = R (*)(void*, Args&&...);
  /// dst == nullptr: destroy. dst != nullptr: move-construct into dst, then
  /// destroy the source (the two-in-one shape keeps it a single pointer).
  using Manage = void (*)(void* self, void* dst);

  void move_from(FixedFunction& other) noexcept {
    if (other.manage_ != nullptr) other.manage_(other.buf_, buf_);
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[InlineBytes];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
};

}  // namespace remio
