// Small-buffer-optimized move-only callable wrapper.
//
// The event loop dispatches millions of callbacks per simulated second;
// std::function's 16-byte inline buffer forces a heap allocation for nearly
// every DSM/IO/scheduler callback (they capture a this-pointer, a page
// number, a transaction, ...). InlineFunction stores callables up to
// kInlineBytes in place — sized so every callback on the DSM protocol path
// fits — and only falls back to the heap for oversized captures (rare, cold
// paths like checkpoint batch closures).
//
// Relocation rule: a callable that is trivially copyable and fits inline (a
// capture of `this` plus a few ints or pointers — almost every message
// callback) is stored without a manager. Moving such a wrapper is one
// fixed-size copy of the buffer and destroying it does nothing, so a
// callback handed from layer to layer costs no indirect call per hop.
// Non-trivial captures (shared_ptr, std::function, a nested InlineFunction)
// and heap-fallback callables keep a manager that move-constructs and
// destroys the target. A moved-from wrapper is always empty.
//
// Differences from std::function: move-only (so move-only captures work),
// no target_type/RTTI, and invocation through a stored function pointer.

#ifndef FRAGVISOR_SRC_SIM_INLINE_FUNCTION_H_
#define FRAGVISOR_SRC_SIM_INLINE_FUNCTION_H_

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace fragvisor {

inline constexpr size_t kInlineFunctionBytes = 128;

template <typename Signature, size_t kInlineBytes = kInlineFunctionBytes>
class InlineFunction;

template <typename R, typename... Args, size_t kInlineBytes>
class InlineFunction<R(Args...), kInlineBytes> {
 public:
  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    Construct<D>(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) {
    Reset();
    return *this;
  }

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction& operator=(F&& f) {
    Reset();
    Construct<D>(std::forward<F>(f));
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  // Like std::function, invocation is const-qualified but may mutate the
  // target's captured state.
  R operator()(Args... args) const {
    return invoke_(const_cast<void*>(static_cast<const void*>(buf_)),
                   std::forward<Args>(args)...);
  }

  explicit operator bool() const { return invoke_ != nullptr; }
  friend bool operator==(const InlineFunction& f, std::nullptr_t) { return f.invoke_ == nullptr; }
  friend bool operator==(std::nullptr_t, const InlineFunction& f) { return f.invoke_ == nullptr; }
  friend bool operator!=(const InlineFunction& f, std::nullptr_t) { return f.invoke_ != nullptr; }
  friend bool operator!=(std::nullptr_t, const InlineFunction& f) { return f.invoke_ != nullptr; }

 private:
  enum class Op { kMoveTo, kDestroy };

  template <typename F>
  static constexpr bool kFitsInline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(std::max_align_t) &&
      std::is_move_constructible_v<F>;

  // Stored with no manager: relocated by copying the buffer, never destroyed.
  template <typename F>
  static constexpr bool kTrivial = kFitsInline<F> && std::is_trivially_copyable_v<F>;

  template <typename F>
  struct InlineHandler {
    static F* Get(void* buf) { return std::launder(reinterpret_cast<F*>(buf)); }
    static R Invoke(void* buf, Args&&... args) {
      return (*Get(buf))(std::forward<Args>(args)...);
    }
    static void Manage(Op op, void* self, void* dest) {
      F* f = Get(self);
      if (op == Op::kMoveTo) {
        ::new (dest) F(std::move(*f));
      }
      f->~F();
    }
  };

  template <typename F>
  struct HeapHandler {
    static F* Get(void* buf) { return *std::launder(reinterpret_cast<F**>(buf)); }
    static R Invoke(void* buf, Args&&... args) {
      return (*Get(buf))(std::forward<Args>(args)...);
    }
    static void Manage(Op op, void* self, void* dest) {
      if (op == Op::kMoveTo) {
        ::new (dest) (F*)(Get(self));  // steal the pointer
      } else {
        delete Get(self);
      }
    }
  };

  template <typename D, typename F>
  void Construct(F&& f) {
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      invoke_ = &InlineHandler<D>::Invoke;
      manage_ = kTrivial<D> ? nullptr : &InlineHandler<D>::Manage;
    } else {
      ::new (static_cast<void*>(buf_)) (D*)(new D(std::forward<F>(f)));
      invoke_ = &HeapHandler<D>::Invoke;
      manage_ = &HeapHandler<D>::Manage;
    }
  }

  void MoveFrom(InlineFunction& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (manage_ != nullptr) {
      manage_(Op::kMoveTo, other.buf_, buf_);
    } else if (invoke_ != nullptr) {
      // The bytes past the target (and its padding) are indeterminate;
      // copying them as unsigned char is well-defined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
      std::memcpy(buf_, other.buf_, kInlineBytes);
#pragma GCC diagnostic pop
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  void Reset() {
    if (manage_ != nullptr) {
      manage_(Op::kDestroy, buf_, nullptr);
      manage_ = nullptr;
    }
    invoke_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  R (*invoke_)(void*, Args&&...) = nullptr;
  void (*manage_)(Op, void*, void*) = nullptr;
};

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_SIM_INLINE_FUNCTION_H_
