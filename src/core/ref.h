// amber::Ref<T> — a location-independent object reference.
//
// A Ref is just the object's global virtual address (§3.1): 8 bytes,
// trivially copyable, meaningful on every node. Ref::Call is the invocation
// primitive: it performs the paper's entry- and return-time residency checks
// (§3.5) around the method call, migrating the calling thread to the
// object's node when it is remote (function shipping, §4.1) and back to the
// enclosing frame's object afterwards.
//
// In the original system a preprocessor inserted these checks into every
// operation; Call is the template-era equivalent. Direct access through
// unchecked() is the analogue of the C++ "performance features" of §3.6 —
// legal exactly when co-residency is otherwise guaranteed.

#ifndef AMBER_SRC_CORE_REF_H_
#define AMBER_SRC_CORE_REF_H_

#include <type_traits>
#include <utility>

#include "src/core/object.h"
#include "src/core/runtime.h"
#include "src/rpc/wire.h"

namespace amber {

template <typename T>
class Ref {
  // T may be incomplete here (self-referential object graphs); the
  // Object-derivation requirement is asserted inside Call/New instead.

 public:
  constexpr Ref() = default;
  explicit constexpr Ref(T* ptr) : ptr_(ptr) {}

  // Invokes `method` on the object with full location transparency. The
  // calling thread is charged the invocation checks and, if the object is
  // remote, migrates to it carrying the (wire-sized) arguments and migrates
  // back with the result.
  template <typename R, typename... P, typename... A>
  R Call(R (T::*method)(P...), A&&... args) const {
    return DoCall<R, P...>(method, std::forward<A>(args)...);
  }

  template <typename R, typename... P, typename... A>
  R Call(R (T::*method)(P...) const, A&&... args) const {
    return DoCall<R, P...>(method, std::forward<A>(args)...);
  }

  // Raw pointer escape hatch (§3.6): valid only when the caller knows the
  // object is co-resident (member objects, attached objects, just-invoked).
  T* unchecked() const { return ptr_; }

  Object* object() const { return ptr_; }

  // Where the object currently resides (Locate primitive, §2.3).
  NodeId Where() const { return Runtime::Current().Locate(ptr_); }

  explicit operator bool() const { return ptr_ != nullptr; }
  bool operator==(const Ref& other) const { return ptr_ == other.ptr_; }
  bool operator!=(const Ref& other) const { return ptr_ != other.ptr_; }

 private:
  template <typename R, typename... P, typename M, typename... A>
  R DoCall(M method, A&&... args) const {
    static_assert(std::is_base_of_v<Object, T>, "Ref<T> requires T : public amber::Object");
    static_assert(!std::is_reference_v<R>, "operations must return by value");
    Runtime& rt = Runtime::Current();
    // Coerce arguments to the declared parameter types up front so the wire
    // size charged is what actually travels.
    std::tuple<P...> actual(std::forward<A>(args)...);
    const int64_t args_bytes =
        std::apply([](const auto&... a) { return rpc::WireSizeOfAll(a...); }, actual);
    // Not ptr_->AmberPrimary(): ptr_ may dangle (see Object::PrimaryOf).
    rt.EnterInvocation(Object::PrimaryOf(ptr_), args_bytes);
    if constexpr (std::is_void_v<R>) {
      std::apply([&](auto&&... a) { (ptr_->*method)(std::forward<decltype(a)>(a)...); },
                 std::move(actual));
      rt.ExitInvocation(0);
    } else {
      R result = std::apply(
          [&](auto&&... a) { return (ptr_->*method)(std::forward<decltype(a)>(a)...); },
          std::move(actual));
      rt.ExitInvocation(rpc::WireSizeOf(result));
      return result;
    }
  }

  T* ptr_ = nullptr;
};

}  // namespace amber

#endif  // AMBER_SRC_CORE_REF_H_
