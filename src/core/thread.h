// Amber threads (§2.1).
//
// "The basic operations on threads are Start and Join. Start starts a thread
// executing an operation on a specified object. Join blocks the caller until
// the specified thread terminates, returning the result from the operation
// specified in the Start call."
//
// Threads are objects: a ThreadObject lives in the global object space and
// is always co-resident with its executing fiber — when the thread migrates,
// so does its object (and conceptually its stack, whose bytes are part of
// the migration payload). Joining a thread is an invocation *on the thread
// object*, so a Join chases the thread to wherever it last ran — the exact
// tradeoff §3.4 describes ("optimize remote invocations made by the thread
// at the expense of invocations made on the thread object itself").
//
// StartThread<R> returns a typed ThreadRef<R> whose Join() yields R.

#ifndef AMBER_SRC_CORE_THREAD_H_
#define AMBER_SRC_CORE_THREAD_H_

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/object.h"
#include "src/core/ref.h"
#include "src/core/runtime.h"

namespace amber {

class ThreadObject final : public Object {
 public:
  ThreadObject() = default;

  const std::string& name() const { return name_; }
  bool finished() const { return finished_; }

  // True while the thread's node is suspected down (membership lease
  // expired). Cleared if the node restarts; a lost thread's joiners get the
  // FailureHandler treatment (or a false TryJoin) instead of blocking
  // forever. See docs/FAULTS.md.
  bool lost() const { return lost_; }

  // Stores the operation result for Join (used by the StartThread wrapper).
  void set_result(std::shared_ptr<void> r) { result_ = std::move(r); }

 private:
  friend class Runtime;
  template <typename R>
  friend class ThreadRef;

  sim::Fiber* fiber_ = nullptr;
  void* stack_base_ = nullptr;
  std::function<void()> body_;
  std::vector<Frame> frames_;
  std::shared_ptr<void> result_;
  std::vector<sim::Fiber*> join_waiters_;
  std::string name_;
  // Runtime::EnsureResident's (node, stale hint) pairs for path compaction:
  // scratch kept across a thread's chases so a warm thread allocates none.
  // Per thread, since a chase can block mid-way while another thread
  // chases; released when the thread finishes.
  std::vector<std::pair<NodeId, NodeId>> chase_;
  bool resolving_ = false;  // re-entry guard for the residency resume hook
  bool finished_ = false;
  bool joined_ = false;
  bool reaped_ = false;
  bool lost_ = false;  // node suspected down; see lost()
};

// Typed handle to a started thread.
template <typename R>
class ThreadRef {
 public:
  ThreadRef() = default;
  explicit ThreadRef(ThreadObject* t) : t_(t) {}

  // Blocks until the thread terminates; returns the operation's result.
  // The joiner migrates to the thread object's node (see header comment).
  // A thread may be joined once; Join also reclaims the thread's stack.
  R Join() {
    Runtime& rt = Runtime::Current();
    rt.EnterInvocation(t_, 0);
    rt.JoinWait(t_);
    if constexpr (std::is_void_v<R>) {
      rt.ExitInvocation(0);
    } else {
      R out = *std::static_pointer_cast<R>(t_->result_);
      rt.ExitInvocation(rpc::WireSizeOf(out));
      return out;
    }
  }

  // Failure-aware join: true once the thread has terminated (reaping it,
  // like Join — at most one success per thread); false if the thread is
  // currently *lost*, i.e. its node is suspected down. Unlike Join the
  // caller does not migrate to the thread object, and a false return leaves
  // the thread joinable again — it may yet finish after a node restart, or
  // the caller re-runs the work elsewhere (the bench_chaos recovery driver).
  bool TryJoin() { return Runtime::Current().JoinWait(t_, /*fail_aware=*/true); }

  // The operation's result after a successful TryJoin() (Join() returns it
  // directly). Only meaningful for non-void R and after TryJoin() == true.
  template <typename U = R, typename = std::enable_if_t<!std::is_void_v<U>>>
  U result() const {
    return *std::static_pointer_cast<U>(t_->result_);
  }

  ThreadObject* object() const { return t_; }
  explicit operator bool() const { return t_ != nullptr; }

 private:
  ThreadObject* t_ = nullptr;
};

// Starts a new thread executing `method` on `target`. The thread begins on
// the creating node; its first action is the invocation, which migrates it
// to the target if remote. Arguments are captured by value.
template <typename T, typename R, typename... P, typename... A>
ThreadRef<R> StartThread(Ref<T> target, R (T::*method)(P...), A&&... args) {
  Runtime& rt = Runtime::Current();
  std::tuple<std::decay_t<P>...> bound(std::forward<A>(args)...);
  ThreadObject* t = rt.CreateThread(
      [target, method, bound = std::move(bound)]() mutable {
        if constexpr (std::is_void_v<R>) {
          std::apply([&](auto&... a) { target.Call(method, a...); }, bound);
        } else {
          R r = std::apply([&](auto&... a) { return target.Call(method, a...); }, bound);
          // Store through the thread's own record so Join can retrieve it.
          Runtime::Current().current_thread()->set_result(std::make_shared<R>(std::move(r)));
        }
      },
      /*name=*/"");
  return ThreadRef<R>(t);
}

// Const-method overload.
template <typename T, typename R, typename... P, typename... A>
ThreadRef<R> StartThread(Ref<T> target, R (T::*method)(P...) const, A&&... args) {
  Runtime& rt = Runtime::Current();
  std::tuple<std::decay_t<P>...> bound(std::forward<A>(args)...);
  ThreadObject* t = rt.CreateThread(
      [target, method, bound = std::move(bound)]() mutable {
        if constexpr (std::is_void_v<R>) {
          std::apply([&](auto&... a) { target.Call(method, a...); }, bound);
        } else {
          R r = std::apply([&](auto&... a) { return target.Call(method, a...); }, bound);
          Runtime::Current().current_thread()->set_result(std::make_shared<R>(std::move(r)));
        }
      },
      /*name=*/"");
  return ThreadRef<R>(t);
}

// Named/priority variant (priority is consulted by PriorityRunQueue, §2.1).
template <typename T, typename R, typename... P, typename... A>
ThreadRef<R> StartThreadNamed(std::string name, int priority, Ref<T> target,
                              R (T::*method)(P...), A&&... args) {
  Runtime& rt = Runtime::Current();
  std::tuple<std::decay_t<P>...> bound(std::forward<A>(args)...);
  ThreadObject* t = rt.CreateThread(
      [target, method, bound = std::move(bound)]() mutable {
        if constexpr (std::is_void_v<R>) {
          std::apply([&](auto&... a) { target.Call(method, a...); }, bound);
        } else {
          R r = std::apply([&](auto&... a) { return target.Call(method, a...); }, bound);
          Runtime::Current().current_thread()->set_result(std::make_shared<R>(std::move(r)));
        }
      },
      std::move(name), priority);
  return ThreadRef<R>(t);
}

}  // namespace amber

#endif  // AMBER_SRC_CORE_THREAD_H_
