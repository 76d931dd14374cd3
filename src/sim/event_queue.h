// Discrete-event queue with a virtual clock.
//
// Events are ordered by (time, sequence-number); the sequence number makes
// ordering of simultaneous events deterministic (FIFO within a timestamp),
// which in turn makes every simulation run bit-reproducible. An event is
// either a closure or a fiber resume: a bare key naming the fiber to switch
// back into, which the kernel posts for every Sync.
//
// Layout: a 4-ary min-heap orders small {time, seq, ref} keys, where ref is
// a tagged pointer: a closure's slot, or a fiber with the low bit set. Each
// pending closure lives in a fixed-size slot of a chunked slab (chunks never
// move, so a running closure's slot stays valid while it posts more events).
// Captures up to kInlineBytes are constructed in the slot itself; larger or
// over-aligned ones are boxed on the heap. Freed slots go on an intrusive
// free list, so a steady-state simulation allocates nothing per event.

#ifndef AMBER_SRC_SIM_EVENT_QUEUE_H_
#define AMBER_SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/panic.h"
#include "src/base/time.h"
#include "src/sim/fiber.h"

namespace sim {

using amber::Duration;
using amber::Time;

class EventQueue {
 public:
  // Largest capture held in a slot without a heap box: enough for the
  // kernel's and the network's own closures (the fault-checked delivery
  // closure, which carries a std::function, is the largest at 64 bytes).
  static constexpr size_t kInlineBytes = 64;

  EventQueue() = default;
  ~EventQueue() {
    for (const Key& k : heap_) {
      if (!k.resume()) {
        k.slot()->ops->destroy(k.slot()->storage);
      }
    }
  }

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules fn to run at virtual time t. t must not be in the past.
  template <typename F>
  void Post(Time t, F&& fn) {
    AMBER_DCHECK(t >= now_) << "posting event in the past: " << t << " < " << now_;
    using Fn = std::decay_t<F>;
    Slot* slot = AllocSlot();
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(Slot)) {
      ::new (static_cast<void*>(slot->storage)) Fn(std::forward<F>(fn));
      slot->ops = &kInline<Fn>;
    } else {
      ::new (static_cast<void*>(slot->storage)) Fn*(new Fn(std::forward<F>(fn)));
      slot->ops = &kBoxed<Fn>;
    }
    Push(Key{t, next_seq_++, reinterpret_cast<uintptr_t>(slot)});
  }

  // Schedules fiber f to resume at virtual time t: a key with no closure.
  void PostResume(Time t, Fiber* f) {
    AMBER_DCHECK(t >= now_) << "posting event in the past: " << t << " < " << now_;
    Push(Key{t, next_seq_++, reinterpret_cast<uintptr_t>(f) | kResumeTag});
  }

  // Runs the earliest pending event, advancing the clock to its timestamp:
  // a closure is run, a resume key is handed to resume(fiber). Returns false
  // if no events remain. A closure stays in its slot while it runs (and may
  // post further events); the slot is freed afterwards.
  template <typename Resume>
  bool RunOne(Resume&& resume) {
    if (heap_.empty()) {
      return false;
    }
    const Key top = heap_[0];
    PopTop();
    now_ = top.when;
    if (top.resume()) {
      resume(top.fiber());
      return true;
    }
    Slot* slot = top.slot();
    slot->ops->run(slot->storage);
    slot->next_free = free_;
    free_ = slot;
    return true;
  }
  // For a queue that holds closures only.
  bool RunOne() {
    return RunOne([](Fiber*) { AMBER_PANIC("resume key in a queue without a resume handler"); });
  }

  // The fiber whose resume key is the earliest pending event; nullptr when a
  // closure is next or nothing is pending.
  Fiber* NextResume() const {
    return !heap_.empty() && heap_[0].resume() ? heap_[0].fiber() : nullptr;
  }

  // Removes the earliest pending event, which must be a resume key, and
  // advances the clock to it: RunOne without the call, for a caller that
  // switches to the fiber itself.
  Fiber* TakeResume() {
    AMBER_DCHECK(NextResume() != nullptr);
    const Key top = heap_[0];
    PopTop();
    now_ = top.when;
    return top.fiber();
  }

  bool Empty() const { return heap_.empty(); }
  size_t Size() const { return heap_.size(); }

  // Current virtual time: the timestamp of the most recently started event.
  Time now() const { return now_; }

  // Timestamp of the earliest pending event (queue must be non-empty).
  Time NextTime() const {
    AMBER_DCHECK(!heap_.empty());
    return heap_[0].when;
  }

  // Events started so far, the running one included.
  uint64_t events_run() const { return next_seq_ - heap_.size(); }

 private:
  // run invokes the closure and destroys it; destroy only destroys it.
  struct Ops {
    void (*run)(void* storage);
    void (*destroy)(void* storage);
  };
  struct Slot {
    union {
      unsigned char storage[kInlineBytes];
      Slot* next_free;
    };
    const Ops* ops;
  };
  // Low bit of Key::ref: set for a fiber resume, clear for a closure's slot.
  static constexpr uintptr_t kResumeTag = 1;
  static_assert(alignof(Fiber) > kResumeTag && alignof(Slot) > kResumeTag);
  struct Key {
    Time when;
    uint64_t seq;
    uintptr_t ref;
    bool operator<(const Key& o) const { return when != o.when ? when < o.when : seq < o.seq; }
    bool resume() const { return (ref & kResumeTag) != 0; }
    Fiber* fiber() const { return reinterpret_cast<Fiber*>(ref & ~kResumeTag); }
    Slot* slot() const { return reinterpret_cast<Slot*>(ref); }
  };
  static_assert(sizeof(Key) == 24, "heap keys stay three words");

  template <typename Fn>
  static Fn& Inline(void* p) {
    return *std::launder(static_cast<Fn*>(p));
  }
  template <typename Fn>
  static Fn*& Boxed(void* p) {
    return *std::launder(static_cast<Fn**>(p));
  }
  template <typename Fn>
  static constexpr Ops kInline = {
      [](void* p) {
        Fn& fn = Inline<Fn>(p);
        fn();
        fn.~Fn();
      },
      [](void* p) { Inline<Fn>(p).~Fn(); }};
  template <typename Fn>
  static constexpr Ops kBoxed = {
      [](void* p) {
        Fn* fn = Boxed<Fn>(p);
        (*fn)();
        delete fn;
      },
      [](void* p) { delete Boxed<Fn>(p); }};

  // Chunks stay under 1 KiB. glibc serves a request of 1 KiB or more only
  // after coalescing every free fast-bin chunk in the heap
  // (malloc_consolidate); after a Runtime's teardown those number in the
  // thousands, and an 18 KiB chunk made the first Post of the next Runtime
  // pay for them (up to 0.5 ms per Runtime in perfbench's serve set-up).
  static constexpr size_t kChunkSlots = 960 / sizeof(Slot);

  Slot* AllocSlot() {
    if (free_ == nullptr) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
      Slot* chunk = chunks_.back().get();
      for (size_t i = kChunkSlots; i-- > 0;) {
        chunk[i].next_free = free_;
        free_ = &chunk[i];
      }
    }
    Slot* slot = free_;
    free_ = slot->next_free;
    return slot;
  }

  void Push(const Key& key) {
    size_t i = heap_.size();
    heap_.push_back(key);
    while (i > 0) {
      const size_t parent = (i - 1) / 4;
      if (!(key < heap_[parent])) {
        break;
      }
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = key;
  }

  void PopTop() {
    const Key last = heap_.back();
    heap_.pop_back();
    const size_t n = heap_.size();
    if (n == 0) {
      return;
    }
    size_t i = 0;
    for (;;) {
      const size_t first = 4 * i + 1;
      if (first >= n) {
        break;
      }
      size_t best = first;
      const size_t end = first + 4 < n ? first + 4 : n;
      for (size_t c = first + 1; c < end; ++c) {
        if (heap_[c] < heap_[best]) {
          best = c;
        }
      }
      if (!(heap_[best] < last)) {
        break;
      }
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }

  std::vector<Key> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  Slot* free_ = nullptr;
  Time now_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace sim

#endif  // AMBER_SRC_SIM_EVENT_QUEUE_H_
