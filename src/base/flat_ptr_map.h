// Open-addressing hash map keyed by pointers.
//
// Per-object metadata (a node's descriptor table, the runtime's object
// registry) is one small value per object address, looked up on every
// invocation. Entries sit inline in one power-of-two slot array instead of
// one malloc'd node each: a key is probed linearly from a multiplicative
// (Fibonacci) hash of its address, nullptr marks an empty slot (so a null
// key cannot be stored), and the load stays at most 3/4. Erase shifts the
// rest of the probe run back rather than leaving a tombstone, so a probe
// never scans a dead slot and the table never needs a cleanup rehash.
//
// Iteration follows slot order, i.e. depends on the keys' addresses: a caller
// that needs a deterministic order must sort. Inserting may move every entry,
// so no pointer returned by Find or operator[] survives an insertion of a new
// key, and ForEach's callback must not insert or erase.

#ifndef AMBER_SRC_BASE_FLAT_PTR_MAP_H_
#define AMBER_SRC_BASE_FLAT_PTR_MAP_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "src/base/panic.h"

namespace amber {

template <typename K, typename V>
class FlatPtrMap {
  static_assert(std::is_pointer_v<K>, "FlatPtrMap keys are pointers");

 public:
  size_t size() const { return size_; }
  size_t capacity() const { return slots_ == nullptr ? 0 : mask_ + 1; }

  V* Find(K key) {
    const size_t i = IndexOf(key);
    return i == kNotFound ? nullptr : &slots_[i].value;
  }
  const V* Find(K key) const {
    const size_t i = IndexOf(key);
    return i == kNotFound ? nullptr : &slots_[i].value;
  }

  // Returns the key's value, inserting a value-initialized one if absent.
  V& operator[](K key) {
    AMBER_DCHECK(key != nullptr) << "null key";
    if (slots_ != nullptr) {
      for (size_t i = Home(key);; i = (i + 1) & mask_) {
        Slot& s = slots_[i];
        if (s.key == key) {
          return s.value;
        }
        if (s.key == nullptr) {
          if ((size_ + 1) * 4 <= (mask_ + 1) * 3) {
            return Claim(s, key);
          }
          break;  // over the load bound: grow, then insert
        }
      }
    }
    Grow();
    return Claim(EmptySlotFor(key), key);
  }

  // Removes the key; returns whether it was present.
  bool Erase(K key) {
    size_t hole = IndexOf(key);
    if (hole == kNotFound) {
      return false;
    }
    // Backward shift: walk the rest of the probe run and pull back every
    // entry whose home lies at or before the hole, so no entry is ever
    // separated from its home by an empty slot.
    for (size_t j = (hole + 1) & mask_; slots_[j].key != nullptr; j = (j + 1) & mask_) {
      if (((j - Home(slots_[j].key)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  // Calls fn(key, value) once per entry, in slot order.
  template <typename F>
  void ForEach(F&& fn) const {
    for (size_t i = 0; i < capacity(); ++i) {
      const Slot& s = slots_[i];
      if (s.key != nullptr) {
        fn(s.key, s.value);
      }
    }
  }

 private:
  struct Slot {
    K key = nullptr;
    V value{};
  };

  static constexpr size_t kNotFound = ~size_t{0};
  static constexpr int kMinShift = 60;  // 16 slots

  size_t Home(K key) const {
    return static_cast<size_t>((reinterpret_cast<uintptr_t>(key) * 0x9E3779B97F4A7C15ull) >>
                               shift_);
  }

  size_t IndexOf(K key) const {
    if (size_ == 0) {
      return kNotFound;
    }
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) {
        return i;
      }
      if (slots_[i].key == nullptr) {
        return kNotFound;
      }
    }
  }

  Slot& EmptySlotFor(K key) {
    size_t i = Home(key);
    while (slots_[i].key != nullptr) {
      i = (i + 1) & mask_;
    }
    return slots_[i];
  }

  V& Claim(Slot& s, K key) {
    s.key = key;
    ++size_;
    return s.value;
  }

  void Grow() {
    const size_t old_capacity = capacity();
    const int shift = slots_ == nullptr ? kMinShift : shift_ - 1;
    AMBER_CHECK(shift > 0) << "FlatPtrMap capacity overflow";
    const size_t new_capacity = size_t{1} << (64 - shift);
    std::unique_ptr<Slot[]> old = std::exchange(slots_, std::make_unique<Slot[]>(new_capacity));
    shift_ = shift;
    mask_ = new_capacity - 1;
    for (size_t i = 0; i < old_capacity; ++i) {
      if (old[i].key != nullptr) {
        EmptySlotFor(old[i].key) = old[i];
      }
    }
  }

  std::unique_ptr<Slot[]> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  int shift_ = 64;
};

}  // namespace amber

#endif  // AMBER_SRC_BASE_FLAT_PTR_MAP_H_
