// Tests for FlatPtrMap, the open-addressing pointer map behind the descriptor
// tables and the runtime's object registry: a fixed-seed differential run
// against std::unordered_map over densely packed addresses (so probe runs
// cluster and collide), backward-shift erase across the end of the slot
// array, growth over many doublings, and ForEach's exactly-once visit.

#include "src/base/flat_ptr_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/base/rng.h"

namespace amber {
namespace {

using Map = FlatPtrMap<const uint64_t*, uint64_t>;

// The map's home slot for `key` at 16 slots (its initial capacity): the top
// four bits of the Fibonacci hash.
size_t HomeAt16(const uint64_t* key) {
  return static_cast<size_t>((reinterpret_cast<uintptr_t>(key) * 0x9E3779B97F4A7C15ull) >> 60);
}

// Every entry of `map` matches `want`, and nothing else is there.
void ExpectSame(const Map& map, const std::unordered_map<const uint64_t*, uint64_t>& want) {
  ASSERT_EQ(map.size(), want.size());
  size_t visited = 0;
  map.ForEach([&](const uint64_t* key, uint64_t value) {
    ++visited;
    const auto it = want.find(key);
    ASSERT_NE(it, want.end()) << "stray key";
    EXPECT_EQ(value, it->second);
  });
  EXPECT_EQ(visited, want.size());
  for (const auto& [key, value] : want) {
    const uint64_t* got = map.Find(key);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, value);
  }
}

TEST(FlatPtrMapTest, EmptyMapFindsNothing) {
  Map map;
  uint64_t x = 0;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), 0u);
  EXPECT_EQ(map.Find(&x), nullptr);
  EXPECT_FALSE(map.Erase(&x));
  map[&x] = 7;
  EXPECT_TRUE(map.Erase(&x));
  EXPECT_EQ(map.Find(&x), nullptr);
  EXPECT_FALSE(map.Erase(&x));
  EXPECT_EQ(map.size(), 0u);
}

TEST(FlatPtrMapTest, DifferentialAgainstUnorderedMap) {
  // 8-byte-aligned keys from one dense array: consecutive addresses, the
  // layout a segment allocator hands out.
  constexpr size_t kKeys = 6000;
  constexpr int kOps = 300000;
  std::vector<uint64_t> pool(kKeys);
  Map map;
  std::unordered_map<const uint64_t*, uint64_t> want;
  Rng rng(0xF1A7);
  int hits = 0;
  int erased = 0;
  for (int op = 0; op < kOps; ++op) {
    // Slide the hot key window so the table fills, drains and refills.
    const size_t window = 2000 + static_cast<size_t>(op / 1000 % 4) * 1000;
    const uint64_t* key = &pool[rng.Below(window)];
    const uint64_t value = rng.Next();
    switch (rng.Below(4)) {
      case 0:  // insert or overwrite
      case 1:
        map[key] = value;
        want[key] = value;
        break;
      case 2: {  // erase
        const bool present = want.erase(key) == 1;
        ASSERT_EQ(map.Erase(key), present) << "op " << op;
        erased += present ? 1 : 0;
        break;
      }
      case 3: {  // find
        const uint64_t* got = map.Find(key);
        const auto it = want.find(key);
        ASSERT_EQ(got != nullptr, it != want.end()) << "op " << op;
        if (got != nullptr) {
          ASSERT_EQ(*got, it->second) << "op " << op;
          ++hits;
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), want.size()) << "op " << op;
    ASSERT_LE(map.size() * 4, map.capacity() * 3) << "over the 3/4 load bound";
    if (op % 25000 == 0) {
      ExpectSame(map, want);
    }
  }
  ExpectSame(map, want);
  EXPECT_GT(hits, kOps / 10);
  EXPECT_GT(erased, kOps / 10);
}

TEST(FlatPtrMapTest, EraseAcrossTheWrapAround) {
  // Keys whose home is the last slot wrap onto slots 0, 1, ... and share the
  // run with keys homed at slots 0 and 1; erasing any one of them must
  // shift the rest back without losing an entry.
  std::vector<uint64_t> pool(4096);
  std::vector<const uint64_t*> keys;
  std::vector<int> wanted = {4, 2, 1};  // keys still wanted with home 15, 0, 1
  for (const uint64_t& x : pool) {
    const size_t home = HomeAt16(&x);
    const int bucket = home == 15 ? 0 : (home == 0 ? 1 : (home == 1 ? 2 : -1));
    if (bucket >= 0 && wanted[static_cast<size_t>(bucket)] > 0) {
      --wanted[static_cast<size_t>(bucket)];
      keys.push_back(&x);
    }
  }
  ASSERT_EQ(keys.size(), 7u) << "pool too small to find colliding keys";
  for (size_t victim = 0; victim < keys.size(); ++victim) {
    Map map;
    std::unordered_map<const uint64_t*, uint64_t> want;
    for (size_t i = 0; i < keys.size(); ++i) {
      map[keys[i]] = i;
      want[keys[i]] = i;
    }
    ASSERT_EQ(map.capacity(), 16u) << "the run must not be spread by a growth";
    ExpectSame(map, want);
    ASSERT_TRUE(map.Erase(keys[victim]));
    want.erase(keys[victim]);
    ExpectSame(map, want);
    // Drain the rest in a rotated order, checking after every erase.
    for (size_t k = 1; k < keys.size(); ++k) {
      const uint64_t* key = keys[(victim + 3 * k) % keys.size()];
      if (want.erase(key) == 1) {
        ASSERT_TRUE(map.Erase(key));
        ExpectSame(map, want);
      }
    }
  }
}

TEST(FlatPtrMapTest, GrowsAcrossDoublings) {
  constexpr size_t kKeys = 100000;
  std::vector<uint64_t> pool(kKeys);
  Map map;
  size_t last_capacity = 0;
  int doublings = 0;
  for (size_t i = 0; i < kKeys; ++i) {
    map[&pool[i]] = i * 3;
    if (map.capacity() != last_capacity) {
      if (last_capacity != 0) {
        EXPECT_EQ(map.capacity(), 2 * last_capacity);
        ++doublings;
      }
      last_capacity = map.capacity();
    }
    ASSERT_LE(map.size() * 4, map.capacity() * 3);
  }
  EXPECT_GE(doublings, 10);
  EXPECT_EQ(map.size(), kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    const uint64_t* got = map.Find(&pool[i]);
    ASSERT_NE(got, nullptr) << "key " << i << " lost in a rehash";
    EXPECT_EQ(*got, i * 3);
  }
  // Overwrites neither grow the table nor change its size.
  map[&pool[0]] = 1;
  EXPECT_EQ(map.capacity(), last_capacity);
  EXPECT_EQ(map.size(), kKeys);
}

TEST(FlatPtrMapTest, ForEachVisitsEachLiveKeyOnce) {
  std::vector<uint64_t> pool(3000);
  Map map;
  for (size_t i = 0; i < pool.size(); ++i) {
    map[&pool[i]] = i;
  }
  for (size_t i = 0; i < pool.size(); i += 3) {
    ASSERT_TRUE(map.Erase(&pool[i]));
  }
  std::map<const uint64_t*, int> seen;
  map.ForEach([&](const uint64_t* key, uint64_t value) {
    ++seen[key];
    EXPECT_EQ(&pool[value], key);
  });
  EXPECT_EQ(seen.size(), pool.size() - (pool.size() + 2) / 3);
  for (size_t i = 0; i < pool.size(); ++i) {
    const auto it = seen.find(&pool[i]);
    if (i % 3 == 0) {
      EXPECT_EQ(it, seen.end()) << "erased key " << i << " visited";
    } else {
      ASSERT_NE(it, seen.end()) << "live key " << i << " missed";
      EXPECT_EQ(it->second, 1) << "key " << i << " visited twice";
    }
  }
}

}  // namespace
}  // namespace amber
