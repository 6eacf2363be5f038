// Property tests for the flat connection index (util::IdMap keyed by
// CtTuple, as ConnTracker's orig/reply maps use it): random
// insert/erase/find churn must agree with a std::unordered_map
// reference at every step — across table growth, probe chains that
// wrap around the end of the slot array, and backward-shift deletion
// out of the middle of long chains.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "openflow/conntrack.hpp"
#include "util/id_map.hpp"
#include "util/rng.hpp"

namespace harmless {
namespace {

using openflow::CtTuple;

struct TupleHash {
  std::size_t operator()(const CtTuple& t) const { return static_cast<std::size_t>(t.key_hash()); }
};

/// A key whose hash the test picks, so it can pin the home slot of
/// every key: the map spreads hashes with Fibonacci hashing (multiply
/// by the golden-ratio constant, keep the top bits), and that constant
/// is odd, hence invertible mod 2^64.
struct PinnedKey {
  std::uint32_t id = 0;
  std::uint64_t hash = 0;
  [[nodiscard]] std::uint64_t key_hash() const { return hash; }
  friend bool operator==(const PinnedKey&, const PinnedKey&) = default;
};

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;
constexpr std::size_t kSmallCapacity = 64;  // the map's initial size
constexpr unsigned kSmallShift = 58;        // 64 - log2(kSmallCapacity)

std::uint64_t golden_inverse() {
  std::uint64_t x = kGolden;  // correct to 3 bits; Newton doubles that
  for (int i = 0; i < 5; ++i) x *= 2 - kGolden * x;
  return x;
}

/// A key with home slot `home` in a 64-slot table (distinct per id).
PinnedKey homed(std::uint32_t id, std::size_t home) {
  const std::uint64_t spread = (static_cast<std::uint64_t>(home) << kSmallShift) | id;
  return PinnedKey{id, spread * golden_inverse()};
}

TEST(ConntrackIndex, PinnedHomeSlotsLandWhereIntended) {
  for (std::size_t home = 0; home < kSmallCapacity; ++home) {
    const PinnedKey key = homed(7, home);
    EXPECT_EQ((key.hash * kGolden) >> kSmallShift, home);
  }
}

TEST(ConntrackIndex, RandomTupleChurnMatchesUnorderedMap) {
  // A small tuple universe (so keys recur: emplace on a live key, erase
  // of a dead one) that still grows the table well past its first
  // size, including the all-zero tuple, which is the empty marker and
  // lives in the side slot.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed);
    util::IdMap<std::uint32_t, CtTuple> index;
    std::unordered_map<CtTuple, std::uint32_t, TupleHash> reference;
    auto random_tuple = [&] {
      if (rng.chance(0.01)) return CtTuple{};
      return CtTuple{static_cast<std::uint32_t>(0x0a000000 + rng.below(64)),
                     static_cast<std::uint32_t>(0x08080800 + rng.below(4)),
                     static_cast<std::uint16_t>(1024 + rng.below(48)),
                     static_cast<std::uint16_t>(rng.chance(0.5) ? 80 : 443),
                     static_cast<std::uint8_t>(rng.chance(0.5) ? 6 : 17)};
    };
    std::size_t peak = 0;
    for (int step = 0; step < 60000; ++step) {
      const CtTuple key = random_tuple();
      // Insert-heavy for the first half (growth), erase-heavy after.
      const double insert_share = step < 30000 ? 0.7 : 0.3;
      const auto value = static_cast<std::uint32_t>(rng.below(1u << 30));
      if (rng.chance(insert_share)) {
        const bool inserted = index.emplace(key, value);
        const bool ref_inserted = reference.emplace(key, value).second;
        ASSERT_EQ(inserted, ref_inserted) << "seed " << seed << " step " << step;
      } else if (rng.chance(0.9)) {
        index.erase(key);
        reference.erase(key);
      } else {
        std::uint32_t taken = 0;
        const bool hit = index.take(key, &taken);
        const auto it = reference.find(key);
        ASSERT_EQ(hit, it != reference.end()) << "seed " << seed << " step " << step;
        if (hit) {
          EXPECT_EQ(taken, it->second);
          reference.erase(it);
        }
      }
      ASSERT_EQ(index.size(), reference.size()) << "seed " << seed << " step " << step;
      peak = std::max(peak, reference.size());
      const CtTuple probe = random_tuple();
      const std::uint32_t* found = index.find(probe);
      const auto it = reference.find(probe);
      ASSERT_EQ(found != nullptr, it != reference.end()) << "seed " << seed << " step " << step;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second);
      }
    }
    EXPECT_GT(peak, 4 * kSmallCapacity);  // the table really grew
    EXPECT_GT(index.capacity(), kSmallCapacity);
    // Every surviving key is still reachable with its first value.
    for (const auto& [key, value] : reference) {
      const std::uint32_t* found = index.find(key);
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(*found, value);
    }
  }
}

TEST(ConntrackIndex, WrappingProbeChainsMatchUnorderedMap) {
  // Keys homed on the last few slots and the first few, so probe chains
  // run off the end of the array and wrap to slot 0, and backward-shift
  // deletion has to pull wrapped followers back across the boundary.
  // The live set stays under the growth threshold (56 of 64), so the
  // table keeps its 64 slots and every chain keeps wrapping.
  const std::vector<std::size_t> homes = {58, 60, 61, 62, 63, 63, 0, 1, 2, 30};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    util::IdMap<std::uint32_t, PinnedKey> index;
    std::unordered_map<std::uint32_t, std::uint32_t> reference;  // key id -> value
    std::vector<PinnedKey> universe;
    for (std::uint32_t id = 1; id <= 80; ++id) universe.push_back(homed(id, homes[id % homes.size()]));

    for (int step = 0; step < 20000; ++step) {
      const PinnedKey& key = universe[rng.below(universe.size())];
      if (reference.size() < 48 && rng.chance(0.55)) {
        const auto value = static_cast<std::uint32_t>(step);
        ASSERT_EQ(index.emplace(key, value), reference.emplace(key.id, value).second);
      } else {
        index.erase(key);
        reference.erase(key.id);
      }
      ASSERT_EQ(index.capacity(), kSmallCapacity);
      ASSERT_EQ(index.size(), reference.size());
      for (const PinnedKey& probe : universe) {
        const std::uint32_t* found = index.find(probe);
        const auto it = reference.find(probe.id);
        ASSERT_EQ(found != nullptr, it != reference.end())
            << "seed " << seed << " step " << step << " key " << probe.id;
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
      }
    }
  }
}

TEST(ConntrackIndex, BackwardShiftKeepsDisplacedFollowersReachable) {
  // One long chain homed at slot 62 wraps to slot 9; keys homed at 0
  // and 1 sit behind it. Erasing from the chain's head, middle and
  // wrapped tail must leave every other key reachable, and erasing
  // everything must leave the table empty.
  util::IdMap<std::uint32_t, PinnedKey> index;
  std::vector<PinnedKey> keys;
  for (std::uint32_t id = 1; id <= 12; ++id) keys.push_back(homed(id, 62));
  keys.push_back(homed(100, 0));
  keys.push_back(homed(101, 1));
  for (std::size_t i = 0; i < keys.size(); ++i)
    ASSERT_TRUE(index.emplace(keys[i], static_cast<std::uint32_t>(i)));
  ASSERT_FALSE(index.emplace(keys[3], 999));  // insert-if-absent
  EXPECT_EQ(*index.find(keys[3]), 3u);

  for (const std::size_t victim : {0u, 5u, 11u, 12u, 1u}) {
    index.erase(keys[victim]);
    EXPECT_FALSE(index.contains(keys[victim]));
    keys[victim].id = 0;  // mark erased (ids stay unique otherwise)
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i].id == 0) continue;
      const std::uint32_t* found = index.find(keys[i]);
      ASSERT_NE(found, nullptr) << "after erasing " << victim << ", key " << i;
      EXPECT_EQ(*found, i);
    }
  }
  for (const PinnedKey& key : keys)
    if (key.id != 0) index.erase(key);
  EXPECT_TRUE(index.empty());
}

}  // namespace
}  // namespace harmless
