// Maglev lookup-table properties (balance, minimal disruption) and
// the GroupTable select_table indirection it drives.
#include <gtest/gtest.h>

#include <map>

#include "controller/apps/maglev.hpp"
#include "openflow/group_table.hpp"
#include "util/strings.hpp"

namespace harmless::controller {
namespace {

std::vector<MaglevBackend> backends(int count) {
  std::vector<MaglevBackend> out;
  for (int i = 0; i < count; ++i)
    out.push_back(MaglevBackend{util::format("b%d", i), net::MacAddr::from_u64(0xb0 + i),
                                net::Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(10 + i)),
                                static_cast<std::uint32_t>(i + 2)});
  return out;
}

TEST(MaglevTable, EveryBackendOwnsWithinOneSlotOfMOverN) {
  for (const int n : {2, 3, 5, 7}) {
    const std::size_t m = 251;  // prime
    const auto table = MaglevLbApp::build_lookup_table(backends(n), m);
    ASSERT_EQ(table.size(), m);
    std::map<std::uint16_t, std::size_t> owned;
    for (const std::uint16_t slot : table) owned[slot]++;
    ASSERT_EQ(owned.size(), static_cast<std::size_t>(n));
    for (const auto& [backend, slots] : owned) {
      EXPECT_GE(slots, m / static_cast<std::size_t>(n)) << "n=" << n;
      EXPECT_LE(slots, m / static_cast<std::size_t>(n) + 1) << "n=" << n;
    }
  }
}

TEST(MaglevTable, RemovingABackendOnlyRemapsItsOwnSlots) {
  const std::size_t m = 251;
  const auto all = backends(5);
  const auto full = MaglevLbApp::build_lookup_table(all, m);

  // Drop the last backend; indices of the survivors stay the same, so
  // slot values are directly comparable.
  const std::vector<MaglevBackend> remaining(all.begin(), all.end() - 1);
  const auto reduced = MaglevLbApp::build_lookup_table(remaining, m);
  std::size_t moved = 0, freed = 0;
  for (std::size_t slot = 0; slot < m; ++slot) {
    if (full[slot] == 4) {
      ++freed;  // owned by the removed backend: must remap somewhere
      EXPECT_LT(reduced[slot], 4);
    } else if (reduced[slot] != full[slot]) {
      ++moved;  // disruption: a surviving backend's slot changed hands
    }
  }
  EXPECT_GT(freed, 0u);
  // Maglev's guarantee is *minimal* disruption, not zero: a removal
  // perturbs the round-robin interleaving slightly. Well under 20% of
  // surviving slots may move; naive `hash % n` would move ~75%.
  EXPECT_LT(moved, m / 5) << "moved=" << moved;
}

TEST(MaglevTable, DeterministicAcrossCalls) {
  const auto a = MaglevLbApp::build_lookup_table(backends(3), 251);
  const auto b = MaglevLbApp::build_lookup_table(backends(3), 251);
  EXPECT_EQ(a, b);
}

TEST(GroupSelectTable, LookupTableDrivesBucketChoiceAndValidates) {
  openflow::GroupTable groups;
  openflow::GroupEntry entry;
  entry.group_id = 1;
  entry.type = openflow::GroupType::kSelect;
  entry.buckets.resize(2);
  entry.buckets[0].actions = {openflow::output(1)};
  entry.buckets[1].actions = {openflow::output(2)};
  entry.select_table = {0, 1, 5};  // 5 out of range
  EXPECT_FALSE(groups.add(entry).is_ok());

  entry.select_table = {1, 1, 1};  // every flow -> bucket 1
  ASSERT_TRUE(groups.add(entry).is_ok());
  const auto* stored = groups.find(1);
  ASSERT_NE(stored, nullptr);
  for (std::uint64_t hash = 1; hash < 64; ++hash)
    EXPECT_EQ(groups.select_bucket(*stored, hash), 1u);
}

}  // namespace
}  // namespace harmless::controller
