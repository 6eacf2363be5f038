// Flow-cache behavior and invalidation edges.
//
// The fast path must (a) actually hit — microflow tier for repeated
// 5-tuples, megaflow tier for wildcarded aggregates — and (b) get out
// of the way the instant the pipeline state it memoized changes: flow
// expiry, cookie-based deletion, group-mods and port state changes
// must each invalidate affected entries so the next packet re-learns.
#include <gtest/gtest.h>

#include "net/build.hpp"
#include "net/ethernet.hpp"
#include "openflow/pipeline.hpp"
#include "sim/network.hpp"
#include "softswitch/soft_switch.hpp"
#include "util/rng.hpp"

namespace harmless::softswitch {
namespace {

using namespace net;
using namespace openflow;
using sim::Host;
using sim::LinkSpec;
using sim::Network;

Packet udp_packet(std::uint64_t src_mac, std::uint64_t dst_mac, std::uint16_t src_port,
                  std::uint16_t dst_port = 80) {
  FlowKey key;
  key.eth_src = MacAddr::from_u64(src_mac);
  key.eth_dst = MacAddr::from_u64(dst_mac);
  key.ip_src = Ipv4Addr(10, 0, 0, 1);
  key.ip_dst = Ipv4Addr(10, 0, 0, 2);
  key.src_port = src_port;
  key.dst_port = dst_port;
  return make_udp(key, 100);
}

FlowEntry l2_entry(std::uint64_t dst_mac, std::uint32_t out_port,
                   std::uint16_t priority = 10) {
  FlowEntry entry;
  entry.priority = priority;
  entry.match.eth_dst(MacAddr::from_u64(dst_mac));
  entry.instructions = apply({output(out_port)});
  return entry;
}

// ---------------------------------------------------------------- tiers

TEST(FlowCache, MicroflowTierServesRepeatedFiveTuples) {
  Pipeline pipeline(1);
  ASSERT_TRUE(pipeline.table(0).add(l2_entry(0x2, 2), 0).is_ok());

  for (int i = 0; i < 5; ++i) {
    auto result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 1000 + i);
    EXPECT_EQ(result.cache_hit, i > 0) << "packet " << i;
    ASSERT_EQ(result.outputs.size(), 1u);
    EXPECT_EQ(result.outputs[0].first, 2u);
  }
  EXPECT_EQ(pipeline.cache().stats().misses, 1u);
  EXPECT_EQ(pipeline.cache().stats().microflow_hits, 4u);
  EXPECT_EQ(pipeline.cache().stats().megaflow_hits, 0u);
  // The one slow path installed one megaflow covering all five packets.
  EXPECT_EQ(pipeline.cache().megaflow_count(), 1u);
}

TEST(FlowCache, MegaflowTierCoversFieldsNoRuleExamines) {
  Pipeline pipeline(1);
  ASSERT_TRUE(pipeline.table(0).add(l2_entry(0x2, 2), 0).is_ok());

  // Vary the L4 source port: distinct microflows, one megaflow — no
  // rule ever looks at L4, so the learned entry wildcards it.
  for (std::uint16_t port = 0; port < 32; ++port) {
    auto result = pipeline.run(udp_packet(0x1, 0x2, 1024 + port), 1, 1000 + port);
    EXPECT_EQ(result.cache_hit, port > 0) << "port " << port;
  }
  EXPECT_EQ(pipeline.cache().megaflow_count(), 1u);
  EXPECT_EQ(pipeline.cache().stats().megaflow_hits, 31u);
  // Repeating a port now hits the microflow tier.
  auto result = pipeline.run(udp_packet(0x1, 0x2, 1024), 1, 5000);
  EXPECT_TRUE(result.cache_hit);
  EXPECT_EQ(pipeline.cache().stats().microflow_hits, 1u);
}

TEST(FlowCache, RewrittenFieldsDoNotFragmentMegaflows) {
  // A rule matching only in_port that rewrites eth_dst: the rewrite's
  // success depends on packet structure, not the old value, so flows
  // with different original destinations must share one megaflow.
  Pipeline pipeline(1);
  FlowEntry entry;
  entry.priority = 10;
  entry.match.in_port(1);
  entry.instructions =
      apply({set_eth_dst(MacAddr::from_u64(0x999)), output(2)});
  ASSERT_TRUE(pipeline.table(0).add(std::move(entry), 0).is_ok());

  for (std::uint64_t dst = 1; dst <= 8; ++dst) {
    auto result = pipeline.run(udp_packet(0x1, dst, 5555), 1, 1000 + static_cast<sim::SimNanos>(dst));
    EXPECT_EQ(result.cache_hit, dst > 1) << "dst " << dst;
    ASSERT_EQ(result.outputs.size(), 1u);
    EXPECT_EQ(result.outputs[0].first, 2u);
    // The rewrite really happened on the replayed path too.
    const auto parsed = net::parse_packet(result.outputs[0].second);
    EXPECT_EQ(parsed.eth_dst.to_u64(), 0x999u) << "dst " << dst;
  }
  EXPECT_EQ(pipeline.cache().megaflow_count(), 1u);
}

TEST(FlowCache, UnsupportedSetFieldDoesNotSuppressLearning) {
  // set_field on a field action.cpp cannot rewrite (e.g. ip_dscp)
  // silently no-ops, so the packet keeps its original value and a
  // later table's examination of it must still be learned — otherwise
  // one flow's megaflow would wrongly cover packets with other values.
  Pipeline pipeline(2);
  FlowEntry rewrite;
  rewrite.priority = 10;
  rewrite.match.in_port(1);
  rewrite.instructions =
      apply_then_goto({SetFieldAction{Field::kIpDscp, 46}}, 1);
  ASSERT_TRUE(pipeline.table(0).add(std::move(rewrite), 0).is_ok());
  FlowEntry dscp_zero;
  dscp_zero.priority = 20;
  dscp_zero.match.eth_type(0x0800).set(Field::kIpDscp, 0);
  dscp_zero.instructions = apply({output(2)});
  ASSERT_TRUE(pipeline.table(1).add(std::move(dscp_zero), 0).is_ok());
  FlowEntry fallback;
  fallback.priority = 0;
  fallback.instructions = apply({output(3)});
  ASSERT_TRUE(pipeline.table(1).add(std::move(fallback), 0).is_ok());

  // dscp=0 packet learns the dscp_zero path...
  auto result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 100);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].first, 2u);
  // ...and a dscp=46 packet must NOT be covered by that megaflow.
  net::Packet marked = udp_packet(0x1, 0x2, 5555);
  {
    auto& frame = marked.frame();
    frame[net::kEthHeaderSize + 1] = 46 << 2;  // IPv4 DSCP field
  }
  result = pipeline.run(std::move(marked), 1, 200);
  EXPECT_FALSE(result.cache_hit);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].first, 3u);
}

TEST(FlowCache, CachedDropIsStillADrop) {
  Pipeline pipeline(1);  // empty table: OF1.3 default-drops
  for (int i = 0; i < 3; ++i) {
    auto result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 1000 + i);
    EXPECT_TRUE(result.dropped());
    EXPECT_FALSE(result.matched);
    EXPECT_EQ(result.cache_hit, i > 0);
  }
}

// --------------------------------------------------------- invalidation

TEST(FlowCache, FlowModInvalidatesAffectedEntries) {
  Pipeline pipeline(1);
  ASSERT_TRUE(pipeline.table(0).add(l2_entry(0x2, 2), 0).is_ok());
  (void)pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 1000);  // learn
  ASSERT_TRUE(pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 1001).cache_hit);

  // A higher-priority rule re-points the flow; the stale cached output
  // must not survive.
  ASSERT_TRUE(pipeline.table(0).add(l2_entry(0x2, 3, /*priority=*/20), 1002).is_ok());
  auto result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 1003);
  EXPECT_FALSE(result.cache_hit);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].first, 3u);
  EXPECT_GE(pipeline.cache().stats().invalidations, 1u);
  // And the re-learned entry serves the new rule from the cache.
  result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 1004);
  EXPECT_TRUE(result.cache_hit);
  EXPECT_EQ(result.outputs[0].first, 3u);
}

TEST(FlowCache, ExpirySweepInvalidates) {
  Pipeline pipeline(1);
  FlowEntry entry = l2_entry(0x2, 2);
  entry.hard_timeout = 10'000;
  ASSERT_TRUE(pipeline.table(0).add(std::move(entry), 0).is_ok());
  (void)pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 100);
  ASSERT_TRUE(pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 200).cache_hit);

  ASSERT_EQ(pipeline.collect_expired(20'000).size(), 1u);
  auto result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 20'100);
  EXPECT_FALSE(result.cache_hit);
  EXPECT_TRUE(result.dropped());  // the rule is gone; default drop
}

TEST(FlowCache, LazyExpiryWithoutSweepInvalidates) {
  // No sweep runs here: the cached entry itself must refuse to hit once
  // a referenced flow entry has timed out, and the resulting slow path
  // performs the table's lazy expiry.
  Pipeline pipeline(1);
  FlowEntry entry = l2_entry(0x2, 2);
  entry.idle_timeout = 10'000;
  ASSERT_TRUE(pipeline.table(0).add(std::move(entry), 0).is_ok());
  (void)pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 100);
  // Cache hits keep refreshing the idle timer, exactly like real hits.
  ASSERT_TRUE(pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 8'000).cache_hit);
  ASSERT_TRUE(pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 16'000).cache_hit);

  // A 10 ms silence idles the rule out; the next packet must slow-path.
  auto result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 40'000);
  EXPECT_FALSE(result.cache_hit);
  EXPECT_TRUE(result.dropped());
  EXPECT_EQ(pipeline.table(0).size(), 0u);  // lazy expiry fired
}

TEST(FlowCache, RemoveByCookieInvalidates) {
  Pipeline pipeline(1);
  FlowEntry entry = l2_entry(0x2, 2);
  entry.cookie = 0xbeef;
  ASSERT_TRUE(pipeline.table(0).add(std::move(entry), 0).is_ok());
  (void)pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 100);
  ASSERT_TRUE(pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 200).cache_hit);

  ASSERT_EQ(pipeline.table(0).remove_by_cookie(0xbeef).size(), 1u);
  auto result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 300);
  EXPECT_FALSE(result.cache_hit);
  EXPECT_TRUE(result.dropped());
}

TEST(FlowCache, GroupModInvalidates) {
  Pipeline pipeline(1);
  GroupEntry group_entry;
  group_entry.group_id = 7;
  group_entry.type = GroupType::kIndirect;
  group_entry.buckets.push_back(Bucket{{output(2)}, 1, 0});
  ASSERT_TRUE(pipeline.groups().add(group_entry).is_ok());

  FlowEntry entry;
  entry.priority = 10;
  entry.match.eth_dst(MacAddr::from_u64(0x2));
  entry.instructions = apply({group(7)});
  ASSERT_TRUE(pipeline.table(0).add(std::move(entry), 0).is_ok());

  (void)pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 100);
  auto result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 200);
  ASSERT_TRUE(result.cache_hit);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].first, 2u);

  // Re-point the group: the cached program references the group id, so
  // it must re-learn (and then serve the new bucket from the cache).
  group_entry.buckets[0].actions = {output(3)};
  ASSERT_TRUE(pipeline.groups().modify(group_entry).is_ok());
  result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 300);
  EXPECT_FALSE(result.cache_hit);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].first, 3u);
  result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 400);
  EXPECT_TRUE(result.cache_hit);
  EXPECT_EQ(result.outputs[0].first, 3u);
}

TEST(FlowCache, PortStateChangeInvalidates) {
  Network network;
  auto& sw = network.add_node<SoftSwitch>("ss", 0x1, 3);
  auto& h1 = network.add_host("h1", MacAddr::from_u64(0x1), Ipv4Addr(10, 0, 0, 1));
  auto& h2 = network.add_host("h2", MacAddr::from_u64(0x2), Ipv4Addr(10, 0, 0, 2));
  auto& h3 = network.add_host("h3", MacAddr::from_u64(0x3), Ipv4Addr(10, 0, 0, 3));
  network.connect(h1, 0, sw, 0, LinkSpec::gbps(1));
  network.connect(h2, 0, sw, 1, LinkSpec::gbps(1));
  network.connect(h3, 0, sw, 2, LinkSpec::gbps(1));

  FlowModMsg mod;
  mod.priority = 10;
  mod.match.eth_dst(h2.mac());
  mod.instructions = apply({output(2)});
  ASSERT_TRUE(sw.install(mod).is_ok());

  auto send_one = [&] {
    FlowKey key;
    key.eth_src = h1.mac();
    key.eth_dst = h2.mac();
    key.ip_src = h1.ip();
    key.ip_dst = h2.ip();
    key.dst_port = 80;
    h1.send(make_udp(key, 100));
    network.run();
  };

  send_one();
  send_one();
  EXPECT_EQ(sw.counters().cache_hits, 1u);
  EXPECT_EQ(sw.counters().cache_misses, 1u);
  const std::uint64_t invalidations_before = sw.counters().cache_invalidations;

  sw.set_port_state(2, /*up=*/false);
  EXPECT_GT(sw.counters().cache_invalidations, invalidations_before);
  send_one();  // re-learns; the packet is dropped at the down port
  EXPECT_EQ(sw.counters().cache_misses, 2u);
  EXPECT_EQ(h2.counters().rx_udp, 2u);

  sw.set_port_state(2, /*up=*/true);
  send_one();  // port back up: re-learn again, delivery resumes
  EXPECT_EQ(sw.counters().cache_misses, 3u);
  EXPECT_EQ(h2.counters().rx_udp, 3u);
}

// ------------------------------------------------------------- counters

TEST(FlowCache, CacheHitsKeepFlowCountersExact) {
  Pipeline pipeline(1);
  ASSERT_TRUE(pipeline.table(0).add(l2_entry(0x2, 2), 0).is_ok());
  std::size_t bytes = 0;
  for (int i = 0; i < 4; ++i) {
    net::Packet packet = udp_packet(0x1, 0x2, 5555);
    bytes += packet.size();
    (void)pipeline.run(std::move(packet), 1, 1000 + i);
  }
  const auto entries = pipeline.table(0).entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0]->packet_count, 4u);
  EXPECT_EQ(entries[0]->byte_count, bytes);
  EXPECT_EQ(pipeline.table(0).counters().lookups, 4u);
  EXPECT_EQ(pipeline.table(0).counters().matches, 4u);
}

TEST(FlowCache, CapacityPressureEvictsInsteadOfGrowingUnbounded) {
  Pipeline pipeline(1);
  FlowCache::Limits limits;
  limits.max_megaflows = 8;
  limits.max_microflows = 64;
  pipeline.cache().set_limits(limits);
  // Each destination MAC is its own megaflow (the rule set is per-dst);
  // 100 dsts against an 8-entry cache must evict one at a time (CLOCK),
  // never grow past the limit.
  for (std::uint64_t dst = 1; dst <= 100; ++dst) {
    ASSERT_TRUE(pipeline.table(0).add(l2_entry(dst, 2), 0).is_ok());
  }
  for (std::uint64_t dst = 1; dst <= 100; ++dst)
    (void)pipeline.run(udp_packet(0x777, dst, 5555), 1, 1000 + static_cast<sim::SimNanos>(dst));
  EXPECT_LE(pipeline.cache().megaflow_count(), 8u);
  EXPECT_GE(pipeline.cache().stats().evictions, 92u);
}

TEST(FlowCache, SubtablesProbePerMaskNotPerEntry) {
  // The dpcls classifier's whole point: tier-2 lookup cost is counted
  // (and billed) per distinct mask signature, not per resident entry —
  // and the linear-scan ablation still reports per-entry comparisons.
  FlowCache cache;
  auto view_for = [](std::uint64_t dst, std::uint64_t sport) {
    FieldView view;
    view.set(Field::kEthDst, dst);
    view.set(Field::kL4Src, sport);
    return view;
  };
  auto exact_dst_megaflow = [](std::uint64_t dst) {
    MegaflowEntry entry;
    entry.required_present = field_bit(Field::kEthDst);
    entry.masks[static_cast<std::size_t>(Field::kEthDst)] = field_all_ones(Field::kEthDst);
    entry.values[static_cast<std::size_t>(Field::kEthDst)] = dst;
    return entry;
  };
  for (std::uint64_t dst = 1; dst <= 8; ++dst)
    (void)cache.insert(exact_dst_megaflow(dst), view_for(dst, dst));
  MegaflowEntry in_port_megaflow;
  in_port_megaflow.required_present = field_bit(Field::kInPort);
  in_port_megaflow.masks[static_cast<std::size_t>(Field::kInPort)] =
      field_all_ones(Field::kInPort);
  in_port_megaflow.values[static_cast<std::size_t>(Field::kInPort)] = 7;
  {
    FieldView view;
    view.set(Field::kInPort, 7);
    (void)cache.insert(std::move(in_port_megaflow), view);
  }

  // 9 megaflows, but only 2 distinct mask signatures.
  EXPECT_EQ(cache.megaflow_count(), 9u);
  EXPECT_EQ(cache.subtable_count(), 2u);

  // A fresh sport misses tier 1; the eth_dst subtable answers in one
  // hashed probe no matter how many exact-dst entries it holds (the
  // in_port subtable is rejected by the presence pre-check, unbilled).
  std::uint32_t scanned = 0;
  ASSERT_NE(cache.lookup(view_for(5, 999), 0, &scanned), nullptr);
  EXPECT_EQ(scanned, 1u);
  EXPECT_EQ(cache.stats().subtable_probes, 1u);

  // The ablation pays per entry again: dst 8 is the 8th insertion, so
  // the linear reference compares 8 candidates to find it.
  cache.set_linear_scan(true);
  scanned = 0;
  ASSERT_NE(cache.lookup(view_for(8, 999), 0, &scanned), nullptr);
  EXPECT_EQ(scanned, 8u);
  EXPECT_EQ(cache.stats().subtable_probes, 1u);  // no hashed probes in linear mode
}

TEST(FlowCache, MicroflowKeyVectorStaysBoundedAcrossTierOneResets) {
  // Regression: a long-lived elephant megaflow re-seeds the microflow
  // tier after every tier-1 capacity reset, and each re-seed used to
  // append another (now stale or duplicate) key to microflow_keys —
  // unbounded growth for exactly the entries that live longest. The
  // cache now compacts the vector at power-of-two watermarks.
  FlowCache cache;
  FlowCache::Limits limits;
  limits.max_megaflows = 8;
  limits.max_microflows = 4;  // tiny tier 1: constant flush pressure
  cache.set_limits(limits);

  auto view_for = [](std::uint64_t dst, std::uint64_t sport) {
    FieldView view;
    view.set(Field::kEthDst, dst);
    if (sport != 0) view.set(Field::kL4Src, sport);
    return view;
  };
  auto exact_dst_megaflow = [](std::uint64_t dst) {
    MegaflowEntry entry;
    entry.required_present = field_bit(Field::kEthDst);
    entry.masks[static_cast<std::size_t>(Field::kEthDst)] = field_all_ones(Field::kEthDst);
    entry.values[static_cast<std::size_t>(Field::kEthDst)] = dst;
    return entry;
  };

  MegaflowEntry* elephant = cache.insert(exact_dst_megaflow(0x22), view_for(0x22, 1));
  for (std::uint64_t round = 1; round <= 2000; ++round) {
    // A one-shot mouse installs (flushing tier 1 whenever it is full)...
    (void)cache.insert(exact_dst_megaflow(0x1000 + round), view_for(0x1000 + round, 0));
    // ...and the elephant's next microflow re-seeds tier 1 with a fresh
    // key via a tier-2 hit.
    MegaflowEntry* hit = cache.lookup(view_for(0x22, 1 + round), /*now=*/0);
    ASSERT_EQ(hit, elephant) << "round " << round;
  }
  EXPECT_GT(cache.stats().flushes, 100u);     // tier-1 resets really happened
  EXPECT_GT(cache.stats().evictions, 1000u);  // and CLOCK churned the mice
  // ~2000 keys accumulated before the fix; the compaction watermark
  // (64) now bounds it regardless of the entry's lifetime.
  EXPECT_LE(elephant->microflow_keys.size(), 64u);
}

TEST(FlowCache, ClockEvictionKeepsElephantsResident) {
  // An elephant aggregate interleaved with a parade of one-shot mice
  // through an under-provisioned cache: second-chance eviction must
  // recycle the mice and keep the elephant's megaflow hitting (the old
  // wholesale flush cold-started it every ~8 mice).
  Pipeline pipeline(1);
  FlowCache::Limits limits;
  limits.max_megaflows = 8;
  pipeline.cache().set_limits(limits);
  for (std::uint64_t dst = 1; dst <= 200; ++dst)
    ASSERT_TRUE(pipeline.table(0).add(l2_entry(dst, 2), 0).is_ok());

  sim::SimNanos now = 1000;
  (void)pipeline.run(udp_packet(0x777, 200, 5555), 1, now);  // elephant learns (dst 200)
  std::uint64_t elephant_misses = 0;
  for (std::uint64_t mouse = 1; mouse <= 100; ++mouse) {
    (void)pipeline.run(udp_packet(0x777, mouse, 6000), 1, ++now);  // one-shot mouse
    auto result = pipeline.run(udp_packet(0x777, 200, 5555), 1, ++now);
    if (!result.cache_hit) ++elephant_misses;
  }
  EXPECT_EQ(elephant_misses, 0u);
  EXPECT_GT(pipeline.cache().stats().evictions, 0u);
}

// ------------------------------------------------------- CLOCK order

/// The vector-index CLOCK the cache used before its ring became a list,
/// kept as the reference for the victim sequence: entries in insertion
/// order, the hand an index into them. Erasing the victim leaves the
/// hand on its successor — or one past the end, where it names the
/// next appended entry. A purge resets the hand to the front.
struct VectorIndexClock {
  struct Entry {
    std::uint64_t id = 0;
    bool referenced = false;
  };
  std::vector<Entry> ring;
  std::size_t hand = 0;

  /// Append `id`, evicting first when full; returns the victim (0 = none).
  std::uint64_t insert(std::uint64_t id, std::size_t capacity) {
    std::uint64_t victim = 0;
    if (ring.size() >= capacity) {
      for (std::size_t step = 0; step < 2 * ring.size(); ++step) {
        if (hand >= ring.size()) hand = 0;
        if (ring[hand].referenced) {
          ring[hand].referenced = false;
          ++hand;
          continue;
        }
        victim = ring[hand].id;
        ring.erase(ring.begin() + static_cast<std::ptrdiff_t>(hand));
        break;
      }
    }
    ring.push_back(Entry{id, false});
    return victim;
  }
  void hit(std::uint64_t id) {
    for (Entry& entry : ring)
      if (entry.id == id) entry.referenced = true;
  }
  void purge() {
    ring.clear();
    hand = 0;
  }
};

FieldView dst_view(std::uint64_t dst) {
  FieldView view;
  view.set(Field::kEthDst, dst);
  return view;
}

MegaflowEntry dst_megaflow(std::uint64_t dst) {
  MegaflowEntry entry;
  entry.required_present = field_bit(Field::kEthDst);
  entry.masks[static_cast<std::size_t>(Field::kEthDst)] = field_all_ones(Field::kEthDst);
  entry.values[static_cast<std::size_t>(Field::kEthDst)] = dst;
  return entry;
}

std::uint64_t dst_of(const MegaflowEntry& entry) {
  return entry.values[static_cast<std::size_t>(Field::kEthDst)];
}

/// Insert `dst` and report which resident megaflow it displaced (0 = none).
std::uint64_t insert_and_find_victim(FlowCache& cache, std::uint64_t dst) {
  std::vector<std::uint64_t> before;
  for (const MegaflowEntry& entry : cache.megaflows()) before.push_back(dst_of(entry));
  (void)cache.insert(dst_megaflow(dst), dst_view(dst));
  for (const MegaflowEntry& entry : cache.megaflows()) std::erase(before, dst_of(entry));
  return before.empty() ? 0 : before.front();
}

/// The cache's ring (ids and reference bits, in order) equals the model's.
void expect_same_ring(const FlowCache& cache, const VectorIndexClock& model) {
  std::vector<std::pair<std::uint64_t, bool>> actual;
  for (const MegaflowEntry& entry : cache.megaflows()) actual.emplace_back(dst_of(entry), entry.referenced);
  std::vector<std::pair<std::uint64_t, bool>> expected;
  for (const auto& entry : model.ring) expected.emplace_back(entry.id, entry.referenced);
  EXPECT_EQ(actual, expected);
}

TEST(FlowCache, ClockHandAtTheEndNamesTheNextAppendedEntry) {
  // Ring [1 2 3], 1 and 2 referenced: inserting 4 spares 1 and 2 and
  // evicts 3, the last entry, leaving the hand one past the end. The
  // hand must then point at 4 (appended there), so inserting 5 evicts
  // 4 — not 1, which a hand wrapped to the front would pick.
  FlowCache cache;
  FlowCache::Limits limits;
  limits.max_megaflows = 3;
  cache.set_limits(limits);
  for (std::uint64_t dst = 1; dst <= 3; ++dst) EXPECT_EQ(insert_and_find_victim(cache, dst), 0u);
  ASSERT_NE(cache.lookup(dst_view(1), 0), nullptr);
  ASSERT_NE(cache.lookup(dst_view(2), 0), nullptr);
  EXPECT_EQ(insert_and_find_victim(cache, 4), 3u);
  EXPECT_EQ(insert_and_find_victim(cache, 5), 4u);
  // Each such eviction parks the hand at the end again, so it keeps
  // naming the newest entry while it stays unreferenced.
  EXPECT_EQ(insert_and_find_victim(cache, 6), 5u);
  ASSERT_NE(cache.lookup(dst_view(6), 0), nullptr);
  EXPECT_EQ(insert_and_find_victim(cache, 7), 1u);  // 6 spared, wrap to the front
}

TEST(FlowCache, ClockEvictionOrderMatchesVectorIndexReference) {
  // Random insert / hit / purge streams against small rings: every
  // victim, and the ring with its reference bits after every step, must
  // equal the vector-index CLOCK's.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    util::Rng rng(seed);
    const std::size_t capacity = 1 + rng.below(9);
    FlowCache cache;
    FlowCache::Limits limits;
    limits.max_megaflows = capacity;
    cache.set_limits(limits);
    VectorIndexClock model;
    std::uint64_t next_dst = 1;
    std::uint64_t evictions = 0;
    for (int step = 0; step < 3000; ++step) {
      const double roll = rng.uniform();
      if (roll < 0.45) {
        const std::uint64_t dst = next_dst++;
        const std::uint64_t expected = model.insert(dst, capacity);
        ASSERT_EQ(insert_and_find_victim(cache, dst), expected)
            << "seed " << seed << " step " << step;
        if (expected != 0) ++evictions;
      } else if (roll < 0.98) {
        if (model.ring.empty()) continue;
        const std::uint64_t dst = model.ring[rng.below(model.ring.size())].id;
        ASSERT_NE(cache.lookup(dst_view(dst), 0), nullptr);
        model.hit(dst);
      } else {
        // An epoch bump stales every entry; the next lookup purges them
        // and parks the hand at the (now empty) front.
        cache.invalidate_all();
        EXPECT_EQ(cache.lookup(dst_view(0), 0), nullptr);
        model.purge();
      }
      expect_same_ring(cache, model);
    }
    EXPECT_EQ(cache.stats().evictions, evictions);
  }
}

}  // namespace
}  // namespace harmless::softswitch
