// Conntrack sharding-coherence theorems, as differential property
// tests (the multicore_equivalence_test.cpp approach, applied to the
// stateful tier):
//
//  1. A NAT gateway workload (TCP request/response + one-way UDP,
//     random sports, random interleavings) run on a symmetric-RSS
//     multi-core datapath delivers the identical per-host outcomes,
//     the identical translated-frame multiset at the outside server,
//     the identical per-connection state snapshots (tuples, NAT
//     mappings, direction counters), and identical summed ct stats as
//     the single-core run — for every core count tried. The SNAT
//     allocator's virtual-shard steering (CtConfig::nat_steer_shards,
//     pinned across runs) is what makes the allocated external ports
//     layout-independent.
//
//  2. With conntrack disabled, the symmetric-RSS datapath remains
//     observationally identical to the single-core default — the new
//     steering stage must be semantically invisible when the stateful
//     tier is off.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "net/build.hpp"
#include "net/l4.hpp"
#include "sim/network.hpp"
#include "softswitch/soft_switch.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace harmless {
namespace {

using namespace openflow;
using net::FlowKey;
using net::Ipv4Addr;
using net::MacAddr;
using sim::SimNanos;

constexpr int kInside = 4;
constexpr std::uint32_t kOutsidePort = kInside + 1;
const Ipv4Addr kExternalIp(203, 0, 113, 1);
/// Pinned across every differential run: the SNAT allocator steers
/// against this virtual shard count, so a single-core run reproduces
/// an N-core run's port allocations exactly.
constexpr std::size_t kSteerShards = 4;

MacAddr inside_mac(int i) { return MacAddr::from_u64(0x0200000000a0ULL + i); }
Ipv4Addr inside_ip(int i) { return Ipv4Addr(10, 7, 0, static_cast<std::uint8_t>(i + 1)); }

struct Conn {
  int host;
  bool tcp;           // TCP request/response vs one-way UDP
  std::uint16_t sport;
  SimNanos at;
};

std::vector<Conn> make_workload(std::uint64_t seed) {
  util::Rng rng(seed * 733 + 3);
  std::vector<Conn> conns;
  std::set<std::pair<int, std::uint16_t>> used;  // unique (host, sport)
  SimNanos at = 20'000;
  const int count = 48 + static_cast<int>(rng.below(32));
  for (int i = 0; i < count; ++i) {
    Conn conn;
    conn.host = static_cast<int>(rng.below(kInside));
    conn.tcp = rng.chance(0.7);
    do {
      conn.sport = static_cast<std::uint16_t>(1024 + rng.below(60000));
    } while (!used.insert({conn.host, conn.sport}).second);
    conn.at = at;
    at += 2'000 + rng.below(8'000);
    conns.push_back(conn);
  }
  return conns;
}

/// Everything the sharding must not change. Timing fields (last_seen,
/// expires_at, busy_ns) are deliberately absent.
struct Observed {
  std::vector<std::uint64_t> host_ok;       // HTTP 200s per inside host
  std::vector<net::Bytes> server_frames;    // sorted: the translated multiset
  std::vector<std::string> connections;     // sorted per-connection snapshots
  std::size_t live_at_snapshot = 0;
  std::uint64_t created = 0, nat_allocated = 0, nat_failures = 0, evicted = 0;
  std::uint64_t lookups = 0, hits = 0, invalid = 0;

  friend bool operator==(const Observed&, const Observed&) = default;
};

std::string describe(const ConnEntry& entry) {
  return util::format(
      "%08x:%u->%08x:%u/%u reply=%08x:%u->%08x:%u nat=%d/%08x:%u seen_reply=%d closing=%d "
      "orig=%llu rep=%llu",
      entry.orig.src_ip, entry.orig.src_port, entry.orig.dst_ip, entry.orig.dst_port,
      entry.orig.proto, entry.reply.src_ip, entry.reply.src_port, entry.reply.dst_ip,
      entry.reply.dst_port, static_cast<int>(entry.nat.kind), entry.nat.ip, entry.nat.port,
      entry.seen_reply ? 1 : 0, entry.closing ? 1 : 0,
      static_cast<unsigned long long>(entry.packets_orig),
      static_cast<unsigned long long>(entry.packets_reply));
}

Observed run_nat_workload(const std::vector<Conn>& conns, std::size_t cores) {
  sim::Network network;
  sim::IngressSpec ingress;
  ingress.cores.cores = cores;
  if (cores > 1) ingress.cores.rss = sim::RssPolicy::kSymmetric;
  auto& sw = network.add_node<softswitch::SoftSwitch>("natgw", 0x4E, kInside + 1, 2, true, true,
                                                      32, ingress);
  CtConfig config;
  config.nat_steer_shards = kSteerShards;
  sw.enable_conntrack(config);

  std::vector<sim::Host*> hosts;
  for (int i = 0; i < kInside; ++i) {
    auto& host = network.add_host(util::format("h%d", i), inside_mac(i), inside_ip(i));
    network.connect(host, 0, sw, static_cast<std::size_t>(i), sim::LinkSpec::gbps(1));
    hosts.push_back(&host);
  }
  auto& server =
      network.add_host("server", MacAddr::from_u64(0x99), Ipv4Addr(198, 51, 100, 7));
  network.connect(server, 0, sw, kInside, sim::LinkSpec::gbps(1));
  server.serve_http(80);

  Observed observed;
  server.set_on_receive([&observed](const net::Packet& packet, const net::ParsedPacket&) {
    observed.server_frames.emplace_back(packet.frame().begin(), packet.frame().end());
  });

  // The SourceNatApp rule shape, installed directly.
  for (const std::uint8_t proto : {6, 17}) {
    for (int i = 0; i < kInside; ++i) {
      FlowModMsg out;
      out.table_id = 0;
      out.priority = 110;
      out.match.in_port(static_cast<std::uint32_t>(i + 1)).eth_type(0x0800).ip_proto(proto);
      out.instructions = apply({ct_snat(kExternalIp, 49152, 65535), set_eth_dst(server.mac()),
                                output(kOutsidePort)});
      sw.install(out).check();
    }
    FlowModMsg back;
    back.table_id = 0;
    back.priority = 110;
    back.match.in_port(kOutsidePort)
        .eth_type(0x0800)
        .ip_dst(kExternalIp)
        .ip_proto(proto)
        .ct_tracked();
    back.instructions = apply_then_goto({ct_commit()}, 1);
    sw.install(back).check();
  }
  FlowModMsg drop0;
  drop0.table_id = 0;
  drop0.priority = 0;
  sw.install(drop0).check();
  for (int i = 0; i < kInside; ++i) {
    FlowModMsg route;
    route.table_id = 1;
    route.priority = 100;
    route.match.eth_type(0x0800).ip_dst(inside_ip(i));
    route.instructions =
        apply({set_eth_dst(inside_mac(i)), output(static_cast<std::uint32_t>(i + 1))});
    sw.install(route).check();
  }
  FlowModMsg drop1;
  drop1.table_id = 1;
  drop1.priority = 0;
  sw.install(drop1).check();

  SimNanos last_at = 0;
  for (const Conn& conn : conns) {
    last_at = std::max(last_at, conn.at);
    network.engine().schedule_at(conn.at, [&, conn] {
      FlowKey key;
      key.eth_src = inside_mac(conn.host);
      key.eth_dst = server.mac();
      key.ip_src = inside_ip(conn.host);
      key.ip_dst = server.ip();
      key.src_port = conn.sport;
      key.dst_port = conn.tcp ? 80 : 9000;
      sim::Host& host = *hosts[static_cast<std::size_t>(conn.host)];
      if (conn.tcp) {
        host.send(net::make_tcp(key, net::kTcpSyn));
        host.send(net::make_http_get(key, "nat.example"));
      } else {
        host.send(net::make_udp(key, 96));
      }
    });
  }

  // Snapshot the live connection table well before the earliest
  // expiry (timeouts are seconds; the workload is microseconds).
  const openflow::Pipeline& pipeline = sw.pipeline();
  network.engine().schedule_at(last_at + 5'000'000, [&] {
    std::vector<ConnEntry> entries;
    for (std::size_t shard = 0; shard < pipeline.shard_count(); ++shard) {
      const auto shard_entries = pipeline.conntrack(shard).snapshot();
      entries.insert(entries.end(), shard_entries.begin(), shard_entries.end());
    }
    observed.live_at_snapshot = entries.size();
    for (const ConnEntry& entry : entries) observed.connections.push_back(describe(entry));
    std::sort(observed.connections.begin(), observed.connections.end());
  });
  network.run();  // drains fully: every connection expires on the sweep

  for (sim::Host* host : hosts) observed.host_ok.push_back(host->counters().http_ok_received);
  // Order frames through a char view: GCC 12 misreads the inlined
  // vector<uint8_t> three-way compare as an unbounded memcmp
  // (-Wstringop-overread).
  std::sort(observed.server_frames.begin(), observed.server_frames.end(),
            [](const net::Bytes& a, const net::Bytes& b) {
              return std::string_view(reinterpret_cast<const char*>(a.data()), a.size()) <
                     std::string_view(reinterpret_cast<const char*>(b.data()), b.size());
            });
  const auto& counters = sw.counters();
  observed.created = counters.ct_created;
  observed.nat_allocated = counters.ct_nat_allocated;
  observed.nat_failures = counters.ct_nat_failures;
  observed.evicted = counters.ct_evicted;
  observed.lookups = counters.ct_lookups;
  observed.hits = counters.ct_hits;
  observed.invalid = counters.ct_invalid;
  EXPECT_EQ(counters.ct_expired, counters.ct_created) << "drain must expire every connection";
  EXPECT_EQ(counters.ct_connections, 0u);
  EXPECT_EQ(sw.queue_drops(), 0u);
  return observed;
}

class ConntrackEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConntrackEquivalence, ShardedNatGatewayIsObservationallyIdenticalToSingleCore) {
  const std::uint64_t seed = GetParam();
  const std::vector<Conn> conns = make_workload(seed);

  const Observed single = run_nat_workload(conns, 1);
  for (const std::size_t cores : {2UL, 4UL}) {
    const Observed sharded = run_nat_workload(conns, cores);
    EXPECT_EQ(sharded, single) << "seed " << seed << " cores " << cores;
  }

  // The workload must actually exercise the machinery being compared.
  const std::uint64_t total_ok =
      std::accumulate(single.host_ok.begin(), single.host_ok.end(), std::uint64_t{0});
  EXPECT_GT(total_ok, 20u) << "seed " << seed;
  EXPECT_EQ(single.nat_failures, 0u);
  EXPECT_EQ(single.evicted, 0u);
  EXPECT_GT(single.live_at_snapshot, 40u) << "seed " << seed;
  EXPECT_GE(single.hits, 50u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConntrackEquivalence, ::testing::Values(3, 11, 23));

// ---- Part 2: ct disabled, symmetric RSS still invisible ---------------

TEST(ConntrackEquivalence, DisabledConntrackSymmetricRssMatchesSingleCore) {
  auto run = [](std::size_t cores) {
    sim::Network network;
    sim::IngressSpec ingress;
    ingress.cores.cores = cores;
    if (cores > 1) ingress.cores.rss = sim::RssPolicy::kSymmetric;
    auto& sw = network.add_node<softswitch::SoftSwitch>("sw", 0x4F, kInside, 2, true, true, 32,
                                                        ingress);
    std::vector<sim::Host*> hosts;
    for (int i = 0; i < kInside; ++i) {
      auto& host = network.add_host(util::format("h%d", i), inside_mac(i), inside_ip(i));
      network.connect(host, 0, sw, static_cast<std::size_t>(i), sim::LinkSpec::gbps(1));
      hosts.push_back(&host);
    }
    for (int i = 0; i < kInside; ++i) {
      FlowModMsg mod;
      mod.table_id = 0;
      mod.priority = 10;
      mod.match.eth_dst(inside_mac(i));
      mod.instructions = apply({output(static_cast<std::uint32_t>(i + 1))});
      sw.install(mod).check();
    }
    util::Rng rng(5);
    SimNanos at = 10'000;
    for (int i = 0; i < 400; ++i) {
      const int src = static_cast<int>(rng.below(kInside));
      int dst;
      do {
        dst = static_cast<int>(rng.below(kInside));
      } while (dst == src);
      const auto sport = static_cast<std::uint16_t>(1024 + rng.below(60000));
      network.engine().schedule_at(at, [&, src, dst, sport] {
        FlowKey key;
        key.eth_src = inside_mac(src);
        key.eth_dst = inside_mac(dst);
        key.ip_src = inside_ip(src);
        key.ip_dst = inside_ip(dst);
        key.src_port = sport;
        key.dst_port = 443;
        hosts[static_cast<std::size_t>(src)]->send(net::make_udp(key, 64 + rng.below(400)));
      });
      at += rng.below(2'000);
    }
    network.run();
    std::vector<std::uint64_t> rx;
    for (sim::Host* host : hosts) rx.push_back(host->counters().rx_udp);
    EXPECT_EQ(sw.counters().ct_lookups, 0u);
    return rx;
  };
  const auto single = run(1);
  EXPECT_EQ(run(2), single);
  EXPECT_EQ(run(4), single);
  EXPECT_GT(std::accumulate(single.begin(), single.end(), std::uint64_t{0}), 390u);
}

}  // namespace
}  // namespace harmless
