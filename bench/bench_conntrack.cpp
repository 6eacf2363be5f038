// bench_conntrack — Table 9: the stateful conntrack tier.
//
// Three sections, one acceptance claim each:
//
//   connection_scaling — established-path per-packet *wall* cost with
//       N live connections preloaded into the table, N = 10^3..10^6.
//       The claim is O(1) classification: the ns/pkt column must stay
//       flat as the table grows three orders of magnitude (the CI
//       smoke gate checks the max/min ratio and an absolute pps
//       floor). The measured stream rides the established fast path —
//       megaflow cache hit + ct_state prelude probe per packet — which
//       is exactly the path whose cost the table size could poison.
//
//   nat_core_scaling — a symmetric-RSS multi-core SNAT gateway under
//       deliberate overload (8 access ports x 1G of 64B frames into a
//       slowed burst-32 datapath, 64 flows per port so the symmetric
//       hash spreads load evenly). Every packet traverses ct_snat:
//       commit/refresh plus the stored-mapping rewrite. Reported as
//       *simulated* delivered Mpps for cores {1,2,4}; the claim is
//       near-linear speedup, which only holds if the per-core shards
//       really are share-nothing (a shared table would serialize).
//
//   firewall_paths — stateful-firewall per-packet *simulated* busy_ns
//       (deterministic, machine-independent): the established megaflow
//       fast path vs the all-NEW slow path (distinct-sport SYNs; ct
//       megaflows pin the full 5-tuple, so every NEW connection is a
//       genuine miss: pipeline lookup + commit + megaflow install) vs
//       the cache-off pipeline as the classical reference. The win
//       column (slow/fast) is the stateful analogue of the Table 2
//       fast-path result.
//
// Everything lands in BENCH_conntrack.json; CI runs `--quick` and
// gates flatness, the established-path pps floor, the 4-core speedup,
// and the firewall fast/slow win. Wall floors are deliberately
// conservative (a fraction of a dev-box run); the simulated numbers
// are deterministic and gated tightly.
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "net/l4.hpp"
#include "openflow/conntrack.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace harmless;
using namespace harmless::bench;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr std::uint8_t kUdpProto = 17;

// ---- section A: established-path cost vs live-connection count -------

struct ScalingRun {
  std::size_t connections = 0;
  std::size_t packets = 0;
  double wall_ms = 0;
  double ns_per_pkt = 0;
  double mpps = 0;  // wall-clock established-path packet rate
  std::uint64_t ct_lookups = 0;
  std::uint64_t ct_hits = 0;
};

/// One switch, conntrack on, `connections` live UDP entries preloaded
/// straight into the shard (they never send — they only occupy the
/// table), then `packets` 64B frames round-robined over 64 established
/// flows a->b. The wall clock is taken between two marker events
/// bracketing the stream, so the O(N) expiry drain at the end of the
/// run (every preloaded entry eventually idles out) never pollutes the
/// per-packet number.
ScalingRun connection_scaling(std::size_t connections, std::size_t packets) {
  sim::Network network;
  auto& sw = network.add_node<softswitch::SoftSwitch>("ct-scale", 0x90, 2);
  openflow::CtConfig config;
  config.max_connections = 1'200'000;  // hold the largest preload
  sw.enable_conntrack(config);

  auto& a = network.add_host("a", host_mac(0), host_ip(0));
  auto& b = network.add_host("b", host_mac(1), host_ip(1));
  const sim::LinkSpec link = sim::LinkSpec::gbps(10);
  network.connect(a, 0, sw, 0, link);
  network.connect(b, 0, sw, 1, link);

  openflow::FlowModMsg fast;
  fast.table_id = 0;
  fast.priority = 20;
  fast.match.in_port(1).ct_established();
  fast.instructions = openflow::apply({openflow::output(2)});
  sw.install(fast).check();
  openflow::FlowModMsg commit1;
  commit1.table_id = 0;
  commit1.priority = 10;
  commit1.match.in_port(1);
  commit1.instructions = openflow::apply({openflow::ct_commit(), openflow::output(2)});
  sw.install(commit1).check();
  openflow::FlowModMsg drop;
  drop.table_id = 0;
  drop.priority = 0;
  sw.install(drop).check();

  // Preload: background occupancy from a disjoint address range, then
  // the 64 measured flows committed in both directions so the prelude
  // classifies them ESTABLISHED from the first frame.
  openflow::ConnTracker& ct = sw.pipeline().conntrack(0);
  const openflow::CtAction plain{};
  for (std::size_t i = 0; i < connections; ++i) {
    const openflow::CtTuple filler{0x0b000000u + static_cast<std::uint32_t>(i / 50'000),
                                   0x0c000001u,
                                   static_cast<std::uint16_t>(1000 + i % 50'000),
                                   53,
                                   kUdpProto};
    ct.process(filler, 0, 0, plain);
  }
  constexpr std::size_t kFlows = 64;
  for (std::size_t f = 0; f < kFlows; ++f) {
    const openflow::CtTuple orig{host_ip(0).value(), host_ip(1).value(),
                                 static_cast<std::uint16_t>(20'000 + f), 7, kUdpProto};
    ct.process(orig, 0, 0, plain);
    ct.process(orig.reversed(), 0, 0, plain);  // seen_reply -> ESTABLISHED
  }

  net::FlowKey key;
  key.eth_src = a.mac();
  key.eth_dst = b.mac();
  key.ip_src = a.ip();
  key.ip_dst = b.ip();
  // Paced at 512ns (a 1G line into the 10G access link): simulated
  // pacing can't change the wall cost per packet, but it keeps the
  // ingress queue empty so no size ever drops frames and poisons the
  // comparison.
  const net::UdpTemplate frame(key, 64);
  const sim::SimNanos gap = 512;
  for (std::size_t i = 0; i < packets; ++i) {
    const auto sport = static_cast<std::uint16_t>(20'000 + i % kFlows);
    network.engine().schedule_at(static_cast<sim::SimNanos>(i) * gap, [&a, &frame, sport] {
      a.send(frame.stamp(sport, 7));
    });
  }

  // Markers around the stream: the window closes 100us of simulated
  // time after the last send — long after the final delivery, long
  // before the first 100ms expiry sweep.
  Clock::time_point window_start;
  double wall = 0;
  network.engine().schedule_at(0, [&window_start] { window_start = Clock::now(); });
  network.engine().schedule_at(static_cast<sim::SimNanos>(packets) * gap + 100'000,
                               [&wall, &window_start] { wall = seconds_since(window_start); });
  network.run();

  ScalingRun run;
  run.connections = connections;
  run.packets = packets;
  run.wall_ms = wall * 1e3;
  run.ns_per_pkt = wall * 1e9 / static_cast<double>(packets);
  run.mpps = static_cast<double>(packets) / wall / 1e6;
  run.ct_lookups = sw.counters().ct_lookups;
  run.ct_hits = sw.counters().ct_hits;
  if (b.counters().rx_udp != packets) {
    std::fprintf(stderr, "connection_scaling: delivered %llu of %zu\n",
                 static_cast<unsigned long long>(b.counters().rx_udp), packets);
    std::exit(1);
  }
  return run;
}

// ---- section B: symmetric-RSS multi-core NAT scaling -----------------

struct NatRun {
  std::size_t cores = 0;
  double offered_mpps = 0;
  double delivered_mpps = 0;  // simulated, capacity-bound under overload
  std::uint64_t delivered = 0;
  std::uint64_t connections = 0;
  std::uint64_t nat_allocated = 0;
  double wall_ms = 0;
};

/// 8 inside hosts each offer their 1G line rate of 64B UDP frames to
/// one outside server through a SNAT gateway whose datapath is slowed
/// (rx_tx_pkt_ns = 600) so even one port overloads a single core. 256
/// distinct source ports per host give the symmetric hash 2048 flows
/// to spread; every frame traverses ct_snat (commit on first sight,
/// stored-mapping rewrite after). Delivery is sampled over the steady
/// back third of the offer window — the post-offer queue drain (a
/// fixed ~2k-packet backlog regardless of core count) would otherwise
/// flatter the slowest configuration.
NatRun nat_core_scaling(std::size_t cores, std::size_t packets_per_port) {
  constexpr int kInside = 8;
  constexpr std::size_t kPortQueue = 256;
  sim::Network network;
  sim::IngressSpec ingress;
  ingress.cores.cores = cores;
  ingress.cores.rss = sim::RssPolicy::kSymmetric;
  ingress.port_queue_capacity = kPortQueue;
  ingress.queue_capacity = (kInside + 1) * kPortQueue;
  auto& sw = network.add_node<softswitch::SoftSwitch>("natgw", 0x91, kInside + 1, 2, true,
                                                      true, 32, ingress);
  openflow::CtConfig config;
  config.udp_timeout = 500'000'000;  // shorten the post-offer drain
  sw.enable_conntrack(config);
  softswitch::DatapathCosts costs;
  costs.rx_tx_pkt_ns = 600;  // ~1.5 Mpps per core: the ports overload it
  sw.set_costs(costs);

  const net::Ipv4Addr external_ip(203, 0, 113, 1);
  sim::Host& server = network.add_host("server", host_mac(16), net::Ipv4Addr(198, 51, 100, 10));
  network.connect(server, 0, sw, kInside, sim::LinkSpec::gbps(10));
  std::vector<sim::Host*> inside;
  for (int i = 0; i < kInside; ++i) {
    sim::Host& host = network.add_host(util::format("h%d", i + 1), host_mac(i), host_ip(i));
    network.connect(host, 0, sw, static_cast<std::size_t>(i), sim::LinkSpec::gbps(1));
    inside.push_back(&host);
  }

  for (int port = 1; port <= kInside; ++port) {
    openflow::FlowModMsg snat;
    snat.table_id = 0;
    snat.priority = 10;
    snat.match.in_port(static_cast<std::uint32_t>(port));
    snat.instructions = openflow::apply_then_goto(
        {openflow::ct_snat(external_ip, 49'152, 65'535)}, 1);
    sw.install(snat).check();
  }
  openflow::FlowModMsg route;
  route.table_id = 1;
  route.priority = 10;
  route.match.ip_dst(server.ip());
  route.instructions = openflow::apply({openflow::output(kInside + 1)});
  sw.install(route).check();
  openflow::FlowModMsg drop0;
  drop0.table_id = 0;
  drop0.priority = 0;
  sw.install(drop0).check();
  openflow::FlowModMsg drop1;
  drop1.table_id = 1;
  drop1.priority = 0;
  sw.install(drop1).check();

  constexpr std::size_t kFlowsPerPort = 256;
  const sim::SimNanos line = sim::LinkSpec::gbps(1).rate.serialization_ns(64);
  std::vector<net::UdpTemplate> frames;
  frames.reserve(kInside);
  for (int p = 0; p < kInside; ++p) {
    net::FlowKey key;
    key.eth_src = host_mac(p);
    key.eth_dst = server.mac();
    key.ip_src = host_ip(p);
    key.ip_dst = server.ip();
    frames.emplace_back(key, 64);
  }
  for (int p = 0; p < kInside; ++p) {
    sim::Host* host = inside[static_cast<std::size_t>(p)];
    const net::UdpTemplate& frame = frames[static_cast<std::size_t>(p)];
    for (std::size_t i = 0; i < packets_per_port; ++i) {
      const auto sport = static_cast<std::uint16_t>(20'000 + p * kFlowsPerPort +
                                                    static_cast<int>(i % kFlowsPerPort));
      network.engine().schedule_at(static_cast<sim::SimNanos>(i) * line,
                                   [host, &frame, sport] { host->send(frame.stamp(sport, 9)); });
    }
  }

  // Steady-state sampling window: open it a third of the way into the
  // offer (the ingress queues have long since filled), close it when
  // the offer ends (before the backlog drains).
  const sim::SimNanos offer_ns = static_cast<sim::SimNanos>(packets_per_port) * line;
  const sim::SimNanos t0 = offer_ns / 3;
  std::uint64_t rx_at_t0 = 0, rx_at_end = 0;
  network.engine().schedule_at(t0, [&rx_at_t0, &server] { rx_at_t0 = server.counters().rx_udp; });
  network.engine().schedule_at(offer_ns,
                               [&rx_at_end, &server] { rx_at_end = server.counters().rx_udp; });

  const auto start = Clock::now();
  network.run();
  const double wall = seconds_since(start);

  NatRun run;
  run.cores = cores;
  run.wall_ms = wall * 1e3;
  run.offered_mpps = static_cast<double>(kInside) * 1e3 / static_cast<double>(line);
  run.delivered = rx_at_end - rx_at_t0;
  run.delivered_mpps =
      static_cast<double>(run.delivered) * 1e3 / static_cast<double>(offer_ns - t0);
  run.connections = sw.counters().ct_created;
  run.nat_allocated = sw.counters().ct_nat_allocated;
  return run;
}

// ---- section C: stateful firewall fast vs slow path ------------------

struct PathRun {
  std::string path;
  std::size_t packets = 0;
  sim::SimNanos busy_ns_per_pkt = 0;  // simulated: deterministic
  std::uint64_t cache_hits = 0;
  std::uint64_t connections = 0;
};

/// Per-packet simulated switch busy time on a stateful firewall.
/// `established`: one preloaded connection streams ACKs (megaflow fast
/// path). Otherwise: every packet is a distinct-sport SYN — ct
/// megaflows pin the full 5-tuple, so each is a genuine slow-path miss
/// (pipeline lookup + commit + megaflow install). `flow_cache` off
/// gives the classical per-packet-pipeline reference.
PathRun firewall_path(bool established, bool flow_cache, std::size_t packets,
                      const std::string& name) {
  sim::Network network;
  auto& sw = network.add_node<softswitch::SoftSwitch>("fw", 0x92, 2, 2, true, flow_cache);
  sw.enable_conntrack(openflow::CtConfig{});

  auto& a = network.add_host("a", host_mac(0), host_ip(0));
  auto& b = network.add_host("b", host_mac(1), host_ip(1));
  const sim::LinkSpec link = sim::LinkSpec::gbps(10);
  network.connect(a, 0, sw, 0, link);
  network.connect(b, 0, sw, 1, link);

  openflow::FlowModMsg fast;
  fast.table_id = 0;
  fast.priority = 20;
  fast.match.in_port(1).ct_established();
  fast.instructions = openflow::apply({openflow::output(2)});
  sw.install(fast).check();
  openflow::FlowModMsg open;
  open.table_id = 0;
  open.priority = 10;
  open.match.in_port(1);
  open.instructions = openflow::apply({openflow::ct_commit(), openflow::output(2)});
  sw.install(open).check();
  openflow::FlowModMsg reply;
  reply.table_id = 0;
  reply.priority = 10;
  reply.match.in_port(2).ct_tracked();
  reply.instructions = openflow::apply({openflow::ct_commit(), openflow::output(1)});
  sw.install(reply).check();
  openflow::FlowModMsg drop;
  drop.table_id = 0;
  drop.priority = 0;
  sw.install(drop).check();

  net::FlowKey key;
  key.eth_src = a.mac();
  key.eth_dst = b.mac();
  key.ip_src = a.ip();
  key.ip_dst = b.ip();
  // Paced well below the slow path's service rate: the metric is
  // simulated busy_ns per packet, so queueing adds nothing but drops
  // would subtract delivered packets.
  const sim::SimNanos line = 1'000;
  // The template must outlive the scheduled sends (they capture it by
  // reference), so it lives at function scope.
  const net::TcpTemplate frame(key, established ? net::kTcpAck : net::kTcpSyn);
  if (established) {
    // Preload the one measured connection as ESTABLISHED, then stream
    // mid-connection segments through it.
    openflow::ConnTracker& ct = sw.pipeline().conntrack(0);
    const openflow::CtTuple orig{host_ip(0).value(), host_ip(1).value(), 40'000, 80, 6};
    ct.process(orig, net::kTcpSyn, 0, openflow::CtAction{});
    ct.process(orig.reversed(), net::kTcpSyn | net::kTcpAck, 0, openflow::CtAction{});
    for (std::size_t i = 0; i < packets; ++i)
      network.engine().schedule_at(static_cast<sim::SimNanos>(i) * line,
                                   [&a, &frame] { a.send(frame.stamp(40'000, 80)); });
  } else {
    for (std::size_t i = 0; i < packets; ++i) {
      const auto sport = static_cast<std::uint16_t>(10'000 + i);
      network.engine().schedule_at(static_cast<sim::SimNanos>(i) * line,
                                   [&a, &frame, sport] { a.send(frame.stamp(sport, 80)); });
    }
  }
  network.run();

  PathRun run;
  run.path = name;
  run.packets = packets;
  run.busy_ns_per_pkt = sw.core_stats(0).busy_ns / static_cast<sim::SimNanos>(packets);
  run.cache_hits = sw.counters().cache_hits;
  run.connections = sw.counters().ct_created;
  if (b.counters().rx_tcp != packets) {
    std::fprintf(stderr, "firewall_path(%s): delivered %llu of %zu\n", name.c_str(),
                 static_cast<unsigned long long>(b.counters().rx_tcp), packets);
    std::exit(1);
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  // Usage: bench_conntrack [--quick]
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--quick") quick = true;

  const int reps = quick ? 1 : 2;  // wall sections report the best rep
  const std::size_t scale_packets = quick ? 20'000 : 100'000;
  const std::vector<std::size_t> table_sizes =
      quick ? std::vector<std::size_t>{1'000, 10'000, 100'000}
            : std::vector<std::size_t>{1'000, 10'000, 100'000, 1'000'000};
  const std::size_t nat_packets = quick ? 1'500 : 6'000;  // per port
  const std::size_t fw_packets = quick ? 2'000 : 5'000;

  std::cout << "bench_conntrack - the stateful tier: table scaling, NAT core scaling, "
               "firewall paths"
            << (quick ? " [QUICK]" : "") << "\n\n";

  // Section A ----------------------------------------------------------
  util::Table scale_table({"connections", "packets", "wall_ms", "ns/pkt", "Mpps"});
  Json scale_rows = Json::array();
  for (const std::size_t n : table_sizes) {
    ScalingRun best;
    for (int rep = 0; rep < reps; ++rep) {
      ScalingRun run = connection_scaling(n, scale_packets);
      if (rep == 0 || run.ns_per_pkt < best.ns_per_pkt) best = run;
    }
    scale_table.add_row({util::format("%zu", best.connections),
                         util::format("%zu", best.packets),
                         util::format("%.1f", best.wall_ms),
                         util::format("%.0f", best.ns_per_pkt),
                         util::format("%.2f", best.mpps)});
    Json row = Json::object();
    row.set("connections", best.connections);
    row.set("packets", best.packets);
    row.set("wall_ms", best.wall_ms);
    row.set("ns_per_pkt", best.ns_per_pkt);
    row.set("mpps", best.mpps);
    row.set("ct_lookups", best.ct_lookups);
    row.set("ct_hits", best.ct_hits);
    scale_rows.push(std::move(row));
  }
  std::cout << "established-path cost vs live connections (wall clock)\n"
            << scale_table.to_string() << '\n';

  // Section B ----------------------------------------------------------
  util::Table nat_table(
      {"cores", "offered_Mpps", "delivered_Mpps", "speedup", "connections", "wall_ms"});
  Json nat_rows = Json::array();
  double base_mpps = 0;
  for (const std::size_t cores : {1UL, 2UL, 4UL}) {
    const NatRun run = nat_core_scaling(cores, nat_packets);
    if (cores == 1) base_mpps = run.delivered_mpps;
    const double speedup = run.delivered_mpps / base_mpps;
    nat_table.add_row({util::format("%zu", run.cores), util::format("%.2f", run.offered_mpps),
                       util::format("%.2f", run.delivered_mpps),
                       util::format("%.2f", speedup),
                       util::format("%llu", static_cast<unsigned long long>(run.connections)),
                       util::format("%.1f", run.wall_ms)});
    Json row = Json::object();
    row.set("cores", run.cores);
    row.set("offered_mpps", run.offered_mpps);
    row.set("delivered_mpps", run.delivered_mpps);
    row.set("speedup", speedup);
    row.set("delivered", run.delivered);
    row.set("connections", run.connections);
    row.set("nat_allocated", run.nat_allocated);
    nat_rows.push(std::move(row));
  }
  std::cout << "symmetric-RSS SNAT gateway capacity vs cores (simulated)\n"
            << nat_table.to_string() << '\n';

  // Section C ----------------------------------------------------------
  const PathRun fast = firewall_path(true, true, fw_packets, "established_fast");
  const PathRun slow = firewall_path(false, true, fw_packets, "new_slow");
  const PathRun pipeline = firewall_path(true, false, fw_packets, "established_no_cache");
  const double win =
      static_cast<double>(slow.busy_ns_per_pkt) / static_cast<double>(fast.busy_ns_per_pkt);
  util::Table path_table({"path", "busy_ns/pkt", "cache_hits", "connections"});
  Json path_rows = Json::array();
  for (const PathRun* run : {&fast, &slow, &pipeline}) {
    path_table.add_row(
        {run->path, util::format("%lld", static_cast<long long>(run->busy_ns_per_pkt)),
         util::format("%llu", static_cast<unsigned long long>(run->cache_hits)),
         util::format("%llu", static_cast<unsigned long long>(run->connections))});
    Json row = Json::object();
    row.set("path", run->path);
    row.set("packets", run->packets);
    row.set("busy_ns_per_pkt", run->busy_ns_per_pkt);
    row.set("cache_hits", run->cache_hits);
    row.set("connections", run->connections);
    path_rows.push(std::move(row));
  }
  std::cout << "stateful firewall per-packet cost (simulated busy_ns)\n"
            << path_table.to_string() << "\nfast-path win (new_slow / established_fast): "
            << util::format("%.2f", win) << "x\n\n";

  Json report = Json::object();
  report.set("connection_scaling", std::move(scale_rows));
  report.set("nat_core_scaling", std::move(nat_rows));
  report.set("firewall_paths", std::move(path_rows));
  report.set("fast_path_win", win);
  write_bench_json("BENCH_conntrack.json", report);
  return 0;
}
