// hairpin_l2 — the paper's data path.
//
// 32 hosts on 1G access ports of a factory-default legacy switch,
// migrated by HarmlessManager::migrate through the SNMP driver (one
// 10G trunk leg). The controller pushes a proactive L2 program onto
// SS_2. Every packet then runs legacy -> trunk -> SS_1 -> SS_2 -> SS_1
// -> trunk -> legacy: ~5 node services and ~6 links, all cache hits.
//
// Traffic: open-loop Poisson arrivals at kOfferedPps over 256 seeded
// host->peer UDP 5-tuples. Frame sizes follow the "simple IMIX" test
// mix: 7:4:1 of 64B (minimum frame), 576B and 1500B. The offered rate
// is a synthetic pick, below the trunk's capacity, so nothing queues
// for long and every packet is delivered.
#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "controller/apps/static_flows.hpp"
#include "harmless/manager.hpp"
#include "harness.hpp"
#include "mgmt/dialects.hpp"
#include "mgmt/driver.hpp"
#include "mgmt/mib.hpp"
#include "mgmt/snmp.hpp"

namespace perfbench {

namespace {

constexpr int kHosts = 32;
constexpr int kFlows = 256;
constexpr double kOfferedPps = 2.0e6;
constexpr sim::SimNanos kWarmupNs = 20'000'000;
constexpr sim::SimNanos kTrafficNs = 150'000'000;  // 0.15 s of sim time: ~300k packets
constexpr sim::SimNanos kDrainNs = 2'000'000;
constexpr std::size_t kFrameSizes[] = {64, 576, 1500};

struct Flow {
  BenchHost* src = nullptr;
  BenchHost* dst = nullptr;
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  std::vector<net::UdpTemplate> frames;  // one per kFrameSizes entry
};

}  // namespace

Report run_hairpin_l2(const Options& options) {
  const std::int64_t start_ns = wall_ns();
  Tracer& tracer = *options.tracer;
  sim::Network network;
  sim::Engine& engine = network.engine();

  legacy::SwitchConfig factory;
  factory.hostname = "closet-sw";
  for (int port = 1; port <= kHosts + 1; ++port) factory.ports[port] = legacy::PortConfig{};
  auto& device = network.add_node<TracedLegacySwitch>("legacy", factory, tracer);

  std::vector<BenchHost*> hosts;
  for (int i = 0; i < kHosts; ++i) {
    auto& host = network.add_node<BenchHost>(
        numbered("h", i + 1), net::MacAddr::from_u64(0x020000000001ULL + i),
        net::Ipv4Addr(0x0a000001u + static_cast<std::uint32_t>(i)), tracer);
    network.connect(host, 0, device, static_cast<std::size_t>(i), sim::LinkSpec::gbps(1));
    hosts.push_back(&host);
  }

  // Management plane and controller with the proactive L2 program.
  mgmt::SnmpAgent agent;
  mgmt::SwitchMib mib(agent, device);
  mgmt::SnmpDriver driver(agent, mgmt::make_ios_like_dialect());
  controller::Controller ctrl("perfbench");
  auto& program = ctrl.add_app<controller::StaticFlowApp>();
  for (int i = 0; i < kHosts; ++i) {
    openflow::FlowModMsg mod;
    mod.table_id = 0;
    mod.priority = 10;
    mod.match.eth_dst(hosts[static_cast<std::size_t>(i)]->mac());
    mod.instructions = openflow::apply({openflow::output(static_cast<std::uint32_t>(i + 1))});
    program.flow(mod);
  }

  core::HarmlessManager manager(driver, device, network);
  core::MigrationRequest request;
  for (int port = 1; port <= kHosts; ++port) request.access_ports.push_back(port);
  request.trunk_port = kHosts + 1;
  request.fabric.trunk_link = sim::LinkSpec::gbps(10);
  std::optional<core::Deployment> deployment;
  {
    Span span(tracer, SpanName::kMigrate);
    auto [report, deployed] = manager.migrate(request, ctrl);
    if (!report.success) throw std::runtime_error("migration failed: " + report.failure);
    deployment = std::move(deployed);
  }
  core::Fabric& fabric = deployment->fabric();
  softswitch::SoftSwitch& ss1 = fabric.ss1();
  softswitch::SoftSwitch& ss2 = fabric.ss2();
  {
    Span span(tracer, SpanName::kConnect);
    network.run_until(engine.now() + 2'000'000);
  }
  if (ss2.pipeline().table(0).size() != static_cast<std::size_t>(kHosts))
    throw std::runtime_error("SS_2 did not receive the L2 program");

  // Seeded 5-tuples.
  util::Rng rng(options.seed);
  std::vector<Flow> flows(kFlows);
  constexpr std::uint16_t kPorts[] = {53, 80, 443, 8080, 9000};
  for (Flow& flow : flows) {
    const auto src = static_cast<std::size_t>(rng.below(kHosts));
    const auto dst = (src + 1 + rng.below(kHosts - 1)) % kHosts;
    flow.src = hosts[src];
    flow.dst = hosts[dst];
    flow.sport = static_cast<std::uint16_t>(1024 + rng.below(64000));
    flow.dport = kPorts[rng.below(5)];
    net::FlowKey key;
    key.eth_src = hosts[src]->mac();
    key.eth_dst = hosts[dst]->mac();
    key.ip_src = hosts[src]->ip();
    key.ip_dst = hosts[dst]->ip();
    for (const std::size_t size : kFrameSizes) flow.frames.emplace_back(key, size);
  }

  // Warm-up, part 1: every host announces itself and every 5-tuple is
  // sent once in each direction, so the legacy switch has learned every
  // (VLAN, MAC) pair the hairpin needs and no packet is flooded.
  sim::SimNanos at = engine.now();
  const auto send_once = [&engine, &at](BenchHost* from, const BenchHost* to) {
    net::FlowKey key;
    key.eth_src = from->mac();
    key.eth_dst = to->mac();
    key.ip_src = from->ip();
    key.ip_dst = to->ip();
    engine.schedule_at(at += 1000, [from, key] { from->send(net::make_udp(key, 64)); });
  };
  for (int i = 0; i < kHosts; ++i)
    send_once(hosts[static_cast<std::size_t>(i)], hosts[static_cast<std::size_t>((i + 1) % kHosts)]);
  for (const Flow& flow : flows) {
    send_once(flow.src, flow.dst);
    send_once(flow.dst, flow.src);
  }
  network.run_until(at + kDrainNs);

  // Warm-up, part 2, and the measured window: one open-loop stream.
  // The warm-up slice fills the flow caches and queues to steady state;
  // a drain gap keeps its packets out of the measured ledger.
  const auto fire = [&flows, &tracer](util::Rng& draw) {
    const Flow& flow = flows[draw.below(kFlows)];
    const std::uint64_t pick = draw.below(12);  // simple IMIX, 7:4:1
    const std::size_t size = pick < 7 ? 0 : (pick < 11 ? 1 : 2);
    net::Packet packet = [&] {
      Span span(tracer, SpanName::kNetGen);
      return flow.frames[size].stamp(flow.sport, flow.dport);
    }();
    flow.src->transmit(std::move(packet));
  };
  Arrivals warmup(engine, options.seed ^ 0xbb67ae8584caa73bULL, kOfferedPps, fire);
  warmup.start(engine.now(), engine.now() + kWarmupNs);
  network.run_until(engine.now() + kWarmupNs + kDrainNs);

  const sim::SimNanos t0 = engine.now();
  const sim::SimNanos t_end = t0 + kTrafficNs;
  Arrivals arrivals(engine, options.seed ^ 0x6a09e667f3bcc908ULL, kOfferedPps, fire);
  arrivals.start(t0, t_end);
  PeakSampler sampler(engine, 50'000);
  sampler.start(t0, t_end);

  std::vector<sim::Channel*> trunk = network.find_channels("SS_1");
  std::vector<sim::SimNanos> trunk_busy0;
  for (const sim::Channel* channel : trunk) trunk_busy0.push_back(channel->busy_ns());
  const SwitchMark mark1 = SwitchMark::take(ss1);
  const SwitchMark mark2 = SwitchMark::take(ss2);
  const legacy::LegacySwitch::Counters legacy0 = device.counters();
  const sim::SimNanos legacy_busy0 = device.busy_ns();
  const std::uint64_t legacy_drops0 = device.queue_drops();
  const std::uint64_t packet_ins0 = ctrl.stats().packet_ins;
  openflow::ControlChannel& control = fabric.control_channel();
  const std::uint64_t messages0 = control.to_controller().sent + control.to_switch().sent;

  Window window(network, hosts, tracer, *options.probe, start_ns);
  window.open();
  window.run(t_end, t_end + kDrainNs);

  Report report;
  Fields& model = report.model;
  Sums sums;
  add_switch(model, sums, ss1, mark1, {"ss1"});
  add_switch(model, sums, ss2, mark2, {"ss2", "sw"});
  sums["rxq_drops"] += device.queue_drops() - legacy_drops0;
  sums["rxq_depth"] += device.queue_depth();
  sums["rxq_peak"] = std::max(sums["rxq_peak"], peak_queue_depth(device));
  sums["channel_msgs"] = control.to_controller().sent + control.to_switch().sent - messages0;
  sums["channel_in_flight"] = in_flight(control);
  sums["packet_ins"] = ctrl.stats().packet_ins - packet_ins0;

  sim::SimNanos trunk_busy = 0;
  for (std::size_t i = 0; i < trunk.size(); ++i)
    trunk_busy = std::max(trunk_busy, trunk[i]->busy_ns() - trunk_busy0[i]);
  model.set("trunk_busy_ns", static_cast<std::int64_t>(trunk_busy));
  model.set("legacy_busy_ns", static_cast<std::int64_t>(device.busy_ns() - legacy_busy0));
  model.set("legacy_flooded", device.counters().flooded - legacy0.flooded);
  window.close(report, sums, sampler);

  report.drops.set("softswitch.no_match", sums["drops_no_match"]);
  report.drops.set("legacy.ingress_filtered",
                   device.counters().ingress_filtered - legacy0.ingress_filtered);
  report.drops.set("legacy.no_member_egress",
                   device.counters().no_member_egress - legacy0.no_member_egress);
  return report;
}

}  // namespace perfbench
