// flow_churn — the openflow layer written instead of read.
//
// One native one-core soft switch with 64 hosts. Table 0 holds a fixed
// pseudo-random ACL of 256 wildcard permit rules over 8 mask classes, all
// chaining to table 1; table 1 is driven by LearningSwitchApp (with an
// idle timeout) over a real ControlChannel.
//
// Traffic: open-loop Poisson arrivals of new UDP 5-tuples at
// kFlowsPerSecond with Pareto-distributed sizes (most flows are a few
// packets, a few are long), paced within a flow. Destinations come from
// an active set of 16 hosts that rotates every 25 ms, so learned rules
// idle out, are swept, and are learned again: cache misses, megaflow
// inserts, CLOCK evictions (the megaflow tier is kept small), epoch
// invalidations and packet-in -> flow-mod/packet-out round trips.
// The arrival rate, the Pareto shape (1 < alpha < 2: finite mean,
// infinite variance) and the rotation are synthetic picks that keep
// every one of those paths busy; they are not fitted to a trace.
#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "openflow/channel.hpp"

namespace perfbench {

namespace {

constexpr int kHosts = 64;
constexpr int kActive = 16;
constexpr sim::SimNanos kRotateNs = 25'000'000;
constexpr sim::SimNanos kIdleTimeoutNs = 20'000'000;
constexpr double kFlowsPerSecond = 200'000;
constexpr double kParetoAlpha = 1.5;
constexpr std::uint32_t kMaxFlowPackets = 128;
constexpr sim::SimNanos kPacketGapNs = 10'000;
constexpr sim::SimNanos kWarmupNs = 50'000'000;
constexpr sim::SimNanos kTrafficNs = 1'600'000'000;
// Long enough for the longest flow still sending at the window's end.
constexpr sim::SimNanos kDrainNs = kMaxFlowPackets * kPacketGapNs + 2'000'000;

/// 256 permit rules over 8 mask classes; none drops. The rule set is
/// part of the fixed configuration (its own constant seed), so runs with
/// different --seed values differ in traffic only and compare.
void install_acl(softswitch::SoftSwitch& sw) {
  util::Rng rng(0xac1);
  const auto prefix = [&rng](int bits) {
    const auto host_bits = static_cast<std::uint32_t>(rng.below(1u << 24));
    return net::Ipv4Addr(0x0a000000u | (host_bits & ~0u << (32 - bits)));
  };
  constexpr std::uint8_t kUdp = 17;
  for (int rule = 0; rule < 256; ++rule) {
    openflow::FlowModMsg mod;
    mod.table_id = 0;
    mod.priority = static_cast<std::uint16_t>(100 + rng.below(800));
    switch (rule % 8) {
      case 0: mod.match.eth_type(0x0800).ip_src_prefix(prefix(16), 16); break;
      case 1: mod.match.eth_type(0x0800).ip_src_prefix(prefix(24), 24); break;
      case 2: mod.match.eth_type(0x0800).ip_dst_prefix(prefix(16), 16); break;
      case 3: mod.match.eth_type(0x0800).ip_dst_prefix(prefix(24), 24); break;
      case 4:
        mod.match.eth_type(0x0800).ip_proto(kUdp).l4_dst(
            static_cast<std::uint16_t>(1 + rng.below(2048)));
        break;
      case 5:
        mod.match.eth_type(0x0800).ip_proto(kUdp).l4_src(
            static_cast<std::uint16_t>(1024 + rng.below(4096)));
        break;
      case 6:
        mod.match.eth_type(0x0800).ip_src_prefix(prefix(24), 24).ip_proto(kUdp).l4_dst(
            static_cast<std::uint16_t>(1 + rng.below(2048)));
        break;
      default:
        mod.match.in_port(static_cast<std::uint32_t>(1 + rng.below(kHosts)))
            .eth_type(0x0800)
            .ip_dst_prefix(prefix(16), 16);
        break;
    }
    mod.instructions = openflow::apply_then_goto({}, 1);
    sw.install(mod).check();
  }
  openflow::FlowModMsg rest;
  rest.table_id = 0;
  rest.priority = 0;
  rest.instructions = openflow::apply_then_goto({}, 1);
  sw.install(rest).check();
}

struct Churn {
  sim::Engine& engine;
  Tracer& tracer;
  std::vector<BenchHost*>& hosts;
  std::vector<net::UdpTemplate> frames;  // [src * kHosts + dst]
  sim::SimNanos epoch = 0;               // rotation origin

  /// One new flow: a fresh 5-tuple, a Pareto size, packets paced.
  void arrive(util::Rng& draw) {
    const auto src = static_cast<std::uint32_t>(draw.below(kHosts));
    const auto phase = static_cast<std::uint32_t>((engine.now() - epoch) / kRotateNs);
    auto dst = static_cast<std::uint32_t>((phase * kActive + draw.below(kActive)) % kHosts);
    if (dst == src) dst = (dst + 1) % kHosts;
    const double pareto = std::pow(1.0 - draw.uniform(), -1.0 / kParetoAlpha);
    const auto packets = static_cast<std::uint32_t>(
        std::min<double>(kMaxFlowPackets, std::floor(pareto)));
    const auto sport = static_cast<std::uint16_t>(1024 + draw.below(64000));
    const auto dport = static_cast<std::uint16_t>(1 + draw.below(4096));
    for (std::uint32_t i = 0; i < packets; ++i) {
      engine.schedule_after(static_cast<sim::SimNanos>(i) * kPacketGapNs,
                            [this, src, dst, sport, dport] {
                              net::Packet packet = [&] {
                                Span span(tracer, SpanName::kNetGen);
                                return frames[src * kHosts + dst].stamp(sport, dport);
                              }();
                              hosts[src]->transmit(std::move(packet));
                            });
    }
  }
};

}  // namespace

Report run_flow_churn(const Options& options) {
  const std::int64_t start_ns = wall_ns();
  Tracer& tracer = *options.tracer;
  sim::Network network;
  sim::Engine& engine = network.engine();

  auto& sw = network.add_node<TracedSoftSwitch>("churn", tracer, 0xc4, kHosts);
  openflow::FlowCache::Limits limits;
  limits.max_megaflows = 512;
  limits.max_microflows = 4096;
  sw.pipeline().cache(0).set_limits(limits);
  std::vector<BenchHost*> hosts;
  for (int i = 0; i < kHosts; ++i) {
    auto& host = network.add_node<BenchHost>(
        numbered("h", i + 1), net::MacAddr::from_u64(0x020000000001ULL + i),
        net::Ipv4Addr(0x0a000001u + static_cast<std::uint32_t>(i) * 0x10101u), tracer);
    network.connect(host, 0, sw, static_cast<std::size_t>(i), sim::LinkSpec::gbps(1));
    hosts.push_back(&host);
  }

  install_acl(sw);

  openflow::ControlChannel channel(engine);
  sw.attach_channel(channel);
  controller::Controller ctrl("perfbench");
  auto& learning = ctrl.add_app<TracedLearningApp>(tracer, 1, kIdleTimeoutNs);
  {
    Span span(tracer, SpanName::kConnect);
    ctrl.connect(channel, "churn");
    network.run_until(engine.now() + 1'000'000);
  }

  Churn churn{engine, tracer, hosts, {}, 0};
  churn.frames.reserve(kHosts * kHosts);
  for (BenchHost* src : hosts) {
    for (BenchHost* dst : hosts) {
      net::FlowKey key;
      key.eth_src = src->mac();
      key.eth_dst = dst->mac();
      key.ip_src = src->ip();
      key.ip_dst = dst->ip();
      churn.frames.emplace_back(key, 64);
    }
  }

  // Warm-up: every host sends once so the controller has learned every
  // station (no floods later), then a slice of the real traffic.
  for (int i = 0; i < kHosts; ++i) {
    engine.schedule_after(static_cast<sim::SimNanos>(i) * 1000, [&churn, i] {
      churn.hosts[static_cast<std::size_t>(i)]->send(
          churn.frames[static_cast<std::size_t>(i * kHosts + (i + 1) % kHosts)].stamp(7, 7));
    });
  }
  network.run_until(engine.now() + 2'000'000);
  churn.epoch = engine.now();
  Arrivals warmup(engine, options.seed ^ 0xbb67ae8584caa73bULL, kFlowsPerSecond,
                  [&churn](util::Rng& draw) { churn.arrive(draw); });
  warmup.start(engine.now(), engine.now() + kWarmupNs);
  network.run_until(engine.now() + kWarmupNs + kDrainNs);

  const sim::SimNanos t0 = engine.now();
  const sim::SimNanos t_end = t0 + kTrafficNs;
  Arrivals arrivals(engine, options.seed ^ 0x6a09e667f3bcc908ULL, kFlowsPerSecond,
                    [&churn](util::Rng& draw) { churn.arrive(draw); });
  arrivals.start(t0, t_end);
  PeakSampler sampler(engine, 50'000);
  sampler.start(t0, t_end);

  const SwitchMark mark = SwitchMark::take(sw);
  const std::uint64_t packet_ins0 = ctrl.stats().packet_ins;
  const std::uint64_t installed0 = learning.stats().flows_installed;
  const std::uint64_t floods0 = learning.stats().floods;
  const std::uint64_t messages0 = channel.to_controller().sent + channel.to_switch().sent;

  Window window(network, hosts, tracer, *options.probe, start_ns);
  window.open();
  window.run(t_end, t_end + kDrainNs);

  Report report;
  Sums sums;
  add_switch(report.model, sums, sw, mark, {"sw"});
  sums["channel_msgs"] = channel.to_controller().sent + channel.to_switch().sent - messages0;
  sums["channel_in_flight"] = in_flight(channel);
  sums["packet_ins"] = ctrl.stats().packet_ins - packet_ins0;
  sums["flows_installed"] = learning.stats().flows_installed - installed0;
  sums["controller_floods"] = learning.stats().floods - floods0;
  window.close(report, sums, sampler);
  report.drops.set("softswitch.no_match", sums["drops_no_match"]);
  return report;
}

}  // namespace perfbench
