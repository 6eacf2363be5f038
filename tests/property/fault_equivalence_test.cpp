// Chaos properties of the fault-injection layer.
//
// (a) Equivalence: a fabric with a registered FaultInjector and an
//     EMPTY FaultPlan is bit-identical to the same fabric without the
//     injector — registration alone must perturb nothing (the fault-
//     free Tables 1-7 guarantee).
// (b) Conservation under chaos: for seeded random fault schedules
//     (control partitions, controller crash+restart, access-link
//     flaps, switch reboots) no host ever sees the same packet id
//     twice, every channel message is attributed (delivered or counted
//     in exactly one drop bucket), every disconnect reconnects and
//     resyncs once the plan heals, and the same seed replays to the
//     same digest.

#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>
#include <vector>

#include "bench/common.hpp"
#include "controller/apps/static_flows.hpp"
#include "controller/controller.hpp"
#include "net/build.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"
#include "softswitch/soft_switch.hpp"
#include "util/status.hpp"

namespace {

using namespace harmless;
using softswitch::FailoverSpec;
using softswitch::SoftSwitch;

constexpr sim::SimNanos kMs = 1'000'000;

// FNV-1a over a stream of u64 observations.
struct Digest {
  std::uint64_t value = 14695981039346656037ULL;
  void fold(std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      value ^= (x >> (byte * 8)) & 0xff;
      value *= 1099511628211ULL;
    }
  }
};

// ---- (a) empty-plan equivalence --------------------------------------

std::uint64_t run_harmless_workload(bool with_injector) {
  bench::RigOptions options;
  options.host_count = 4;
  bench::HarmlessRig rig(options);

  std::unique_ptr<sim::FaultInjector> injector;
  if (with_injector) {
    injector = std::make_unique<sim::FaultInjector>(rig.network.engine());
    rig.fabric->register_faults(*injector);
    injector->arm(sim::FaultPlan{});  // empty: arms nothing
  }

  for (int i = 0; i < options.host_count; ++i)
    rig.stream(i, (i + 1) % options.host_count, 400, 128, 2'000);
  rig.network.run();

  Digest digest;
  digest.fold(static_cast<std::uint64_t>(rig.network.now()));
  digest.fold(rig.network.engine().events_dispatched());
  for (const sim::Host* host : rig.hosts) {
    digest.fold(host->counters().rx_total);
    digest.fold(host->counters().rx_udp);
  }
  for (const SoftSwitch* sw : {&rig.fabric->ss1(), &rig.fabric->ss2()}) {
    const auto& counters = sw->counters();
    digest.fold(counters.pipeline_runs);
    digest.fold(counters.packets_out);
    digest.fold(counters.cache_hits);
    digest.fold(counters.cache_misses);
    digest.fold(counters.drops_no_match);
  }
  digest.fold(rig.device->counters().forwarded);
  digest.fold(rig.device->counters().flooded);
  const auto& to_ctrl = rig.fabric->control_channel().to_controller();
  digest.fold(to_ctrl.sent);
  digest.fold(to_ctrl.delivered + to_ctrl.dropped_down + to_ctrl.dropped_loss +
              to_ctrl.dropped_no_handler);
  if (with_injector) {
    EXPECT_EQ(injector->stats().armed, 0u);
    EXPECT_EQ(injector->stats().fired, 0u);
  }
  return digest.value;
}

TEST(FaultEquivalence, EmptyPlanIsByteIdenticalToNoInjector) {
  EXPECT_EQ(run_harmless_workload(false), run_harmless_workload(true));
}

// ---- (b) conservation under seeded chaos -----------------------------

net::MacAddr host_mac(int index) {
  return net::MacAddr::from_u64(0x020000000001ULL + static_cast<std::uint64_t>(index));
}
net::Ipv4Addr host_ip(int index) {
  return net::Ipv4Addr(0x0a000001u + static_cast<std::uint32_t>(index));
}

struct ChaosOutcome {
  std::uint64_t digest = 0;
  bool duplicate_delivery = false;
};

ChaosOutcome run_chaos(std::uint64_t seed) {
  const int host_count = 4;
  sim::Network network;
  auto& sw = network.add_node<SoftSwitch>("sw", 0xC0, static_cast<std::size_t>(host_count),
                                          /*table_count=*/1);
  std::vector<sim::Host*> hosts;
  std::vector<std::unordered_set<std::uint64_t>> seen(static_cast<std::size_t>(host_count));
  ChaosOutcome outcome;
  for (int i = 0; i < host_count; ++i) {
    sim::Host& host = network.add_host(util::format("h%d", i), host_mac(i), host_ip(i));
    network.connect(host, 0, sw, static_cast<std::size_t>(i), sim::LinkSpec::gbps(10));
    host.set_on_receive([&outcome, &seen, i](const net::Packet& packet,
                                             const net::ParsedPacket&) {
      if (!seen[static_cast<std::size_t>(i)].insert(packet.id()).second)
        outcome.duplicate_delivery = true;
    });
    hosts.push_back(&host);
  }

  openflow::ControlChannel channel(network.engine());
  sw.attach_channel(channel);
  FailoverSpec spec;
  spec.mode = (seed % 2 == 0) ? FailoverSpec::Mode::kFailSecure
                              : FailoverSpec::Mode::kFailStandalone;
  spec.echo_interval_ns = 500'000;
  spec.seed = seed;
  sw.set_failover(spec);

  controller::Controller ctrl;
  auto& app = ctrl.add_app<controller::StaticFlowApp>();
  std::size_t rule_count = 0;
  for (int i = 0; i < host_count; ++i) {
    openflow::FlowModMsg mod;
    mod.table_id = 0;
    mod.priority = 10;
    mod.match.eth_dst(host_mac(i));
    mod.instructions = openflow::apply({openflow::output(static_cast<std::uint32_t>(i + 1))});
    app.flow(mod);
    ++rule_count;
  }
  {
    openflow::FlowModMsg miss;
    miss.table_id = 0;
    miss.priority = 0;
    miss.instructions = openflow::apply({openflow::to_controller()});
    app.flow(miss);
    ++rule_count;
  }
  ctrl.connect(channel, "sw");

  sim::FaultInjector injector(network.engine());
  injector.register_point("control", channel);
  injector.register_point("ctrl", ctrl);
  injector.register_point("sw", sw);
  for (sim::Channel* link : network.find_channels("h0"))
    injector.register_link("link0", *link);

  sim::FaultPlan plan;
  plan.seed = seed;
  plan.random_outages("control", 2, 5 * kMs, 40 * kMs, 2 * kMs)
      .random_outages("link0", 1, 10 * kMs, 30 * kMs, 1 * kMs)
      .random_crashes("ctrl", 1, 45 * kMs, 60 * kMs, 3 * kMs);
  if (seed % 3 == 0) plan.random_crashes("sw", 1, 65 * kMs, 78 * kMs, 2 * kMs);
  injector.arm(plan);

  // Traffic spanning the whole chaos window.
  for (int i = 0; i < host_count; ++i)
    hosts[static_cast<std::size_t>(i)]->send_udp_stream(
        hosts[static_cast<std::size_t>((i + 1) % host_count)]->mac(),
        hosts[static_cast<std::size_t>((i + 1) % host_count)]->ip(), 1200, 64, 50'000);

  // All fault windows close by ~80 ms; the last 20 ms are quiet time
  // for detection + capped backoff + resync to finish.
  network.run_until(100 * kMs);

  // Injector fired everything it armed.
  EXPECT_EQ(injector.stats().fired, injector.stats().armed);

  // Faults all healed; the control session recovered.
  EXPECT_TRUE(channel.is_up()) << "seed " << seed;
  EXPECT_FALSE(ctrl.crashed()) << "seed " << seed;
  EXPECT_FALSE(sw.restarting()) << "seed " << seed;
  EXPECT_TRUE(sw.control_connected()) << "seed " << seed;
  const auto& stats = sw.failover_stats();
  EXPECT_EQ(stats.disconnects, stats.reconnects) << "seed " << seed;
  // Every reconnect is resynced unless a new fault interrupts it —
  // in which case the NEXT reconnect resyncs; so resyncs never exceeds
  // reconnects, at least one lands if any reconnect did, and the final
  // reconnection always completed its resync.
  EXPECT_LE(stats.resyncs, stats.reconnects) << "seed " << seed;
  if (stats.reconnects > 0) {
    EXPECT_GE(stats.resyncs, 1u) << "seed " << seed;
    EXPECT_GE(stats.last_resync_at, stats.last_reconnect_at) << "seed " << seed;
  }
  // The programmed state survived or was re-installed.
  EXPECT_EQ(sw.pipeline().table(0).entries().size(), rule_count) << "seed " << seed;

  // Channel conservation: every message delivered or attributed to
  // exactly one drop bucket, modulo the handful still in flight at the
  // deadline (probes sent within one RTT of it).
  for (const auto* direction : {&channel.to_controller(), &channel.to_switch()}) {
    const std::uint64_t accounted = direction->delivered + direction->dropped_down +
                                    direction->dropped_loss + direction->dropped_no_handler;
    EXPECT_GE(direction->sent, accounted) << "seed " << seed;
    EXPECT_LE(direction->sent - accounted, 4u) << "seed " << seed;
  }

  Digest digest;
  digest.fold(network.engine().events_dispatched());
  for (const sim::Host* host : hosts) digest.fold(host->counters().rx_total);
  digest.fold(stats.disconnects);
  digest.fold(stats.reconnects);
  digest.fold(stats.resyncs);
  digest.fold(stats.standalone_packets);
  digest.fold(stats.packet_ins_dropped);
  digest.fold(channel.to_controller().sent);
  digest.fold(channel.to_switch().sent);
  outcome.digest = digest.value;
  return outcome;
}

TEST(FaultChaos, ConservationInvariantsHoldAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const ChaosOutcome outcome = run_chaos(seed);
    EXPECT_FALSE(outcome.duplicate_delivery) << "seed " << seed;
  }
}

TEST(FaultChaos, SameSeedReplaysBitIdentically) {
  const ChaosOutcome first = run_chaos(7);
  const ChaosOutcome again = run_chaos(7);
  EXPECT_FALSE(first.duplicate_delivery);
  EXPECT_EQ(first.digest, again.digest);
}

// ---- derived fault-target names (auto-registration) ------------------

TEST(FaultEquivalence, DerivedTargetNamesCoverTheFabric) {
  bench::RigOptions options;
  options.host_count = 4;
  bench::HarmlessRig rig(options);
  sim::FaultInjector injector(rig.network.engine());
  rig.fabric->register_faults(injector, rig.network);

  // Legacy aliases stay registered — existing plans keep working.
  for (const char* name : {"trunk", "control", "ss1", "ss2"})
    EXPECT_TRUE(injector.has_target(name)) << name;
  // Derived names: every component self-registers.
  for (const char* name : {"switch:SS_1", "switch:SS_2", "control:SS_2", "trunk:leg0"})
    EXPECT_TRUE(injector.has_target(name)) << name;
  // The whole-network surface: one "link:<label>" per channel.
  const std::vector<std::string> names = injector.target_names();
  std::size_t links = 0;
  for (const std::string& name : names)
    if (name.rfind("link:", 0) == 0) ++links;
  EXPECT_EQ(links, rig.network.channels().size());
  // target_names is sorted and de-duplicated enough to drive schedules.
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(FaultEquivalence, DuplicateRegistrationFailsLoudly) {
  sim::Network network;
  sim::Host& h0 = network.add_host("h0", host_mac(0), host_ip(0));
  sim::Host& h1 = network.add_host("h1", host_mac(1), host_ip(1));
  network.connect(h0, 0, h1, 0, sim::LinkSpec::gbps(1));
  sim::FaultInjector injector(network.engine());
  sim::FaultPoint point;
  sim::Channel* link = network.find_channels("h0").front();

  injector.register_point("ctrl", point);
  injector.register_link("wire", *link);
  // Same object under the same name again: silent shadowing would make
  // one plan event fire the fault twice — refuse instead.
  EXPECT_THROW(injector.register_point("ctrl", point), util::ConfigError);
  EXPECT_THROW(injector.register_link("wire", *link), util::ConfigError);
  // Cross-type shadowing (a link named like a point or vice versa)
  // would make target_names ambiguous — also refused.
  EXPECT_THROW(injector.register_link("ctrl", *link), util::ConfigError);
  EXPECT_THROW(injector.register_point("wire", point), util::ConfigError);
  // Fan-out under one name with distinct objects stays legal (e.g.
  // both directions of a duplex pair as one target).
  sim::FaultPoint second;
  injector.register_point("ctrl", second);
  EXPECT_TRUE(injector.has_target("ctrl"));
}

// ---- (c) chaos with conntrack in the pipeline ------------------------

/// Stateful-firewall rules (same scheme as the failover tests): only
/// tracked connections pass h0 <-> h1, everything else drops. Under
/// chaos this makes the conntrack table load-bearing — lose it and the
/// established flow's segments go INVALID.
std::vector<openflow::FlowModMsg> ct_firewall_rules() {
  std::vector<openflow::FlowModMsg> rules;
  for (int dir = 0; dir < 2; ++dir) {
    openflow::FlowModMsg est;
    est.table_id = 0;
    est.priority = 30;
    est.match.in_port(static_cast<std::uint32_t>(dir + 1)).ct_established();
    est.instructions =
        openflow::apply({openflow::ct_commit(), openflow::output(dir == 0 ? 2u : 1u)});
    rules.push_back(est);
  }
  openflow::FlowModMsg open;
  open.table_id = 0;
  open.priority = 20;
  open.match.in_port(1).ct_new();
  open.instructions = openflow::apply({openflow::ct_commit(), openflow::output(2)});
  rules.push_back(open);
  openflow::FlowModMsg drop;
  drop.table_id = 0;
  drop.priority = 0;
  rules.push_back(drop);
  return rules;
}

struct CtChaosRig {
  sim::Network network;
  SoftSwitch* sw = nullptr;
  sim::Host* a = nullptr;
  sim::Host* b = nullptr;
  std::unique_ptr<openflow::ControlChannel> channel;
  controller::Controller ctrl;
  net::FlowKey flow;        // a -> b
  net::FlowKey reply_flow;  // b -> a
  std::size_t rule_count = 0;
  bool duplicate_delivery = false;
  std::unordered_set<std::uint64_t> seen_a;
  std::unordered_set<std::uint64_t> seen_b;

  explicit CtChaosRig(std::uint64_t seed, sim::SimNanos checkpoint_interval) {
    sw = &network.add_node<SoftSwitch>("fw", 0xC7, 2, /*table_count=*/1);
    sw->enable_conntrack(openflow::CtConfig{});
    a = &network.add_host("a", host_mac(0), host_ip(0));
    b = &network.add_host("b", host_mac(1), host_ip(1));
    network.connect(*a, 0, *sw, 0, sim::LinkSpec::gbps(10));
    network.connect(*b, 0, *sw, 1, sim::LinkSpec::gbps(10));
    a->set_on_receive([this](const net::Packet& packet, const net::ParsedPacket&) {
      if (!seen_a.insert(packet.id()).second) duplicate_delivery = true;
    });
    b->set_on_receive([this](const net::Packet& packet, const net::ParsedPacket&) {
      if (!seen_b.insert(packet.id()).second) duplicate_delivery = true;
    });
    channel = std::make_unique<openflow::ControlChannel>(network.engine());
    sw->attach_channel(*channel);
    FailoverSpec spec;
    spec.mode = FailoverSpec::Mode::kFailSecure;
    spec.echo_interval_ns = 500'000;
    spec.echo_miss_threshold = 3;
    spec.seed = seed;
    spec.checkpoint_interval_ns = checkpoint_interval;
    sw->set_failover(spec);
    auto& app = ctrl.add_app<controller::StaticFlowApp>();
    for (const openflow::FlowModMsg& rule : ct_firewall_rules()) {
      app.flow(rule);
      ++rule_count;
    }
    ctrl.connect(*channel, "fw");
    flow = net::FlowKey{a->mac(), b->mac(), a->ip(), b->ip(), 40000, 80};
    reply_flow = net::FlowKey{b->mac(), a->mac(), b->ip(), a->ip(), 80, 40000};
  }

  /// Handshake at 2 ms, then a paced ACK stream (with periodic reverse
  /// ACKs) spanning [3 ms, until) — traffic is in flight through every
  /// fault window.
  void schedule_traffic(sim::SimNanos until) {
    sim::Engine& engine = network.engine();
    engine.schedule_at(2 * kMs, [this] { a->send(net::make_tcp(flow, net::kTcpSyn)); });
    engine.schedule_at(2 * kMs + 200'000,
                       [this] { b->send(net::make_tcp(reply_flow, net::kTcpSyn | net::kTcpAck)); });
    for (sim::SimNanos at = 3 * kMs; at < until; at += 100'000)
      engine.schedule_at(at, [this] { a->send(net::make_tcp(flow, net::kTcpAck)); });
    for (sim::SimNanos at = 3 * kMs + 50'000; at < until; at += kMs)
      engine.schedule_at(at, [this] { b->send(net::make_tcp(reply_flow, net::kTcpAck)); });
  }

  [[nodiscard]] std::uint64_t digest() {
    Digest digest;
    digest.fold(network.engine().events_dispatched());
    digest.fold(a->counters().rx_total);
    digest.fold(a->counters().rx_tcp);
    digest.fold(b->counters().rx_total);
    digest.fold(b->counters().rx_tcp);
    const auto& failover = sw->failover_stats();
    digest.fold(failover.disconnects);
    digest.fold(failover.reconnects);
    digest.fold(failover.resyncs);
    digest.fold(failover.crashes);
    digest.fold(failover.checkpoints);
    digest.fold(failover.ct_restored);
    digest.fold(failover.ct_restore_dropped);
    digest.fold(failover.warm_resyncs);
    const auto& ct = sw->pipeline().conntrack(0).stats();
    digest.fold(ct.created);
    digest.fold(ct.refreshed);
    digest.fold(ct.expired);
    digest.fold(ct.invalid);
    digest.fold(ct.restored);
    digest.fold(channel->to_controller().sent);
    digest.fold(channel->to_switch().sent);
    return digest.value;
  }
};

ChaosOutcome run_ct_chaos(std::uint64_t seed, sim::SimNanos checkpoint_interval) {
  CtChaosRig rig(seed, checkpoint_interval);

  sim::FaultInjector injector(rig.network.engine());
  injector.register_point("control", *rig.channel);
  injector.register_point("ctrl", rig.ctrl);
  injector.register_point("sw", *rig.sw);

  sim::FaultPlan plan;
  plan.seed = seed;
  plan.random_outages("control", 2, 5 * kMs, 40 * kMs, 2 * kMs)
      .random_crashes("sw", 2, 20 * kMs, 70 * kMs, 2 * kMs)
      .random_crashes("ctrl", 1, 45 * kMs, 60 * kMs, 3 * kMs);
  injector.arm(plan);

  rig.schedule_traffic(80 * kMs);
  rig.network.run_until(100 * kMs);

  EXPECT_EQ(injector.stats().fired, injector.stats().armed);
  EXPECT_FALSE(rig.sw->restarting()) << "seed " << seed;
  EXPECT_TRUE(rig.sw->control_connected()) << "seed " << seed;
  EXPECT_EQ(rig.sw->pipeline().table(0).entries().size(), rig.rule_count) << "seed " << seed;
  if (checkpoint_interval > 0) {
    // The handshake commits by ~2.2 ms and the first crash window
    // opens at 20 ms: at least one checkpoint must have landed.
    EXPECT_GE(rig.sw->failover_stats().checkpoints, 1u) << "seed " << seed;
  }

  ChaosOutcome outcome;
  outcome.duplicate_delivery = rig.duplicate_delivery;
  outcome.digest = rig.digest();
  return outcome;
}

TEST(FaultChaos, ConntrackConservationInvariantsHoldAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const ChaosOutcome outcome = run_ct_chaos(seed, kMs);
    EXPECT_FALSE(outcome.duplicate_delivery) << "seed " << seed;
  }
}

TEST(FaultChaos, ConntrackSameSeedReplaysBitIdentically) {
  // With ct (and its checkpoint timer) in the pipeline the replay
  // guarantee must hold bit-for-bit, checkpointing on and off.
  for (const sim::SimNanos interval : {sim::SimNanos{0}, kMs}) {
    const ChaosOutcome first = run_ct_chaos(7, interval);
    const ChaosOutcome again = run_ct_chaos(7, interval);
    EXPECT_FALSE(first.duplicate_delivery);
    EXPECT_EQ(first.digest, again.digest) << "interval " << interval;
  }
}

TEST(FaultChaos, DoubleFailureInsideResyncWindowConverges) {
  // A second crash landing while the first restart's reconnect/resync
  // is still in flight (capped backoff ~1-8 ms + handshake + install)
  // must still converge: connected, rules reinstalled, and the
  // checkpointed connection survives BOTH restarts.
  for (const sim::SimNanos offset :
       {sim::SimNanos{100'000}, sim::SimNanos{300'000}, 1 * kMs, 2 * kMs, 5 * kMs}) {
    CtChaosRig rig(11, kMs);
    sim::FaultInjector injector(rig.network.engine());
    injector.register_point("sw", *rig.sw);
    sim::FaultPlan plan;
    plan.crash("sw", 10 * kMs, 2 * kMs);           // restart at 12 ms
    plan.crash("sw", 12 * kMs + offset, 2 * kMs);  // inside the resync window
    injector.arm(plan);

    rig.schedule_traffic(30 * kMs);
    rig.network.run_until(45 * kMs);

    EXPECT_FALSE(rig.duplicate_delivery) << "offset " << offset;
    EXPECT_FALSE(rig.sw->restarting()) << "offset " << offset;
    EXPECT_TRUE(rig.sw->control_connected()) << "offset " << offset;
    EXPECT_EQ(rig.sw->pipeline().table(0).entries().size(), rig.rule_count)
        << "offset " << offset;
    EXPECT_EQ(rig.sw->failover_stats().crashes, 2u) << "offset " << offset;
    EXPECT_GE(rig.sw->failover_stats().ct_restored, 1u) << "offset " << offset;

    // The established flow still forwards: send 5 post-heal ACKs.
    const std::uint64_t before = rig.b->counters().rx_tcp;
    for (int i = 0; i < 5; ++i) {
      rig.network.engine().schedule_after(100'000, [&rig] {
        rig.a->send(net::make_tcp(rig.flow, net::kTcpAck));
      });
      rig.network.run_until(rig.network.now() + 200'000);
    }
    EXPECT_EQ(rig.b->counters().rx_tcp, before + 5) << "offset " << offset;
  }
}

// ---- (d) split-brain safety under chaos (PR 10) ----------------------

/// The PR-10 safety property: whatever the partition/crash schedule —
/// replication cut in either direction, witness links cut, active
/// crashed, even the witness itself crashed — the lease quorum plus
/// fail-closed fencing admit AT MOST ONE unfenced active at any
/// simulated instant, and fencing epochs never move backwards.
TEST(FaultChaos, AtMostOneUnfencedActiveUnderAnySchedule) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Network network;
    auto& act = network.add_node<SoftSwitch>("act", 0xA1, 2, /*table_count=*/1);
    auto& stb = network.add_node<SoftSwitch>("stb", 0xA2, 2, /*table_count=*/1);
    act.enable_conntrack(openflow::CtConfig{});
    stb.enable_conntrack(openflow::CtConfig{});
    softswitch::ReplicationChannel ab(network.engine());  // act -> stb
    softswitch::ReplicationChannel ba(network.engine());  // stb -> act
    sim::Witness witness;
    sim::WitnessLink wl_act(network.engine(), witness, 0xA1);
    sim::WitnessLink wl_stb(network.engine(), witness, 0xA2);
    act.set_ha_witness(wl_act);
    stb.set_ha_witness(wl_stb);
    act.enable_ha_active(ab, &ba);
    stb.enable_ha_standby(ab, &ba);

    sim::FaultInjector injector(network.engine());
    injector.register_point("repl:ab", ab);
    injector.register_point("repl:ba", ba);
    injector.register_point("wit:act", wl_act);
    injector.register_point("wit:stb", wl_stb);
    injector.register_point("act", act);
    injector.register_point("witness", witness);

    sim::FaultPlan plan;
    plan.seed = seed;
    plan.random_outages("repl:ab", 2, 5 * kMs, 60 * kMs, 3 * kMs)
        .random_outages("repl:ba", 1, 5 * kMs, 60 * kMs, 3 * kMs)
        .random_outages("wit:act", 1, 10 * kMs, 55 * kMs, 3 * kMs)
        .random_outages("wit:stb", 1, 10 * kMs, 55 * kMs, 3 * kMs)
        .random_crashes("act", 1, 20 * kMs, 50 * kMs, 4 * kMs);
    if (seed % 2 == 0) plan.random_crashes("witness", 1, 30 * kMs, 45 * kMs, 2 * kMs);
    injector.arm(plan);

    // Dense probe: sample the global invariant every 50 us across the
    // whole chaos window and well past the last heal.
    std::uint64_t double_active_samples = 0;
    std::uint64_t epoch_regressions = 0;
    std::uint64_t epoch_overruns = 0;  // box epoch ahead of the ledger
    std::uint64_t last_epoch_act = 0;
    std::uint64_t last_epoch_stb = 0;
    for (sim::SimNanos at = 0; at <= 90 * kMs; at += 50'000) {
      network.engine().schedule_at(at, [&] {
        if (act.ha_unfenced_active() && stb.ha_unfenced_active()) ++double_active_samples;
        if (act.ha_epoch() < last_epoch_act || stb.ha_epoch() < last_epoch_stb)
          ++epoch_regressions;
        if (act.ha_epoch() > witness.epoch() || stb.ha_epoch() > witness.epoch())
          ++epoch_overruns;
        last_epoch_act = act.ha_epoch();
        last_epoch_stb = stb.ha_epoch();
      });
    }

    network.run_until(100 * kMs);

    EXPECT_EQ(injector.stats().fired, injector.stats().armed) << "seed " << seed;
    EXPECT_EQ(double_active_samples, 0u) << "seed " << seed;
    EXPECT_EQ(epoch_regressions, 0u) << "seed " << seed;
    EXPECT_EQ(epoch_overruns, 0u) << "seed " << seed;
    // Everything healed: whoever ended up active, somebody is serving
    // (or the sole contender is mid-renewal — but never both unfenced).
    EXPECT_FALSE(act.restarting()) << "seed " << seed;
    EXPECT_FALSE(witness.crashed()) << "seed " << seed;
    EXPECT_LE(static_cast<int>(act.ha_unfenced_active()) +
                  static_cast<int>(stb.ha_unfenced_active()),
              1)
        << "seed " << seed;
  }
}

}  // namespace
