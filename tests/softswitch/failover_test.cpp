// Controller-loss handling on the software switch: liveness probing,
// fail-secure vs fail-standalone degraded modes, backoff reconnect,
// full-state resync — plus the failable ControlChannel's drop
// attribution and the legacy switch's link-down MAC flush.
//
// Every test drives the engine with run_until: an armed liveness probe
// rescheudles itself forever, so run() would never return.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "controller/apps/static_flows.hpp"
#include "controller/controller.hpp"
#include "legacy/legacy_switch.hpp"
#include "net/build.hpp"
#include "openflow/channel.hpp"
#include "sim/network.hpp"
#include "sim/witness.hpp"
#include "softswitch/replication.hpp"
#include "softswitch/soft_switch.hpp"
#include "util/strings.hpp"

namespace {

using namespace harmless;
using openflow::ControlChannel;
using softswitch::FailoverSpec;
using softswitch::SoftSwitch;

constexpr sim::SimNanos kMs = 1'000'000;

net::MacAddr host_mac(int index) {
  return net::MacAddr::from_u64(0x020000000001ULL + static_cast<std::uint64_t>(index));
}
net::Ipv4Addr host_ip(int index) {
  return net::Ipv4Addr(0x0a000001u + static_cast<std::uint32_t>(index));
}

openflow::FlowModMsg l2_rule(int host_index) {
  openflow::FlowModMsg mod;
  mod.table_id = 0;
  mod.priority = 10;
  mod.match.eth_dst(host_mac(host_index));
  mod.instructions =
      openflow::apply({openflow::output(static_cast<std::uint32_t>(host_index + 1))});
  return mod;
}

openflow::FlowModMsg miss_to_controller() {
  openflow::FlowModMsg mod;
  mod.table_id = 0;
  mod.priority = 0;
  mod.instructions = openflow::apply({openflow::to_controller()});
  return mod;
}

/// N hosts on one controller-managed soft switch; the controller's
/// StaticFlowApp programs one exact-match L2 rule per host plus a
/// table-miss punt, so on_reconnect re-installs the same state.
struct Rig {
  sim::Network network;
  SoftSwitch* sw = nullptr;
  std::vector<sim::Host*> hosts;
  std::unique_ptr<ControlChannel> channel;
  controller::Controller ctrl;
  controller::Session* session = nullptr;
  std::size_t rule_count = 0;

  explicit Rig(int host_count, const FailoverSpec& spec, bool install_l2 = true) {
    sw = &network.add_node<SoftSwitch>("sw", 0xA5, static_cast<std::size_t>(host_count),
                                       /*table_count=*/1);
    for (int i = 0; i < host_count; ++i) {
      sim::Host& host = network.add_host(util::format("h%d", i), host_mac(i), host_ip(i));
      network.connect(host, 0, *sw, static_cast<std::size_t>(i), sim::LinkSpec::gbps(10));
      hosts.push_back(&host);
    }
    channel = std::make_unique<ControlChannel>(network.engine());
    sw->attach_channel(*channel);
    sw->set_failover(spec);
    auto& app = ctrl.add_app<controller::StaticFlowApp>();
    if (install_l2) {
      for (int i = 0; i < host_count; ++i) app.flow(l2_rule(i));
      rule_count += static_cast<std::size_t>(host_count);
    }
    app.flow(miss_to_controller());
    ++rule_count;
    session = &ctrl.connect(*channel, "sw");
    network.run_until(2 * kMs);  // handshake + installs
  }

  void stream(int from, int to, std::size_t count, sim::SimNanos interval = 10'000) {
    hosts[static_cast<std::size_t>(from)]->send_udp_stream(
        hosts[static_cast<std::size_t>(to)]->mac(), hosts[static_cast<std::size_t>(to)]->ip(),
        count, 64, interval);
  }
};

FailoverSpec probing(FailoverSpec::Mode mode) {
  FailoverSpec spec;
  spec.mode = mode;
  spec.echo_interval_ns = 500'000;  // 500 us probes -> ~1.5 ms detection
  spec.echo_miss_threshold = 3;
  return spec;
}

TEST(Failover, HandshakeInstallsAndProbesStayHealthy) {
  Rig rig(2, probing(FailoverSpec::Mode::kFailSecure));
  EXPECT_TRUE(rig.sw->control_connected());
  EXPECT_EQ(rig.sw->pipeline().table(0).entries().size(), rig.rule_count);
  rig.network.run_until(20 * kMs);
  const auto& stats = rig.sw->failover_stats();
  EXPECT_GT(stats.echo_sent, 10u);
  // The probe sent right at the deadline may still be in flight.
  EXPECT_GE(stats.echo_replies + 1, stats.echo_sent);
  EXPECT_EQ(stats.echo_misses, 0u);
  EXPECT_EQ(stats.disconnects, 0u);
}

TEST(Failover, FailSecureKeepsFlowsAndDropsPacketIns) {
  Rig rig(3, probing(FailoverSpec::Mode::kFailSecure));
  rig.ctrl.fault_crash();
  rig.network.run_until(10 * kMs);
  EXPECT_FALSE(rig.sw->control_connected());
  EXPECT_EQ(rig.sw->failover_stats().disconnects, 1u);
  EXPECT_GE(rig.sw->failover_stats().echo_misses, 3u);

  // Installed flows keep forwarding.
  const std::uint64_t before = rig.hosts[1]->counters().rx_udp;
  rig.stream(0, 1, 10);
  rig.network.run_until(rig.network.now() + 5 * kMs);
  EXPECT_EQ(rig.hosts[1]->counters().rx_udp, before + 10);

  // Table-miss punts are suppressed, not queued.
  const std::uint64_t ctrl_packet_ins = rig.ctrl.stats().packet_ins;
  rig.hosts[0]->send_udp_stream(host_mac(77), host_ip(77), 5, 64, 10'000);
  rig.network.run_until(rig.network.now() + 5 * kMs);
  EXPECT_GE(rig.sw->failover_stats().packet_ins_dropped, 5u);
  EXPECT_EQ(rig.ctrl.stats().packet_ins, ctrl_packet_ins);

  // Heal: supervised restart -> reconnect handshake -> full resync.
  rig.ctrl.fault_restart();
  rig.network.run_until(rig.network.now() + 30 * kMs);
  const auto& stats = rig.sw->failover_stats();
  EXPECT_TRUE(rig.sw->control_connected());
  EXPECT_EQ(stats.reconnects, 1u);
  EXPECT_EQ(stats.resyncs, 1u);
  EXPECT_EQ(stats.flows_reinstalled, rig.rule_count);
  EXPECT_EQ(rig.session->resyncs(), 1u);
  EXPECT_GT(stats.degraded_ns, 0);

  // Punts reach the controller again.
  rig.hosts[0]->send_udp_stream(host_mac(77), host_ip(77), 3, 64, 10'000);
  rig.network.run_until(rig.network.now() + 5 * kMs);
  EXPECT_GT(rig.ctrl.stats().packet_ins, ctrl_packet_ins);
}

TEST(Failover, FailStandaloneBridgesWithMacLearning) {
  // No L2 rules: while connected, host traffic is punt-and-drop, so
  // any delivery below is the standalone datapath's doing.
  Rig rig(3, probing(FailoverSpec::Mode::kFailStandalone), /*install_l2=*/false);
  const std::uint64_t before = rig.hosts[1]->counters().rx_udp;
  rig.stream(0, 1, 5);
  rig.network.run_until(rig.network.now() + 5 * kMs);
  EXPECT_EQ(rig.hosts[1]->counters().rx_udp, before);  // punted, not delivered

  rig.ctrl.fault_crash();
  rig.network.run_until(rig.network.now() + 10 * kMs);
  ASSERT_FALSE(rig.sw->control_connected());

  // Unknown destination floods...
  rig.stream(0, 1, 5);
  rig.network.run_until(rig.network.now() + 5 * kMs);
  EXPECT_EQ(rig.hosts[1]->counters().rx_udp, before + 5);
  const auto& stats = rig.sw->failover_stats();
  EXPECT_GE(stats.standalone_packets, 5u);
  EXPECT_GE(stats.standalone_floods, 5u);
  EXPECT_GT(rig.sw->standalone_macs().size(), 0u);

  // ...and the reverse direction is forwarded, not flooded (h0 was
  // learned from its own frames).
  const std::uint64_t floods = stats.standalone_floods;
  const std::uint64_t h2_rx = rig.hosts[2]->counters().rx_total;
  rig.stream(1, 0, 5);
  rig.network.run_until(rig.network.now() + 5 * kMs);
  EXPECT_EQ(rig.sw->failover_stats().standalone_floods, floods);
  EXPECT_EQ(rig.hosts[2]->counters().rx_total, h2_rx);

  // Healing flushes the interim stations.
  rig.ctrl.fault_restart();
  rig.network.run_until(rig.network.now() + 30 * kMs);
  EXPECT_TRUE(rig.sw->control_connected());
  EXPECT_EQ(rig.sw->standalone_macs().size(), 0u);
}

TEST(Failover, ReconnectBackoffIsCappedExponential) {
  Rig rig(2, probing(FailoverSpec::Mode::kFailSecure));
  rig.ctrl.fault_crash();
  rig.network.run_until(rig.network.now() + 200 * kMs);
  const auto& stats = rig.sw->failover_stats();
  EXPECT_EQ(stats.disconnects, 1u);
  EXPECT_EQ(stats.reconnects, 0u);
  // ~197 ms of retrying: pure 1 ms pacing would mean ~200 attempts,
  // the 8 ms cap (plus up to 25% jitter) bounds it near 25.
  EXPECT_GE(stats.reconnect_attempts, 10u);
  EXPECT_LE(stats.reconnect_attempts, 60u);
  // Everything sent at a dead controller is attributed, not lost.
  EXPECT_GT(rig.channel->to_controller().dropped_no_handler, 0u);

  rig.ctrl.fault_restart();
  rig.network.run_until(rig.network.now() + 30 * kMs);
  EXPECT_EQ(rig.sw->failover_stats().reconnects, 1u);
  EXPECT_TRUE(rig.sw->control_connected());
}

TEST(Failover, SwitchCrashWipesStateAndResyncRestores) {
  Rig rig(2, probing(FailoverSpec::Mode::kFailSecure));
  ASSERT_EQ(rig.sw->pipeline().table(0).entries().size(), rig.rule_count);
  rig.sw->fault_crash();
  EXPECT_TRUE(rig.sw->restarting());
  EXPECT_TRUE(rig.sw->pipeline().table(0).entries().empty());

  // A rebooting box drops ingress on the floor.
  rig.stream(0, 1, 5);
  rig.network.run_until(rig.network.now() + 5 * kMs);
  EXPECT_GE(rig.sw->failover_stats().dropped_restarting, 5u);

  rig.sw->fault_restart();
  rig.network.run_until(rig.network.now() + 30 * kMs);
  const auto& stats = rig.sw->failover_stats();
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.restarts, 1u);
  EXPECT_TRUE(rig.sw->control_connected());
  EXPECT_GE(stats.resyncs, 1u);
  EXPECT_EQ(rig.sw->pipeline().table(0).entries().size(), rig.rule_count);
}

TEST(ControlChannelFailable, AttributesEveryLoss) {
  sim::Engine engine;
  ControlChannel channel(engine);

  // No handler registered: delivery is counted, not silently dropped.
  channel.send_to_switch(openflow::HelloMsg{});
  engine.run();
  EXPECT_EQ(channel.to_switch().sent, 1u);
  EXPECT_EQ(channel.to_switch().delivered, 0u);
  EXPECT_EQ(channel.to_switch().dropped_no_handler, 1u);

  std::uint64_t received = 0;
  channel.set_switch_handler([&](openflow::Message&&) { ++received; });

  // Down at send time.
  channel.set_up(false);
  channel.send_to_switch(openflow::HelloMsg{});
  engine.run();
  EXPECT_EQ(channel.to_switch().dropped_down, 1u);

  // Down at delivery time (in flight when the partition hit).
  channel.set_up(true);
  channel.send_to_switch(openflow::HelloMsg{});
  channel.set_up(false);
  engine.run();
  EXPECT_EQ(channel.to_switch().dropped_down, 2u);
  channel.set_up(true);

  // Random loss draws only when impaired.
  channel.set_impairment({}, openflow::ChannelImpairment{1.0, 0});
  for (int i = 0; i < 5; ++i) channel.send_to_switch(openflow::HelloMsg{});
  engine.run();
  EXPECT_EQ(channel.to_switch().dropped_loss, 5u);
  channel.set_impairment({}, {});

  channel.send_to_switch(openflow::HelloMsg{});
  engine.run();
  EXPECT_EQ(received, 1u);
  const auto& stats = channel.to_switch();
  EXPECT_EQ(stats.sent,
            stats.delivered + stats.dropped_down + stats.dropped_loss + stats.dropped_no_handler);
}

TEST(ControlChannelFailable, MinGapSerializesDeliveries) {
  sim::Engine engine;
  ControlChannel channel(engine);
  channel.set_min_gap(1'000);
  std::vector<sim::SimNanos> deliveries;
  channel.set_switch_handler([&](openflow::Message&&) { deliveries.push_back(engine.now()); });
  for (int i = 0; i < 3; ++i) channel.send_to_switch(openflow::HelloMsg{});
  engine.run();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0], channel.latency());
  EXPECT_EQ(deliveries[1], channel.latency() + 1'000);
  EXPECT_EQ(deliveries[2], channel.latency() + 2'000);
}

// ---- stateful HA: checkpoint/restore and active-standby (PR 9) ----

/// Stateful-firewall rule set: only tracked connections pass. A
/// mid-stream segment with no conntrack entry classifies INVALID and
/// falls through to the priority-0 drop — which is exactly what makes
/// established-flow survival observable: an amnesiac restart drops the
/// flow's ACKs, a restored one forwards them.
std::vector<openflow::FlowModMsg> firewall_rules() {
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

/// Two hosts through one ct-enabled, controller-managed firewall
/// switch (rules re-installed by resync after any crash).
struct CtRig {
  sim::Network network;
  SoftSwitch* sw = nullptr;
  sim::Host* a = nullptr;
  sim::Host* b = nullptr;
  std::unique_ptr<ControlChannel> channel;
  controller::Controller ctrl;
  controller::Session* session = nullptr;
  net::FlowKey flow;          // a -> b
  net::FlowKey reply_flow;    // b -> a

  explicit CtRig(const FailoverSpec& spec) {
    sw = &network.add_node<SoftSwitch>("fw", 0xA5, 2, /*table_count=*/1);
    sw->enable_conntrack(openflow::CtConfig{});
    a = &network.add_host("a", host_mac(0), host_ip(0));
    b = &network.add_host("b", host_mac(1), host_ip(1));
    network.connect(*a, 0, *sw, 0, sim::LinkSpec::gbps(10));
    network.connect(*b, 0, *sw, 1, sim::LinkSpec::gbps(10));
    channel = std::make_unique<ControlChannel>(network.engine());
    sw->attach_channel(*channel);
    sw->set_failover(spec);
    auto& app = ctrl.add_app<controller::StaticFlowApp>();
    for (const openflow::FlowModMsg& rule : firewall_rules()) app.flow(rule);
    session = &ctrl.connect(*channel, "fw");
    flow = net::FlowKey{a->mac(), b->mac(), a->ip(), b->ip(), 40000, 80};
    reply_flow = net::FlowKey{b->mac(), a->mac(), b->ip(), a->ip(), 80, 40000};
    network.run_until(2 * kMs);
  }

  /// Three-way-handshake the flow through the datapath; both peers see
  /// each other's segment and the tracker holds one ESTABLISHED entry.
  void establish() {
    a->send(net::make_tcp(flow, net::kTcpSyn));
    network.run_until(network.now() + kMs);
    b->send(net::make_tcp(reply_flow, net::kTcpSyn | net::kTcpAck));
    network.run_until(network.now() + kMs);
  }
};

FailoverSpec checkpointing_spec(sim::SimNanos interval) {
  FailoverSpec spec = probing(FailoverSpec::Mode::kFailSecure);
  spec.checkpoint_interval_ns = interval;
  return spec;
}

TEST(StatefulHa, CheckpointRestoreSurvivesSwitchCrash) {
  CtRig rig(checkpointing_spec(kMs));
  rig.establish();
  ASSERT_EQ(rig.b->counters().rx_tcp, 1u);  // SYN passed the ct_new rule
  ASSERT_EQ(rig.a->counters().rx_tcp, 1u);  // SYN|ACK passed ct_established
  ASSERT_EQ(rig.sw->pipeline().conntrack(0).size(), 1u);

  // The checkpoint timer (armed by the commits) fires within one
  // interval and images the established entry.
  rig.network.run_until(rig.network.now() + 3 * kMs);
  EXPECT_GE(rig.sw->failover_stats().checkpoints, 1u);

  rig.sw->fault_crash();
  EXPECT_EQ(rig.sw->pipeline().conntrack(0).size(), 0u);  // volatile state gone
  rig.sw->fault_restart();
  // The table is rebuilt from the checkpoint before resync completes.
  EXPECT_EQ(rig.sw->failover_stats().ct_restored, 1u);
  EXPECT_EQ(rig.sw->pipeline().conntrack(0).size(), 1u);
  rig.network.run_until(rig.network.now() + 30 * kMs);
  ASSERT_TRUE(rig.sw->control_connected());

  // Switch side: the restored state made this a warm resync (no
  // flow-cache warm-up governor). Controller side: its audit still saw
  // an empty flow table (the crash wiped rules, not connections) so it
  // counts the same resync as cold — the two views are independent.
  EXPECT_EQ(rig.sw->failover_stats().warm_resyncs, 1u);
  EXPECT_GE(rig.session->cold_resyncs(), 1u);

  // Mid-stream ACKs classify ESTABLISHED off the restored entry and
  // keep flowing: the connection survived the reboot.
  const std::uint64_t before = rig.b->counters().rx_tcp;
  for (int i = 0; i < 5; ++i) {
    rig.a->send(net::make_tcp(rig.flow, net::kTcpAck));
    rig.network.run_until(rig.network.now() + 100'000);
  }
  EXPECT_EQ(rig.b->counters().rx_tcp, before + 5);
}

TEST(StatefulHa, AmnesiacRestartDropsEstablishedFlow) {
  // Checkpointing off: the same crash kills the connection for good.
  CtRig rig(probing(FailoverSpec::Mode::kFailSecure));
  rig.establish();
  ASSERT_EQ(rig.b->counters().rx_tcp, 1u);

  rig.sw->fault_crash();
  rig.sw->fault_restart();
  EXPECT_EQ(rig.sw->failover_stats().ct_restored, 0u);
  EXPECT_EQ(rig.sw->failover_stats().warm_resyncs, 0u);
  rig.network.run_until(rig.network.now() + 30 * kMs);
  ASSERT_TRUE(rig.sw->control_connected());

  // Mid-stream ACKs are INVALID (no entry): only the drop rule
  // matches. Zero established goodput through the restart.
  const std::uint64_t before = rig.b->counters().rx_tcp;
  for (int i = 0; i < 5; ++i) {
    rig.a->send(net::make_tcp(rig.flow, net::kTcpAck));
    rig.network.run_until(rig.network.now() + 100'000);
  }
  EXPECT_EQ(rig.b->counters().rx_tcp, before);

  // But the firewall itself still works: a fresh handshake passes.
  rig.establish();
  EXPECT_GT(rig.b->counters().rx_tcp, before);
}

TEST(StatefulHa, ControllerCrashResyncAuditsWarm) {
  // A controller crash leaves the datapath's flow tables intact, so
  // the resync audit finds them and counts the resync warm.
  CtRig rig(probing(FailoverSpec::Mode::kFailSecure));
  rig.ctrl.fault_crash();
  rig.network.run_until(rig.network.now() + 10 * kMs);
  ASSERT_FALSE(rig.sw->control_connected());
  rig.ctrl.fault_restart();
  rig.network.run_until(rig.network.now() + 30 * kMs);
  ASSERT_TRUE(rig.sw->control_connected());
  EXPECT_EQ(rig.session->warm_resyncs(), 1u);
  EXPECT_EQ(rig.session->cold_resyncs(), 0u);
  EXPECT_EQ(rig.ctrl.stats().warm_resyncs, 1u);
}

TEST(StatefulHa, StandbyTakeoverPreservesEstablishedState) {
  sim::Network network;
  auto& act = network.add_node<SoftSwitch>("act", 0xA1, 2, /*table_count=*/1);
  auto& stb = network.add_node<SoftSwitch>("stb", 0xA2, 2, /*table_count=*/1);
  act.enable_conntrack(openflow::CtConfig{});
  stb.enable_conntrack(openflow::CtConfig{});
  for (const openflow::FlowModMsg& rule : firewall_rules()) {
    act.install(rule).check();
    stb.install(rule).check();
  }
  sim::Host& a = network.add_host("a", host_mac(0), host_ip(0));
  sim::Host& b = network.add_host("b", host_mac(1), host_ip(1));
  network.connect(a, 0, act, 0, sim::LinkSpec::gbps(10));
  network.connect(b, 0, act, 1, sim::LinkSpec::gbps(10));

  softswitch::ReplicationChannel repl(network.engine());
  act.enable_ha_active(repl);
  stb.enable_ha_standby(repl);
  bool resteered = false;
  stb.set_ha_takeover_handler([&] { resteered = true; });

  // Establish through the active; the deltas ride the sync stream onto
  // the standby's shards.
  const net::FlowKey flow{a.mac(), b.mac(), a.ip(), b.ip(), 40000, 80};
  const net::FlowKey reply{b.mac(), a.mac(), b.ip(), a.ip(), 80, 40000};
  a.send(net::make_tcp(flow, net::kTcpSyn));
  network.run_until(kMs);
  b.send(net::make_tcp(reply, net::kTcpSyn | net::kTcpAck));
  network.run_until(2 * kMs);
  EXPECT_GE(repl.stats().deltas_delivered, 2u);  // commit + established
  ASSERT_EQ(stb.pipeline().conntrack(0).size(), 1u);
  EXPECT_FALSE(stb.ha_promoted());

  // Crash the active: heartbeats fall silent, the standby's monitor
  // trips after the miss threshold and it promotes itself.
  act.fault_crash();
  const sim::SimNanos crashed_at = network.now();
  network.run_until(crashed_at + 10 * kMs);
  EXPECT_TRUE(stb.ha_promoted());
  EXPECT_EQ(stb.failover_stats().takeovers, 1u);
  EXPECT_TRUE(resteered);

  // The replicated entry survived takeover demoted-but-ESTABLISHED:
  // the flow keeps its fast path, but a stale replica idles out on the
  // transient budget unless real traffic re-confirms it.
  const auto entries = stb.pipeline().conntrack(0).snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_FALSE(entries[0].confirmed);
  EXPECT_TRUE(entries[0].seen_reply);
  const openflow::CtTuple orig{host_ip(0).value(), host_ip(1).value(), 40000, 80, 6};
  EXPECT_EQ(stb.pipeline().conntrack(0).classify(orig, net::kTcpAck, network.now()),
            openflow::kCtTracked | openflow::kCtEstablished);

  // Takeover is idempotent and one-way.
  stb.ha_takeover();
  EXPECT_EQ(stb.failover_stats().takeovers, 1u);
}

TEST(ReplicationChannelFailable, AttributesEveryLoss) {
  sim::Engine engine;
  softswitch::ReplicationSpec spec;
  spec.batch_interval_ns = 0;  // send-now: one batch per publish
  softswitch::ReplicationChannel repl(engine, spec);
  const openflow::CtDelta delta{};

  // No handler: the batch is counted delivered, the deltas are not —
  // nothing vanishes silently.
  repl.publish(0, delta);
  engine.run();
  EXPECT_EQ(repl.stats().batches_sent, 1u);
  EXPECT_EQ(repl.stats().batches_delivered, 1u);
  EXPECT_EQ(repl.stats().deltas_delivered, 0u);

  std::size_t applied = 0;
  repl.set_delta_handler([&](const softswitch::ReplicationRecord&) { ++applied; });

  // Down at send time.
  repl.set_up(false);
  repl.publish(0, delta);
  engine.run();
  EXPECT_EQ(repl.stats().batches_dropped_down, 1u);

  // Down at delivery time (in flight when the partition hit).
  repl.set_up(true);
  repl.publish(0, delta);
  repl.set_up(false);
  engine.run();
  EXPECT_EQ(repl.stats().batches_dropped_down, 2u);
  repl.set_up(true);

  // Impairment loss draws only when configured.
  repl.set_loss(1.0);
  for (int i = 0; i < 5; ++i) repl.publish(0, delta);
  engine.run();
  EXPECT_EQ(repl.stats().batches_dropped_loss, 5u);
  repl.set_loss(0.0);

  repl.publish(0, delta);
  engine.run();
  EXPECT_EQ(applied, 1u);
  const auto& stats = repl.stats();
  EXPECT_EQ(stats.batches_sent, stats.batches_delivered + stats.batches_dropped_down +
                                    stats.batches_dropped_loss);

  // Heartbeats share the pipe and its fate — but losses land in their
  // own buckets, so a heartbeat-starved standby (liveness signal) is
  // distinguishable from a delta-starved one (state stream).
  repl.publish_heartbeat();
  engine.run();
  EXPECT_EQ(stats.heartbeats_sent, 1u);
  EXPECT_EQ(stats.heartbeats_delivered, 1u);

  repl.set_up(false);
  repl.publish_heartbeat();  // down at send time
  engine.run();
  EXPECT_EQ(stats.heartbeats_dropped_down, 1u);
  repl.set_up(true);
  repl.publish_heartbeat();  // in flight when the partition hits
  repl.set_up(false);
  engine.run();
  EXPECT_EQ(stats.heartbeats_dropped_down, 2u);
  repl.set_up(true);

  repl.set_loss(1.0);
  repl.publish_heartbeat();
  engine.run();
  EXPECT_EQ(stats.heartbeats_dropped_loss, 1u);
  repl.set_loss(0.0);

  // Heartbeat losses never leaked into the batch buckets, and both
  // streams conserve independently.
  EXPECT_EQ(stats.batches_sent, stats.batches_delivered + stats.batches_dropped_down +
                                    stats.batches_dropped_loss);
  EXPECT_EQ(stats.heartbeats_sent, stats.heartbeats_delivered + stats.heartbeats_dropped_down +
                                       stats.heartbeats_dropped_loss);
}

TEST(ReplicationChannelFailable, BatchesCoalesceWithinInterval) {
  sim::Engine engine;
  softswitch::ReplicationSpec spec;
  spec.batch_interval_ns = 100'000;
  spec.latency_ns = 10'000;
  softswitch::ReplicationChannel repl(engine, spec);
  std::vector<sim::SimNanos> arrivals;
  repl.set_delta_handler(
      [&](const softswitch::ReplicationRecord&) { arrivals.push_back(engine.now()); });
  const openflow::CtDelta delta{};
  for (int i = 0; i < 4; ++i) repl.publish(0, delta);
  engine.run();
  // One coalesced batch: all four deltas arrive together at
  // batch_interval + latency.
  EXPECT_EQ(repl.stats().batches_sent, 1u);
  ASSERT_EQ(arrivals.size(), 4u);
  for (const sim::SimNanos at : arrivals) EXPECT_EQ(at, 110'000);
}

// ---- split-brain-safe HA: witness leases, fencing, failback (PR 10) ----

/// SNAT gateway rule set (the conntrack_datapath idiom): outbound TCP
/// is source-translated and committed, reverse traffic follows the
/// stored mapping, everything else drops. NAT allocations are what
/// make split-brain damage concrete — two unfenced actives hand the
/// same external port to different connections.
std::vector<openflow::FlowModMsg> snat_rules(net::MacAddr a_mac, net::MacAddr b_mac) {
  std::vector<openflow::FlowModMsg> rules;
  openflow::FlowModMsg out;
  out.table_id = 0;
  out.priority = 100;
  out.match.in_port(1).eth_type(0x0800).ip_proto(6);
  out.instructions = openflow::apply({openflow::ct_snat(net::Ipv4Addr(192, 0, 2, 1), 50000, 50100),
                                      openflow::set_eth_dst(b_mac), openflow::output(2)});
  rules.push_back(out);
  openflow::FlowModMsg back;
  back.table_id = 0;
  back.priority = 100;
  back.match.in_port(2).eth_type(0x0800).ip_proto(6).ct_tracked();
  back.instructions =
      openflow::apply({openflow::ct_commit(), openflow::set_eth_dst(a_mac), openflow::output(1)});
  rules.push_back(back);
  openflow::FlowModMsg drop;
  drop.table_id = 0;
  drop.priority = 0;
  rules.push_back(drop);
  return rules;
}

TEST(WitnessFencing, StandbyPromotionRequiresLeaseQuorum) {
  sim::Network network;
  auto& act = network.add_node<SoftSwitch>("act", 0xA1, 2, /*table_count=*/1);
  auto& stb = network.add_node<SoftSwitch>("stb", 0xA2, 2, /*table_count=*/1);
  act.enable_conntrack(openflow::CtConfig{});
  stb.enable_conntrack(openflow::CtConfig{});
  softswitch::ReplicationChannel repl(network.engine());
  sim::Witness witness;
  sim::WitnessLink wl_act(network.engine(), witness, 0xA1);
  sim::WitnessLink wl_stb(network.engine(), witness, 0xA2);
  act.set_ha_witness(wl_act);
  stb.set_ha_witness(wl_stb);
  // Witness-attached boxes start fenced: fail closed until a grant.
  EXPECT_TRUE(act.ha_fenced());
  EXPECT_TRUE(stb.ha_fenced());

  act.enable_ha_active(repl);
  stb.enable_ha_standby(repl);
  network.run_until(5 * kMs);
  EXPECT_TRUE(act.ha_unfenced_active());  // first grant landed, epoch 1
  EXPECT_EQ(act.ha_epoch(), 1u);

  // Partition ONLY the replication channel. The standby hears silence —
  // but the witness still hears the active's renewals, so heartbeat
  // evidence alone is not a quorum: every promotion request is denied
  // and nobody double-activates.
  repl.set_up(false);
  network.run_until(network.now() + 20 * kMs);
  EXPECT_FALSE(stb.ha_promoted());
  EXPECT_EQ(stb.failover_stats().takeovers, 0u);
  EXPECT_GE(stb.failover_stats().ha_promotions_denied, 1u);
  EXPECT_GE(witness.stats().denials, 1u);
  EXPECT_TRUE(act.ha_unfenced_active());
  EXPECT_FALSE(stb.ha_unfenced_active());
  EXPECT_EQ(witness.holder(), 0xA1u);
  EXPECT_EQ(witness.epoch(), 1u);  // no holder change, no bump

  // Heal: heartbeats resume, the standby settles back down.
  repl.set_up(true);
  network.run_until(network.now() + 10 * kMs);
  EXPECT_FALSE(stb.ha_promoted());
  EXPECT_TRUE(act.ha_unfenced_active());
}

TEST(WitnessFencing, ActiveSelfFencesWhenWitnessUnreachable) {
  sim::Network network;
  auto& sw = network.add_node<SoftSwitch>("act", 0xA1, 2, /*table_count=*/1);
  sw.enable_conntrack(openflow::CtConfig{});
  for (const openflow::FlowModMsg& rule : firewall_rules()) sw.install(rule).check();
  sim::Host& a = network.add_host("a", host_mac(0), host_ip(0));
  sim::Host& b = network.add_host("b", host_mac(1), host_ip(1));
  network.connect(a, 0, sw, 0, sim::LinkSpec::gbps(10));
  network.connect(b, 0, sw, 1, sim::LinkSpec::gbps(10));
  softswitch::ReplicationChannel repl(network.engine());
  sim::Witness witness;
  sim::WitnessLink link(network.engine(), witness, 0xA1);
  sw.set_ha_witness(link);
  sw.enable_ha_active(repl);

  // Establish one connection while the lease is healthy.
  const net::FlowKey flow{a.mac(), b.mac(), a.ip(), b.ip(), 40000, 80};
  const net::FlowKey reply{b.mac(), a.mac(), b.ip(), a.ip(), 80, 40000};
  network.run_until(kMs);
  ASSERT_FALSE(sw.ha_fenced());
  a.send(net::make_tcp(flow, net::kTcpSyn));
  network.run_until(network.now() + kMs);
  b.send(net::make_tcp(reply, net::kTcpSyn | net::kTcpAck));
  network.run_until(network.now() + kMs);
  ASSERT_EQ(sw.pipeline().conntrack(0).size(), 1u);

  // Cut the witness link: renewals die and the box fences itself at
  // its local lease expiry — before the witness could grant elsewhere.
  link.set_up(false);
  network.run_until(network.now() + 3 * kMs);
  EXPECT_TRUE(sw.ha_fenced());
  EXPECT_GE(sw.failover_stats().ha_fences, 1u);
  EXPECT_FALSE(sw.ha_unfenced_active());

  // Fenced != dead: the established connection keeps its fast path...
  const std::uint64_t before_est = b.counters().rx_tcp;
  a.send(net::make_tcp(flow, net::kTcpAck));
  network.run_until(network.now() + kMs);
  EXPECT_EQ(b.counters().rx_tcp, before_est + 1);

  // ...but no new state is minted: a fresh SYN's commit is refused and
  // the connection table does not grow.
  net::FlowKey fresh = flow;
  fresh.src_port = 41000;
  a.send(net::make_tcp(fresh, net::kTcpSyn));
  network.run_until(network.now() + kMs);
  EXPECT_EQ(sw.pipeline().conntrack(0).size(), 1u);
  EXPECT_GE(sw.pipeline().conntrack(0).stats().fenced_rejects, 1u);

  // Heal: the next renewal (same holder, expiry notwithstanding)
  // re-arms the lease and lifts the fence; commits work again.
  link.set_up(true);
  network.run_until(network.now() + 2 * kMs);
  EXPECT_FALSE(sw.ha_fenced());
  EXPECT_GE(sw.failover_stats().ha_unfences, 1u);
  a.send(net::make_tcp(fresh, net::kTcpSyn));
  network.run_until(network.now() + kMs);
  EXPECT_EQ(sw.pipeline().conntrack(0).size(), 2u);
}

TEST(WitnessFailback, ExActiveRejoinsWarmWithNatBindings) {
  sim::Network network;
  auto& act = network.add_node<SoftSwitch>("act", 0xA1, 2, /*table_count=*/1);
  auto& stb = network.add_node<SoftSwitch>("stb", 0xA2, 2, /*table_count=*/1);
  act.enable_conntrack(openflow::CtConfig{});
  stb.enable_conntrack(openflow::CtConfig{});
  sim::Host& a = network.add_host("a", host_mac(0), host_ip(0));
  sim::Host& b = network.add_host("b", host_mac(1), host_ip(1));
  network.connect(a, 0, act, 0, sim::LinkSpec::gbps(10));
  network.connect(b, 0, act, 1, sim::LinkSpec::gbps(10));
  for (const openflow::FlowModMsg& rule : snat_rules(a.mac(), b.mac())) {
    act.install(rule).check();
    stb.install(rule).check();
  }
  softswitch::ReplicationChannel ab(network.engine());  // act -> stb
  softswitch::ReplicationChannel ba(network.engine());  // stb -> act
  sim::Witness witness;
  sim::WitnessLink wl_act(network.engine(), witness, 0xA1);
  sim::WitnessLink wl_stb(network.engine(), witness, 0xA2);
  act.set_ha_witness(wl_act);
  stb.set_ha_witness(wl_stb);
  act.enable_ha_active(ab, &ba);
  stb.enable_ha_standby(ab, &ba);

  // Two SNATed connections through the active; their deltas — NAT
  // allocations included — ride onto the standby.
  network.run_until(kMs);
  for (int i = 0; i < 2; ++i) {
    const net::FlowKey flow{a.mac(), b.mac(), a.ip(), b.ip(),
                            static_cast<std::uint16_t>(40000 + i), 80};
    a.send(net::make_tcp(flow, net::kTcpSyn));
    network.run_until(network.now() + kMs);
  }
  ASSERT_EQ(act.pipeline().conntrack(0).size(), 2u);
  ASSERT_EQ(stb.pipeline().conntrack(0).size(), 2u);
  std::map<std::uint16_t, std::uint16_t> bindings;  // orig src port -> SNAT port
  for (const openflow::ConnEntry& entry : act.pipeline().conntrack(0).snapshot()) {
    ASSERT_EQ(entry.nat.kind, openflow::CtAction::Nat::kSource);
    bindings[entry.orig.src_port] = entry.nat.port;
  }

  // Crash the active: its lease lapses, the standby wins the next
  // grant under a bumped epoch and takes over.
  act.fault_crash();
  network.run_until(network.now() + 10 * kMs);
  EXPECT_TRUE(stb.ha_promoted());
  EXPECT_TRUE(stb.ha_unfenced_active());
  EXPECT_EQ(stb.ha_epoch(), 2u);

  // Restart the ex-active amnesiac (no checkpointing). The new
  // active's higher epoch demotes it into a fenced standby, and the
  // failback stream rebuilds its tables warm — a role swap, not a
  // wipe-and-pray.
  act.fault_restart();
  ASSERT_EQ(act.pipeline().conntrack(0).size(), 0u);
  network.run_until(network.now() + 10 * kMs);
  EXPECT_EQ(act.ha_role(), SoftSwitch::HaRole::kStandby);
  EXPECT_GE(act.failover_stats().ha_demotions, 1u);
  EXPECT_FALSE(act.ha_unfenced_active());
  EXPECT_TRUE(stb.ha_unfenced_active());
  EXPECT_EQ(act.failover_stats().ha_failbacks, 1u);
  EXPECT_GE(act.failover_stats().ha_failback_entries, 2u);
  EXPECT_EQ(act.ha_epoch(), 2u);

  // Warm: both connections are back with their NAT bindings intact.
  const auto entries = act.pipeline().conntrack(0).snapshot();
  ASSERT_EQ(entries.size(), 2u);
  for (const openflow::ConnEntry& entry : entries) {
    ASSERT_TRUE(bindings.count(entry.orig.src_port));
    EXPECT_EQ(entry.nat.port, bindings[entry.orig.src_port]);
    EXPECT_TRUE(entry.confirmed);
  }

  // At no point do we end with two unfenced actives.
  EXPECT_LE(static_cast<int>(act.ha_unfenced_active()) +
                static_cast<int>(stb.ha_unfenced_active()),
            1);
}

TEST(LegacyLinkDown, FlushesMacsLearnedOnPort) {
  sim::Network network;
  legacy::SwitchConfig config;
  config.hostname = "flush-test";
  for (int port = 1; port <= 3; ++port) config.ports[port] = legacy::PortConfig{};
  auto& device = network.add_node<legacy::LegacySwitch>("legacy", config);
  std::vector<sim::Host*> hosts;
  for (int i = 0; i < 3; ++i) {
    sim::Host& host = network.add_host(util::format("h%d", i), host_mac(i), host_ip(i));
    network.connect(host, 0, device, static_cast<std::size_t>(i), sim::LinkSpec::gbps(1));
    hosts.push_back(&host);
  }
  for (int i = 0; i < 3; ++i)
    hosts[static_cast<std::size_t>(i)]->send_udp_stream(host_mac((i + 1) % 3),
                                                        host_ip((i + 1) % 3), 1, 64, 0);
  network.run();
  ASSERT_EQ(device.mac_table().size(), 3u);

  // Cut h0's cable: both directions of the duplex pair go down; the
  // switch flushes the FDB entry learned on that port exactly once.
  for (sim::Channel* channel : network.find_channels("h0")) channel->set_up(false);
  EXPECT_EQ(device.counters().link_down_flushes, 1u);
  EXPECT_EQ(device.mac_table().size(), 2u);

  // Frames toward the dead link are attributed to the downed link, not
  // to queue overflow.
  hosts[1]->send_udp_stream(host_mac(0), host_ip(0), 4, 64, 10'000);
  network.run();
  std::uint64_t down_drops = 0;
  std::uint64_t overflow_drops = 0;
  for (sim::Channel* channel : network.find_channels("h0")) {
    down_drops += channel->drops_down();
    overflow_drops += channel->drops_overflow();
  }
  EXPECT_GE(down_drops, 4u);
  EXPECT_EQ(overflow_drops, 0u);
}

}  // namespace
