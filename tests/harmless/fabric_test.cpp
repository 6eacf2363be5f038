// Fabric integration: the full Fig.-1 data path — hosts, legacy switch
// with per-port VLANs, trunk, SS_1 translator, patches, SS_2, SDN
// controller — plus failure injection.
#include <gtest/gtest.h>

#include "controller/apps/learning.hpp"
#include "controller/controller.hpp"
#include "harmless/fabric.hpp"
#include "net/build.hpp"
#include "sim/network.hpp"
#include "util/strings.hpp"

namespace harmless::core {
namespace {

using namespace net;
using controller::Controller;
using controller::LearningSwitchApp;
using legacy::LegacySwitch;
using legacy::PortConfig;
using legacy::PortMode;
using legacy::SwitchConfig;
using sim::Host;
using sim::LinkSpec;
using sim::Network;

/// The HARMLESS VLAN layout for `n` access ports + trunk on port n+1.
SwitchConfig harmless_legacy_config(int access_ports) {
  SwitchConfig config;
  config.hostname = "legacy-1";
  std::set<VlanId> vlans;
  for (int port = 1; port <= access_ports; ++port) {
    config.ports[port] = PortConfig{PortMode::kAccess, static_cast<VlanId>(100 + port),
                                    {},   std::nullopt,
                                    true, ""};
    vlans.insert(static_cast<VlanId>(100 + port));
  }
  config.ports[access_ports + 1] =
      PortConfig{PortMode::kTrunk, 1, vlans, std::nullopt, true, "trunk"};
  return config;
}

struct Rig {
  static constexpr int kAccessPorts = 4;
  Network network;
  LegacySwitch* legacy_switch;
  std::vector<Host*> hosts;
  std::optional<Fabric> fabric;
  Controller controller;
  LearningSwitchApp* app;

  explicit Rig(const FabricSpec& spec = {}) {
    legacy_switch =
        &network.add_node<LegacySwitch>("legacy", harmless_legacy_config(kAccessPorts));
    for (int i = 0; i < kAccessPorts; ++i) {
      Host& host = network.add_host(util::format("h%d", i + 1),
                                    MacAddr::from_u64(0x020000000001ULL + i),
                                    Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(i + 1)));
      network.connect(host, 0, *legacy_switch, static_cast<std::size_t>(i),
                      LinkSpec::gbps(1));
      hosts.push_back(&host);
    }
    auto map = PortMap::make({1, 2, 3, 4}, kAccessPorts + 1);
    fabric.emplace(Fabric::build(network, *legacy_switch, *map, spec));
    app = &controller.add_app<LearningSwitchApp>();
    controller.connect(fabric->control_channel(), "SS_2");
    network.run();  // handshake + miss entry
  }

  Packet udp(int from, int to) {
    FlowKey key;
    key.eth_src = hosts[from]->mac();
    key.eth_dst = hosts[to]->mac();
    key.ip_src = hosts[from]->ip();
    key.ip_dst = hosts[to]->ip();
    key.dst_port = 9000;
    return make_udp(key, 200);
  }
};

TEST(Fabric, BuildsPaperTopology) {
  Rig rig;
  EXPECT_EQ(rig.fabric->ss1().of_port_count(), 5u);  // trunk + 4 patches
  EXPECT_EQ(rig.fabric->ss2().of_port_count(), 4u);
  EXPECT_EQ(rig.fabric->ss1().pipeline().table(0).size(), 9u);  // translator rules
  EXPECT_GE(rig.fabric->ss2().pipeline().table(0).size(), 1u);  // controller miss entry
  EXPECT_TRUE(rig.fabric->trunk_up());
}

TEST(Fabric, HostToHostThroughFullHairpin) {
  Rig rig;
  // h1 -> h2: legacy tags 101 -> trunk -> SS_1 pops -> SS_2 (learning
  // app floods) -> SS_1 pushes -> trunk -> legacy untags -> hosts.
  rig.hosts[0]->send(rig.udp(0, 1));
  rig.network.run();
  EXPECT_EQ(rig.hosts[1]->counters().rx_udp, 1u);
  // The flood copy physically reached h3/h4 through their VLANs (their
  // NICs filtered it) — transparent L2 semantics preserved.
  EXPECT_EQ(rig.hosts[2]->counters().rx_filtered, 1u);
  EXPECT_EQ(rig.hosts[3]->counters().rx_filtered, 1u);

  // Reverse direction now unicasts through an installed flow.
  rig.hosts[1]->send(rig.udp(1, 0));
  rig.network.run();
  EXPECT_EQ(rig.hosts[0]->counters().rx_udp, 1u);
  EXPECT_EQ(rig.hosts[2]->counters().rx_filtered, 1u);  // no extra copy

  // One more forward packet punts once (installs the h2 flow)...
  rig.hosts[0]->send(rig.udp(0, 1));
  rig.network.run();
  EXPECT_EQ(rig.hosts[1]->counters().rx_udp, 2u);

  // ...after which steady state needs no controller involvement.
  const auto punts = rig.controller.stats().packet_ins;
  rig.hosts[0]->send(rig.udp(0, 1));
  rig.hosts[1]->send(rig.udp(1, 0));
  rig.network.run();
  EXPECT_EQ(rig.controller.stats().packet_ins, punts);
  EXPECT_EQ(rig.hosts[1]->counters().rx_udp, 3u);
}

TEST(Fabric, MultiCoreFabricForwardsAndBillsSteering) {
  // The full hairpin with 4 worker cores on both soft switches: the
  // sharded datapath must stay transparent end to end, and the
  // steering bill (rss_hash_ns per packet, multi-core only) must show
  // up on both switches. Core counters must tile the node totals.
  FabricSpec spec;
  spec.ingress.cores.cores = 4;
  Rig rig(spec);
  for (int round = 0; round < 3; ++round) {
    rig.hosts[0]->send(rig.udp(0, 1));
    rig.hosts[1]->send(rig.udp(1, 0));
    rig.network.run();
  }
  EXPECT_EQ(rig.hosts[1]->counters().rx_udp, 3u);
  EXPECT_EQ(rig.hosts[0]->counters().rx_udp, 3u);

  for (softswitch::SoftSwitch* ss : {&rig.fabric->ss1(), &rig.fabric->ss2()}) {
    EXPECT_EQ(ss->core_count(), 4u) << ss->name();
    EXPECT_GT(ss->counters().rss_steered, 0u) << ss->name();
    sim::SimNanos busy = 0;
    std::uint64_t packets = 0;
    std::size_t queues = 0;
    for (std::size_t core = 0; core < ss->core_count(); ++core) {
      const auto stats = ss->core_stats(core);
      busy += stats.busy_ns;
      packets += stats.packets;
      queues += stats.rx_queues;
    }
    EXPECT_EQ(busy, ss->busy_ns()) << ss->name();
    EXPECT_EQ(queues, ss->rx_queue_count()) << ss->name();
    EXPECT_GT(packets, 0u) << ss->name();
  }
}

TEST(Fabric, FramesArriveUntaggedAtHosts) {
  Rig rig;
  bool saw_tag = false;
  for (Host* host : rig.hosts)
    host->set_on_receive([&](const Packet&, const ParsedPacket& parsed) {
      saw_tag |= parsed.has_vlan();
    });
  rig.hosts[0]->send(rig.udp(0, 1));
  rig.network.run();
  EXPECT_FALSE(saw_tag);  // full data-plane transparency
}

TEST(Fabric, SsTwoSeesLegacyPortNumbers) {
  Rig rig;
  rig.hosts[2]->send(rig.udp(2, 0));  // from legacy access port 3
  rig.network.run();
  // The learning app (pure OF, knows nothing about VLANs) learned h3
  // on SS_2 port 3 — the translator preserved port identity.
  EXPECT_EQ(rig.app->lookup(rig.fabric->ss2().datapath_id(), rig.hosts[2]->mac()), 3u);
}

TEST(Fabric, ArpAndPingWorkEndToEnd) {
  Rig rig;
  rig.hosts[0]->arp_request(rig.hosts[1]->ip());
  rig.network.run();
  EXPECT_EQ(rig.hosts[0]->counters().rx_arp_reply, 1u);

  FlowKey key;
  key.eth_src = rig.hosts[0]->mac();
  key.eth_dst = rig.hosts[1]->mac();
  key.ip_src = rig.hosts[0]->ip();
  key.ip_dst = rig.hosts[1]->ip();
  rig.hosts[0]->send(make_icmp_echo(key, /*request=*/true, 1, 1));
  rig.network.run();
  EXPECT_EQ(rig.hosts[0]->counters().rx_icmp_echo_reply, 1u);
}

TEST(Fabric, PacketsTraverseThreeSwitchHopsEachWay) {
  Rig rig;
  sim::LatencyRecorder recorder;
  rig.hosts[0]->set_recorder(&recorder);
  rig.hosts[1]->set_recorder(&recorder);
  rig.hosts[0]->send(rig.udp(0, 1));
  rig.network.run();
  ASSERT_GE(recorder.completed(), 1u);
  // legacy -> SS_1 -> SS_2 -> SS_1 -> legacy = 5 switch services
  // (legacy twice, SS_1 twice, SS_2 once).
  EXPECT_EQ(recorder.hops().max(), 5.0);
}

TEST(Fabric, TrunkFailureStopsTrafficAndRecovers) {
  Rig rig;
  rig.hosts[0]->send(rig.udp(0, 1));
  rig.network.run();
  ASSERT_EQ(rig.hosts[1]->counters().rx_udp, 1u);

  rig.fabric->set_trunk_up(false);
  EXPECT_FALSE(rig.fabric->trunk_up());
  rig.hosts[0]->send(rig.udp(0, 1));
  rig.network.run();
  EXPECT_EQ(rig.hosts[1]->counters().rx_udp, 1u);  // nothing got through

  rig.fabric->set_trunk_up(true);
  rig.hosts[0]->send(rig.udp(0, 1));
  rig.network.run();
  EXPECT_EQ(rig.hosts[1]->counters().rx_udp, 2u);
}

TEST(Fabric, ForeignVlanFromLegacyNeverLeaksToSs2) {
  // A host crafting its own tagged frame: the legacy access port drops
  // it (802.1Q), so SS_1 never even sees it; defence in depth.
  Rig rig;
  Packet crafted = rig.udp(0, 1);
  vlan_push(crafted.frame(), VlanTag{999, 0, false});
  const auto runs_before = rig.fabric->ss1().counters().pipeline_runs;
  rig.hosts[0]->send(std::move(crafted));
  rig.network.run();
  EXPECT_EQ(rig.fabric->ss1().counters().pipeline_runs, runs_before);
  EXPECT_EQ(rig.hosts[1]->counters().rx_total, 0u);
}

}  // namespace
}  // namespace harmless::core
