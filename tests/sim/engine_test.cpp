// Simulator core tests: event ordering, channel timing math, the
// single-server queue of ServicedNode.
#include <gtest/gtest.h>

#include <functional>

#include "net/build.hpp"
#include "sim/event.hpp"
#include "sim/link.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "util/status.hpp"

namespace harmless::sim {
namespace {

using namespace net;

Packet sized_packet(std::size_t bytes) {
  FlowKey key;
  key.eth_src = MacAddr::from_u64(1);
  key.eth_dst = MacAddr::from_u64(2);
  key.ip_src = Ipv4Addr(10, 0, 0, 1);
  key.ip_dst = Ipv4Addr(10, 0, 0, 2);
  return make_udp(key, bytes);
}

TEST(Engine, EventsRunInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(30, [&] { order.push_back(3); });
  engine.schedule_at(10, [&] { order.push_back(1); });
  engine.schedule_at(20, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 30);
}

TEST(Engine, TiesBreakFifo) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) engine.schedule_at(5, [&order, i] { order.push_back(i); });
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, PastSchedulesClampToNow) {
  Engine engine;
  engine.schedule_at(100, [&] {
    engine.schedule_at(50, [&] {
      // Runs "now" (at t=100), never in the past.
      EXPECT_EQ(engine.now(), 100);
    });
  });
  engine.run();
}

TEST(Engine, RunUntilLeavesLaterEvents) {
  Engine engine;
  int ran = 0;
  engine.schedule_at(10, [&] { ++ran; });
  engine.schedule_at(1000, [&] { ++ran; });
  engine.run_until(500);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(engine.now(), 500);
  EXPECT_EQ(engine.pending(), 1u);
  engine.run();
  EXPECT_EQ(ran, 2);
}

TEST(Engine, NestedSchedulingFromEvents) {
  Engine engine;
  int depth_reached = 0;
  std::function<void(int)> recurse = [&](int depth) {
    depth_reached = depth;
    if (depth < 5) engine.schedule_after(10, [&, depth] { recurse(depth + 1); });
  };
  engine.schedule_at(0, [&] { recurse(1); });
  engine.run();
  EXPECT_EQ(depth_reached, 5);
  EXPECT_EQ(engine.now(), 40);
}

TEST(Rate, SerializationMath) {
  // 1 Gb/s = 1 bit/ns: a 1500-byte frame takes 12000 ns.
  EXPECT_EQ(Rate::gbps(1).serialization_ns(1500), 12000);
  EXPECT_EQ(Rate::gbps(10).serialization_ns(1500), 1200);
  // 64 bytes at 10G: 51.2 ns -> ceil 52.
  EXPECT_EQ(Rate::gbps(10).serialization_ns(64), 52);
  EXPECT_EQ(Rate::mbps(100).serialization_ns(125), 10000);
}

TEST(Channel, DeliversAfterSerializationPlusPropagation) {
  Engine engine;
  Channel channel(engine, LinkSpec{Rate::gbps(1), 500, 16}, "t");
  SimNanos delivered_at = -1;
  channel.set_sink([&](net::Packet&&) { delivered_at = engine.now(); });
  channel.transmit(sized_packet(1000));
  engine.run();
  EXPECT_EQ(delivered_at, 8000 + 500);  // 1000B at 1G + 500ns prop
  EXPECT_EQ(channel.delivered().packets, 1u);
  EXPECT_EQ(channel.busy_ns(), 8000);
}

TEST(Channel, BackToBackPacketsSerialize) {
  Engine engine;
  Channel channel(engine, LinkSpec{Rate::gbps(1), 0, 16}, "t");
  std::vector<SimNanos> arrivals;
  channel.set_sink([&](net::Packet&&) { arrivals.push_back(engine.now()); });
  for (int i = 0; i < 3; ++i) channel.transmit(sized_packet(125));  // 1000ns each
  engine.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], 1000);
  EXPECT_EQ(arrivals[1], 2000);  // waits for the transmitter
  EXPECT_EQ(arrivals[2], 3000);
}

TEST(Channel, DropTailWhenQueueFull) {
  Engine engine;
  Channel channel(engine, LinkSpec{Rate::gbps(1), 0, 2}, "t");
  std::size_t delivered = 0;
  channel.set_sink([&](net::Packet&&) { ++delivered; });
  for (int i = 0; i < 10; ++i) channel.transmit(sized_packet(1500));
  engine.run();
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(channel.drops(), 8u);
}

TEST(Channel, DownChannelDropsEverything) {
  Engine engine;
  Channel channel(engine, LinkSpec::gbps(1), "t");
  std::size_t delivered = 0;
  channel.set_sink([&](net::Packet&&) { ++delivered; });
  channel.set_up(false);
  channel.transmit(sized_packet(64));
  engine.run();
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(channel.drops(), 1u);
  channel.set_up(true);
  channel.transmit(sized_packet(64));
  engine.run();
  EXPECT_EQ(delivered, 1u);
}

/// A 4-deep rx queue, every other ingress knob at its default.
IngressSpec shallow_ingress() {
  IngressSpec ingress;
  ingress.queue_capacity = 4;
  return ingress;
}

/// A ServicedNode that echoes everything back out the ingress port
/// with a fixed service time per packet.
class EchoNode : public ServicedNode {
 public:
  EchoNode(Engine& engine, SimNanos service_ns, std::size_t burst_size = 1,
           IngressSpec ingress = shallow_ingress())
      : ServicedNode(engine, "echo", ingress, burst_size), service_ns_(service_ns) {
    ensure_ports(1);
  }
  std::vector<SimNanos> service_times;
  std::function<void(int)> on_service;
  using ServicedNode::ensure_rx_queues;  // expose for the poll tests

 protected:
  SimNanos service(int in_port, net::Packet&& packet) override {
    service_times.push_back(engine_.now());
    if (on_service) on_service(in_port);
    emit(static_cast<std::size_t>(in_port), std::move(packet));
    return service_ns_;
  }

 private:
  SimNanos service_ns_;
};

TEST(ServicedNode, SerializesServiceAtFixedRate) {
  Engine engine;
  EchoNode node(engine, 100);  // burst_size 1: the classic single server
  // Inject 3 packets at t=0: service starts at 0, 100, 200.
  for (int i = 0; i < 3; ++i) {
    engine.schedule_at(0, [&] { node.handle(0, sized_packet(64)); });
  }
  engine.run();
  ASSERT_EQ(node.service_times.size(), 3u);
  EXPECT_EQ(node.service_times[0], 0);
  EXPECT_EQ(node.service_times[1], 100);
  EXPECT_EQ(node.service_times[2], 200);
  EXPECT_EQ(node.busy_ns(), 300);
  EXPECT_EQ(node.bursts_served(), 3u);
}

TEST(ServicedNode, BurstModeDrainsTheQueueInOneGulp) {
  Engine engine;
  EchoNode node(engine, 100, /*burst_size=*/4);
  std::vector<SimNanos> deliveries;
  Channel wire(engine, LinkSpec{Rate::gbps(100), 0, 16}, "echo-out");
  wire.set_sink([&](net::Packet&&) { deliveries.push_back(engine.now()); });
  node.port(0).attach(&wire);

  for (int i = 0; i < 3; ++i) {
    engine.schedule_at(0, [&] { node.handle(0, sized_packet(64)); });
  }
  engine.run();
  // One burst serves all 3 back to back at t=0; costs still sum.
  ASSERT_EQ(node.service_times.size(), 3u);
  for (const SimNanos at : node.service_times) EXPECT_EQ(at, 0);
  EXPECT_EQ(node.busy_ns(), 300);
  EXPECT_EQ(node.bursts_served(), 1u);
  // Outputs leave together when the burst completes (a tx burst).
  ASSERT_EQ(deliveries.size(), 3u);
  for (const SimNanos at : deliveries) EXPECT_GE(at, 300);
}

TEST(ServicedNode, BurstSizeCapsTheGulp) {
  Engine engine;
  EchoNode node(engine, 100, /*burst_size=*/2);
  engine.schedule_at(0, [&] {
    for (int i = 0; i < 4; ++i) node.handle(0, sized_packet(64));
  });
  engine.run();
  // 4 packets, bursts of 2: gulps start at 0 and 200.
  ASSERT_EQ(node.service_times.size(), 4u);
  EXPECT_EQ(node.service_times[0], 0);
  EXPECT_EQ(node.service_times[1], 0);
  EXPECT_EQ(node.service_times[2], 200);
  EXPECT_EQ(node.service_times[3], 200);
  EXPECT_EQ(node.bursts_served(), 2u);
}

TEST(ServicedNode, BoundedQueueDrops) {
  Engine engine;
  EchoNode node(engine, 1000);
  engine.schedule_at(0, [&] {
    for (int i = 0; i < 10; ++i) node.handle(0, sized_packet(64));
  });
  engine.run();
  // Capacity 4: the first is consumed by the drain scheduled at t=0
  // only after the burst fully lands, so exactly 4 survive.
  EXPECT_EQ(node.queue_drops(), 6u);
  EXPECT_EQ(node.service_times.size(), 4u);
}

TEST(ServicedNode, EmitOutsideServiceThrows) {
  Engine engine;
  struct Bad : ServicedNode {
    explicit Bad(Engine& engine) : ServicedNode(engine, "bad") { ensure_ports(1); }
    using ServicedNode::emit;  // expose for the test
    SimNanos service(int, net::Packet&&) override { return 0; }
  } node(engine);
  net::Packet packet = sized_packet(64);
  EXPECT_THROW(node.emit(0, std::move(packet)), util::ConfigError);
}

TEST(ServicedNode, RoundRobinSweepsPortsInsteadOfArrivalOrder) {
  Engine engine;
  IngressSpec ingress;
  ingress.queue_capacity = 64;
  ingress.scheduler.kind = SchedulerKind::kRoundRobin;
  EchoNode node(engine, 10, /*burst_size=*/8, ingress);
  node.ensure_ports(2);
  std::vector<int> served;

  // 4 packets on port 0, then 2 on port 1, all before the drain runs:
  // FCFS would serve 0,0,0,0,1,1 — RR must alternate while both
  // queues are backlogged.
  engine.schedule_at(0, [&] {
    for (int i = 0; i < 4; ++i) node.handle(0, sized_packet(64));
    for (int i = 0; i < 2; ++i) node.handle(1, sized_packet(64));
  });
  node.on_service = [&](int in_port) { served.push_back(in_port); };
  engine.run();
  EXPECT_EQ(served, (std::vector<int>{0, 1, 0, 1, 0, 0}));
  EXPECT_EQ(node.bursts_served(), 1u);
}

TEST(ServicedNode, DrrSharesBytesNotPackets) {
  Engine engine;
  IngressSpec ingress;
  ingress.queue_capacity = 64;
  ingress.scheduler.kind = SchedulerKind::kDrr;
  ingress.scheduler.drr_quantum_bytes = 1500;
  EchoNode node(engine, 10, /*burst_size=*/32, ingress);
  node.ensure_ports(2);
  std::vector<int> served;

  // Port 0 queues 1500B hogs, port 1 queues 100B mice. A packet-fair
  // sweep would alternate 1:1; byte-fair DRR grants port 1 one MTU of
  // credit per visit — enough for many mice per hog.
  engine.schedule_at(0, [&] {
    for (int i = 0; i < 4; ++i) node.handle(0, sized_packet(1500));
    for (int i = 0; i < 20; ++i) node.handle(1, sized_packet(100));
  });
  node.on_service = [&](int in_port) { served.push_back(in_port); };
  engine.run();
  ASSERT_EQ(served.size(), 24u);
  // First round: one 1500B from port 0, then 15 x 100B from port 1.
  std::size_t port1_in_first_16 = 0;
  for (std::size_t i = 0; i < 16; ++i) port1_in_first_16 += served[i] == 1 ? 1 : 0;
  EXPECT_EQ(served[0], 0);
  EXPECT_EQ(port1_in_first_16, 15u);
}

TEST(ServicedNode, WeightedDrrSplitsGoodputByPortQuanta) {
  Engine engine;
  IngressSpec ingress;
  ingress.queue_capacity = 1024;
  ingress.scheduler.kind = SchedulerKind::kDrr;
  ingress.scheduler.drr_quantum_bytes = 1500;
  // Operator policy: port 0 carries twice port 1's weight.
  ingress.scheduler.drr_port_quantum_bytes = {3000, 1500};
  EchoNode node(engine, 10, /*burst_size=*/32, ingress);
  node.ensure_ports(2);
  std::vector<int> served;

  // Symmetric overload: both ports arrive with identical 300-packet
  // backlogs of identical 100B frames, far more than one burst serves.
  engine.schedule_at(0, [&] {
    for (int i = 0; i < 300; ++i) node.handle(0, sized_packet(100));
    for (int i = 0; i < 300; ++i) node.handle(1, sized_packet(100));
  });
  node.on_service = [&](int in_port) { served.push_back(in_port); };
  engine.run();

  // While both queues stay backlogged (neither 300-packet backlog
  // empties within the first 270 services at a 2:1 drain split), the
  // 2:1 byte quanta must yield a ~2:1 goodput split.
  ASSERT_GE(served.size(), 270u);
  std::size_t port0 = 0, port1 = 0;
  for (std::size_t i = 0; i < 270; ++i) (served[i] == 0 ? port0 : port1)++;
  ASSERT_GT(port1, 0u);
  EXPECT_NEAR(static_cast<double>(port0) / static_cast<double>(port1), 2.0, 0.2)
      << "port0=" << port0 << " port1=" << port1;
}

TEST(ServicedNode, PerPortBoundAttributesDropsToTheArrivingPort) {
  Engine engine;
  IngressSpec ingress;
  ingress.queue_capacity = 64;
  ingress.port_queue_capacity = 2;
  EchoNode node(engine, 100, /*burst_size=*/1, ingress);
  node.ensure_ports(2);
  engine.schedule_at(0, [&] {
    for (int i = 0; i < 10; ++i) node.handle(0, sized_packet(64));
    node.handle(1, sized_packet(64));
  });
  engine.run();
  // Port 0 admits 2, drops 8; port 1's single packet is untouched.
  EXPECT_EQ(node.queue_drops(), 8u);
  EXPECT_EQ(node.rx_queue(0).drops(), 8u);
  EXPECT_EQ(node.rx_queue(1).drops(), 0u);
  EXPECT_EQ(node.service_times.size(), 3u);
  EXPECT_EQ(node.rx_queue(0).peak_depth(), 2u);
}

// ---- Multi-core service steps (CoreSpec) -----------------------------

TEST(MultiCore, SteeringFollowsPinMapThenRssPolicy) {
  CoreSpec spec;
  spec.cores = 4;
  spec.rss = RssPolicy::kStride;
  spec.pin_map = {2, kCoreUnpinned, 7};  // 7 wraps to 7 % 4 == 3
  EXPECT_EQ(spec.core_of(0), 2u);        // pinned
  EXPECT_EQ(spec.core_of(1), 1u);        // unpinned -> stride: 1 % 4
  EXPECT_EQ(spec.core_of(2), 3u);        // pinned mod cores
  EXPECT_EQ(spec.core_of(5), 1u);        // beyond the map -> stride
  // The hash policy must agree with the shared project mix (plus its
  // two finalizer rounds) — RSS and the flow cache key through the
  // same primitive by construction.
  spec.rss = RssPolicy::kHash;
  spec.pin_map.clear();
  std::uint64_t h = util::hash_u64(util::kHashSeed, 5);
  h = util::hash_u64(h, h >> 32);
  h = util::hash_u64(h, h >> 32);
  EXPECT_EQ(spec.core_of(5), static_cast<std::size_t>(h) % 4);
  // And it must NOT be a disguised stride: over the first 8 ports on 4
  // cores the map is visibly non-rotational (a rotation is what a
  // single unfinalized mix round degenerates to).
  bool is_rotation = false;
  for (std::size_t r = 0; r < 4 && !is_rotation; ++r) {
    bool matches = true;
    for (std::size_t q = 0; q < 8 && matches; ++q) matches = spec.core_of(q) == (q + r) % 4;
    is_rotation = matches;
  }
  EXPECT_FALSE(is_rotation);
}

TEST(MultiCore, CoresServeTheirOwnQueuesInOneLockstepStep) {
  Engine engine;
  IngressSpec ingress;
  ingress.queue_capacity = 64;
  ingress.cores.cores = 2;
  ingress.cores.rss = RssPolicy::kStride;  // port 0 -> core 0, port 1 -> core 1
  EchoNode node(engine, 100, /*burst_size=*/4, ingress);
  node.ensure_ports(2);

  // 4 packets per port at t=0: one step, both cores burst in parallel.
  engine.schedule_at(0, [&] {
    for (int i = 0; i < 4; ++i) node.handle(0, sized_packet(64));
    for (int i = 0; i < 4; ++i) node.handle(1, sized_packet(64));
  });
  engine.run();

  ASSERT_EQ(node.core_count(), 2u);
  EXPECT_EQ(node.core_of_queue(0), 0u);
  EXPECT_EQ(node.core_of_queue(1), 1u);
  EXPECT_EQ(node.core_queue_count(0), 1u);
  EXPECT_EQ(node.core_queue_count(1), 1u);
  // All 8 served at t=0 (two parallel bursts of 4), where one core
  // would have needed two sequential steps.
  ASSERT_EQ(node.service_times.size(), 8u);
  for (const SimNanos at : node.service_times) EXPECT_EQ(at, 0);
  EXPECT_EQ(node.bursts_served(), 2u);
  EXPECT_EQ(node.core_bursts(0), 1u);
  EXPECT_EQ(node.core_bursts(1), 1u);
  EXPECT_EQ(node.core_packets(0), 4u);
  EXPECT_EQ(node.core_packets(1), 4u);
  // Busy time is total compute (sum over cores); each core billed its
  // own 400ns.
  EXPECT_EQ(node.core_busy_ns(0), 400);
  EXPECT_EQ(node.core_busy_ns(1), 400);
  EXPECT_EQ(node.busy_ns(), 800);
}

TEST(MultiCore, StepAdvancesByTheMakespanOfTheSlowestCore) {
  Engine engine;
  IngressSpec ingress;
  ingress.queue_capacity = 64;
  ingress.cores.cores = 2;
  ingress.cores.rss = RssPolicy::kStride;
  EchoNode node(engine, 100, /*burst_size=*/4, ingress);
  node.ensure_ports(2);

  // Core 0 gets 8 packets (two bursts), core 1 gets 1. The second step
  // starts only when step 1's slowest core (core 0: 400ns) finishes —
  // lockstep workers, not independent servers.
  engine.schedule_at(0, [&] {
    for (int i = 0; i < 8; ++i) node.handle(0, sized_packet(64));
    node.handle(1, sized_packet(64));
  });
  engine.run();

  ASSERT_EQ(node.service_times.size(), 9u);
  // Step 1 at t=0: core 0 serves 4, core 1 serves 1 (100ns, idles the
  // rest of the 400ns makespan). Step 2 at t=400: core 0's remainder.
  std::size_t at_0 = 0, at_400 = 0;
  for (const SimNanos at : node.service_times) {
    if (at == 0) ++at_0;
    if (at == 400) ++at_400;
  }
  EXPECT_EQ(at_0, 5u);
  EXPECT_EQ(at_400, 4u);
  EXPECT_EQ(node.core_busy_ns(0), 800);
  EXPECT_EQ(node.core_busy_ns(1), 100);
  EXPECT_EQ(node.busy_ns(), 900);
}

// ---- Adaptive burst sizing (SchedulerSpec::adaptive_burst) -----------

TEST(AdaptiveBurst, LightLoadTakesThePerPacketPathAndSkipsIdlePolls) {
  // Paced singles: backlog is 1 at every drain. Fixed burst-32 pays a
  // full poll sweep per (one-packet) burst; adaptive shrinks the
  // budget to 1 and takes the per-packet path — zero poll sweeps, the
  // idle-poll bill gone.
  auto run = [](bool adaptive) {
    Engine engine;
    IngressSpec ingress;
    ingress.queue_capacity = 64;
    ingress.scheduler.adaptive_burst = adaptive;
    EchoNode node(engine, 100, /*burst_size=*/32, ingress);
    node.ensure_ports(4);
    node.ensure_rx_queues(4);  // idle port density: 4 queues to sweep
    for (int i = 0; i < 10; ++i)
      engine.schedule_at(i * 10'000, [&node] { node.handle(0, sized_packet(64)); });
    engine.run();
    EXPECT_EQ(node.service_times.size(), 10u);
    return node.rx_polls();
  };
  EXPECT_EQ(run(/*adaptive=*/false), 10u * 4u);
  EXPECT_EQ(run(/*adaptive=*/true), 0u);
}

TEST(AdaptiveBurst, OverloadGrowsTheBudgetBackToFullBatching) {
  // 64 packets at once: adaptive must not stay timid — the first step
  // sees backlog 64 and runs the full burst_size budget, matching the
  // fixed-burst drain burst for burst.
  auto run = [](bool adaptive) {
    Engine engine;
    IngressSpec ingress;
    ingress.queue_capacity = 64;
    ingress.scheduler.adaptive_burst = adaptive;
    EchoNode node(engine, 100, /*burst_size=*/32, ingress);
    engine.schedule_at(0, [&node] {
      for (int i = 0; i < 64; ++i) node.handle(0, sized_packet(64));
    });
    engine.run();
    EXPECT_EQ(node.service_times.size(), 64u);
    return std::pair{node.bursts_served(), node.rx_polls()};
  };
  const auto fixed = run(/*adaptive=*/false);
  const auto adaptive = run(/*adaptive=*/true);
  EXPECT_EQ(adaptive.first, 2u);  // two full bursts of 32
  EXPECT_EQ(adaptive, fixed);     // identical batching (and poll bill)
}

TEST(AdaptiveBurst, BudgetTracksBacklogBetweenFloorAndBurstSize) {
  Engine engine;
  IngressSpec ingress;
  ingress.queue_capacity = 64;
  ingress.scheduler.adaptive_burst = true;
  ingress.scheduler.adaptive_min_burst = 4;  // floor above 1: always batched
  EchoNode node(engine, 100, /*burst_size=*/32, ingress);
  engine.schedule_at(0, [&node] {
    for (int i = 0; i < 2; ++i) node.handle(0, sized_packet(64));
  });
  engine.run();
  // Backlog 2 < floor 4: budget clamps to the floor — still a batched
  // burst (polls counted), served in one gulp.
  EXPECT_EQ(node.bursts_served(), 1u);
  EXPECT_EQ(node.rx_polls(), 1u);
  EXPECT_EQ(node.service_times.size(), 2u);
}

TEST(Node, PortOutOfRangeThrows) {
  Engine engine;
  EchoNode node(engine, 1);
  EXPECT_NO_THROW((void)node.port(0));
  EXPECT_THROW((void)node.port(1), util::ConfigError);
}

TEST(Port, UnwiredSendCountsDrop) {
  Engine engine;
  EchoNode node(engine, 1);
  node.port(0).send(sized_packet(64));
  EXPECT_EQ(node.port(0).tx_unwired_drops, 1u);
  EXPECT_EQ(node.port(0).tx.packets, 1u);
}

}  // namespace
}  // namespace harmless::sim
