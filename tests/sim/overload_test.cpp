// Overload and failure-injection behaviour: where packets die when the
// offered load exceeds a component's capacity, and that every loss is
// accounted somewhere. These pin down the mechanics behind the E1
// (NDR) and E7 (oversubscription knee / collapse) results.
#include <gtest/gtest.h>

#include "bench/common.hpp"
#include "net/build.hpp"
#include "sim/network.hpp"

namespace harmless {
namespace {

using namespace net;
using bench::HarmlessRig;
using bench::NativeRig;
using bench::RigOptions;

TEST(Overload, SoftSwitchQueueDropsUnderSaturation) {
  // 64B at 10G arrive faster than the per-packet datapath can serve;
  // the bounded service queue must tail-drop, and delivery rate must
  // approximate service capacity, not the offered rate. (burst_size 1:
  // the batched datapath out-serves this feed — see the next test.)
  RigOptions options;
  options.access_link = sim::LinkSpec::gbps(10);
  options.burst_size = 1;
  NativeRig rig(options);
  sim::LatencyRecorder recorder;
  rig.hosts[0]->set_recorder(&recorder);
  rig.hosts[1]->set_recorder(&recorder);

  constexpr std::size_t kPackets = 20'000;
  rig.stream(0, 1, kPackets, 64, options.access_link.rate.serialization_ns(64));
  rig.network.run();

  EXPECT_GT(rig.datapath->queue_drops(), 0u);
  EXPECT_EQ(recorder.completed() + rig.datapath->queue_drops(), kPackets);
  // Dropped packets never complete: they stay outstanding in the
  // recorder, one for one.
  EXPECT_EQ(recorder.outstanding(), rig.datapath->queue_drops());

  // Delivered rate is far below offered (19 Mpps) and positive.
  const double pps = bench::measure(recorder, 64).pps;
  EXPECT_GT(pps, 1e6);
  EXPECT_LT(pps, 17e6);
}

TEST(Overload, BatchedDatapathAbsorbsTheSameFeed) {
  // The same 64B 10G feed against the burst-oriented datapath: burst
  // replay amortization lifts capacity above the offered rate, so the
  // service queue self-balances (bursts grow just enough to keep up)
  // and nothing tail-drops.
  RigOptions options;
  options.access_link = sim::LinkSpec::gbps(10);
  options.burst_size = 32;
  NativeRig rig(options);
  sim::LatencyRecorder recorder;
  rig.hosts[0]->set_recorder(&recorder);
  rig.hosts[1]->set_recorder(&recorder);

  constexpr std::size_t kPackets = 20'000;
  rig.stream(0, 1, kPackets, 64, options.access_link.rate.serialization_ns(64));
  rig.network.run();

  EXPECT_EQ(rig.datapath->queue_drops(), 0u);
  EXPECT_EQ(recorder.completed(), kPackets);
  // The loop really ran batched: far fewer service bursts than packets.
  EXPECT_LT(rig.datapath->counters().service_bursts,
            rig.datapath->counters().pipeline_runs / 2);
  EXPECT_GT(bench::measure(recorder, 64).pps, 17e6);
}

struct IsolationRun {
  std::uint64_t mouse_completed = 0;
  std::uint64_t mouse_port_drops = 0;     // rx-queue tail drops on the mouse's port
  std::uint64_t elephant_port_drops = 0;  // ditto on the elephant's port
};

/// Elephant on OF port 1 saturating the per-packet datapath ~1.6x,
/// mouse flow on OF port 2 at ~5% of line rate.
IsolationRun isolation_run(sim::SchedulerSpec scheduler, std::size_t port_queue_capacity) {
  RigOptions options;
  options.host_count = 4;
  options.access_link = sim::LinkSpec::gbps(10);
  options.burst_size = 1;  // the CPU-bound per-packet datapath: overload is real
  options.scheduler = scheduler;
  options.port_queue_capacity = port_queue_capacity;
  NativeRig rig(options);
  sim::LatencyRecorder mouse;
  rig.hosts[1]->set_recorder(&mouse);
  rig.hosts[3]->set_recorder(&mouse);

  constexpr std::size_t kElephant = 40'000;
  constexpr std::size_t kMice = 2'000;
  const sim::SimNanos line = options.access_link.rate.serialization_ns(64);
  rig.stream(0, 2, kElephant, 64, line);       // 19 Mpps offered, ~12 Mpps served
  rig.stream(1, 3, kMice, 64, line * 20);      // 5% of line: well under fair share
  rig.network.run();

  IsolationRun run;
  run.mouse_completed = mouse.completed();
  run.mouse_port_drops = rig.datapath->rx_queue_drops(2);
  run.elephant_port_drops = rig.datapath->rx_queue_drops(1);
  return run;
}

TEST(Overload, DrrIsolatesTheMousePortFromAnElephantOverload) {
  // The pre-refactor datapath (FCFS over the shared 1024-packet
  // buffer): the elephant's backlog owns the whole buffer, so the
  // mouse's packets tail-drop at admission even though the mouse asks
  // for 5% of capacity — head-of-line blocking as buffer monopoly.
  const IsolationRun fcfs = isolation_run(bench::scheduler_spec(sim::SchedulerKind::kFcfs),
                                          /*port_queue_capacity=*/0);
  EXPECT_GT(fcfs.mouse_port_drops, 200u);
  EXPECT_LT(fcfs.mouse_completed, 2'000u);
  EXPECT_EQ(fcfs.mouse_completed + fcfs.mouse_port_drops, 2'000u);  // every loss accounted

  // DRR over per-port bounded queues: the elephant can only occupy its
  // own 256-slot queue, the mouse's queue stays near-empty, and its
  // flow rides through lossless while the elephant keeps tail-dropping
  // on its own port.
  const IsolationRun drr = isolation_run(bench::scheduler_spec(sim::SchedulerKind::kDrr),
                                         /*port_queue_capacity=*/256);
  EXPECT_EQ(drr.mouse_port_drops, 0u);
  EXPECT_EQ(drr.mouse_completed, 2'000u);
  EXPECT_GT(drr.elephant_port_drops, 10'000u);
}

TEST(Overload, TrunkQueueIsTheBottleneckWhenOversubscribed) {
  // 4 hosts at 1G into a 2G trunk: the trunk serializer must be the
  // drop point; the switches themselves keep up.
  RigOptions options;
  options.host_count = 4;
  options.access_link = sim::LinkSpec::gbps(1);
  options.trunk_link = sim::LinkSpec::gbps(2);
  options.trunk_link.queue_capacity_packets = 64;
  HarmlessRig rig(options);

  for (int i = 0; i < 4; ++i)
    rig.stream(i, (i + 1) % 4, 2'000, 512,
               options.access_link.rate.serialization_ns(512));
  rig.network.run();

  std::uint64_t trunk_drops = 0;
  for (sim::Channel* channel : rig.network.find_channels("->SS_1"))
    trunk_drops += channel->drops();
  EXPECT_GT(trunk_drops, 0u);
  EXPECT_EQ(rig.fabric->ss1().queue_drops(), 0u);  // compute is not the limit
  EXPECT_EQ(rig.fabric->ss2().queue_drops(), 0u);
}

TEST(Overload, PacedLoadWithinCapacityLosesNothing) {
  // The converse property: at 80% of the trunk's rate nothing drops
  // anywhere on the whole hairpin path.
  RigOptions options;
  options.host_count = 2;
  options.access_link = sim::LinkSpec::gbps(1);
  options.trunk_link = sim::LinkSpec::gbps(10);
  HarmlessRig rig(options);
  sim::LatencyRecorder recorder;
  rig.hosts[0]->set_recorder(&recorder);
  rig.hosts[1]->set_recorder(&recorder);

  constexpr std::size_t kPackets = 5'000;
  const sim::SimNanos interval =
      options.access_link.rate.serialization_ns(512) * 5 / 4;  // 80% load
  rig.stream(0, 1, kPackets, 512, interval);
  rig.network.run();

  EXPECT_EQ(recorder.completed(), kPackets);
  for (const auto& channel : rig.network.channels()) EXPECT_EQ(channel->drops(), 0u)
      << channel->label();
}

TEST(Overload, DownedTrunkAccountsDropsOnTheChannel) {
  RigOptions options;
  options.host_count = 2;
  HarmlessRig rig(options);
  const auto rx_before = rig.hosts[1]->counters().rx_udp;  // warmup traffic
  rig.fabric->set_trunk_up(false);

  rig.stream(0, 1, 100, 128, 1'000);
  rig.network.run();

  std::uint64_t drops = 0;
  for (sim::Channel* channel : rig.network.find_channels("->SS_1"))
    drops += channel->drops();
  EXPECT_EQ(drops, 100u);
  EXPECT_EQ(rig.hosts[1]->counters().rx_udp, rx_before);
}

TEST(Overload, RecorderTracksInFlightLossesAsOutstanding) {
  sim::Network network;
  auto& a = network.add_host("a", MacAddr::from_u64(1), Ipv4Addr(10, 0, 0, 1));
  auto& b = network.add_host("b", MacAddr::from_u64(2), Ipv4Addr(10, 0, 0, 2));
  sim::LinkSpec thin = sim::LinkSpec::gbps(1);
  thin.queue_capacity_packets = 4;
  network.connect(a, 0, b, 0, thin);
  sim::LatencyRecorder recorder;
  a.set_recorder(&recorder);
  b.set_recorder(&recorder);

  // Burst of 20 at t=0 into a 4-deep queue: 16 lost at the NIC.
  for (int i = 0; i < 20; ++i) {
    FlowKey key;
    key.eth_src = a.mac();
    key.eth_dst = b.mac();
    key.ip_src = a.ip();
    key.ip_dst = b.ip();
    key.dst_port = 9;
    a.send(make_udp(key, 1500));
  }
  network.run();
  EXPECT_EQ(recorder.completed(), 4u);
  EXPECT_EQ(recorder.outstanding(), 16u);
}

}  // namespace
}  // namespace harmless
