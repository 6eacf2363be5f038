// Scheduler-coherence theorems, as differential property tests (the
// cache_equivalence_test.cpp approach, one layer up: the ingress).
//
// The per-port RX queue refactor must be invisible under FCFS: for ANY
// interleaving of arrivals across ports (including simultaneous
// bursts, tight buffers, and every burst size), the production
// ServicedNode draining per-port queues through FcfsScheduler must be
// observationally identical — service order, service times, drops,
// busy time, burst count — to the pre-refactor shared FIFO, which is
// reimplemented here verbatim as the reference model.
//
// Two more coherence properties pin down the scheduler API itself:
// with a single active ingress port every scheduler degenerates to
// FCFS (full SoftSwitch observables, under random packet/flow-mod
// interleavings), and under drained-between-waves multi-port load the
// scheduler choice may reorder service but must never change *what* is
// delivered, matched, or counted.
#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "bench/common.hpp"
#include "net/build.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace harmless {
namespace {

using namespace net;
using bench::NativeRig;
using bench::RigOptions;
using sim::Engine;
using sim::SimNanos;

// ---- Part 1: FCFS over per-port queues == the shared FIFO ------------

/// Size-dependent per-packet cost shared by the reference and the
/// probe, so service completion times (and hence drain/admission
/// timing) depend on the packet mix, not just the packet count.
SimNanos service_cost(const net::Packet& packet) {
  return 40 + static_cast<SimNanos>(packet.size() % 7) * 13;
}

struct Served {
  SimNanos at;
  int in_port;
  net::Bytes frame;
  friend bool operator==(const Served&, const Served&) = default;
};

/// The pre-refactor ServicedNode, reimplemented verbatim: one shared
/// bounded FIFO, drained FCFS in bursts, per-packet when burst <= 1.
class SharedFifoRef final : public sim::Node {
 public:
  SharedFifoRef(Engine& engine, std::size_t capacity, std::size_t burst)
      : Node(engine, "ref"), capacity_(capacity), burst_(burst == 0 ? 1 : burst) {
    ensure_ports(1);
  }

  std::vector<Served> log;
  std::uint64_t drops = 0;
  std::uint64_t bursts = 0;
  SimNanos busy_ns = 0;

  void handle(int in_port, net::Packet&& packet) override {
    if (queue_.size() >= capacity_) {
      ++drops;
      return;
    }
    queue_.emplace_back(in_port, std::move(packet));
    if (!draining_) {
      draining_ = true;
      engine_.schedule_at(std::max(engine_.now(), busy_until_), [this] { drain(); });
    }
  }

 private:
  void drain() {
    if (queue_.empty()) {
      draining_ = false;
      return;
    }
    SimNanos cost = 0;
    const std::size_t count = burst_ <= 1 ? 1 : std::min(queue_.size(), burst_);
    for (std::size_t i = 0; i < count; ++i) {
      auto [in_port, packet] = std::move(queue_.front());
      queue_.pop_front();
      cost += service_cost(packet);
      log.push_back(Served{engine_.now(), in_port, packet.frame()});
    }
    ++bursts;
    busy_ns += cost;
    busy_until_ = engine_.now() + cost;
    engine_.schedule_at(busy_until_, [this] { drain(); });
  }

  std::size_t capacity_;
  std::size_t burst_;
  std::deque<std::pair<int, net::Packet>> queue_;
  bool draining_ = false;
  SimNanos busy_until_ = 0;
};

/// The production datapath under test: per-port RX queues + a
/// scheduler, FCFS by default.
class SchedulerProbe final : public sim::ServicedNode {
 public:
  SchedulerProbe(Engine& engine, std::size_t capacity, std::size_t burst,
                 sim::SchedulerSpec scheduler = {})
      : ServicedNode(
            engine, "probe",
            sim::IngressSpec{.queue_capacity = capacity, .scheduler = scheduler, .cores = {}},
            burst) {
    ensure_ports(1);
  }

  std::vector<Served> log;

 protected:
  SimNanos service(int in_port, net::Packet&& packet) override {
    log.push_back(Served{engine_.now(), in_port, packet.frame()});
    return service_cost(packet);
  }
};

net::Packet tagged_packet(std::uint16_t id, std::size_t size) {
  FlowKey key;
  key.eth_src = MacAddr::from_u64(0x0200000000a0ULL);
  key.eth_dst = MacAddr::from_u64(0x0200000000b0ULL);
  key.ip_src = Ipv4Addr(10, 1, 0, 1);
  key.ip_dst = Ipv4Addr(10, 1, 0, 2);
  key.src_port = id;  // unique tag: frame bytes identify the packet
  key.dst_port = 7;
  return make_udp(key, size);
}

class SchedulerEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerEquivalence, FcfsOverPerPortQueuesMatchesTheSharedFifo) {
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed);

  const int ports = 2 + static_cast<int>(rng.below(5));
  const std::size_t capacity = 4 + rng.below(44);  // tight: drops happen
  const std::size_t burst = std::vector<std::size_t>{1, 2, 3, 8, 33}[rng.below(5)];

  Engine engine;
  SharedFifoRef ref(engine, capacity, burst);
  SchedulerProbe probe(engine, capacity, burst);  // default scheduler: FCFS

  // Random arrival process: jittered times (often simultaneous — ties
  // must break identically), random ports, random sizes.
  SimNanos at = 0;
  for (std::uint16_t id = 0; id < 400; ++id) {
    if (!rng.chance(0.5)) at += rng.below(150);  // denser than service: drops happen
    const int in_port = static_cast<int>(rng.below(static_cast<std::uint64_t>(ports)));
    const std::size_t size = 64 + rng.below(1400);
    engine.schedule_at(at, [&ref, &probe, id, size, in_port] {
      ref.handle(in_port, tagged_packet(id, size));
      probe.handle(in_port, tagged_packet(id, size));
    });
  }
  engine.run();

  ASSERT_EQ(probe.log.size(), ref.log.size()) << "seed " << seed;
  for (std::size_t i = 0; i < ref.log.size(); ++i)
    ASSERT_EQ(probe.log[i], ref.log[i]) << "seed " << seed << " service " << i;
  EXPECT_EQ(probe.queue_drops(), ref.drops) << "seed " << seed;
  EXPECT_EQ(probe.busy_ns(), ref.busy_ns) << "seed " << seed;
  EXPECT_EQ(probe.bursts_served(), ref.bursts) << "seed " << seed;
  EXPECT_EQ(probe.queue_depth(), 0u);
  // Per-port drop attribution must add up to the shared total.
  std::uint64_t per_port = 0;
  for (std::size_t q = 0; q < probe.rx_queue_count(); ++q) per_port += probe.rx_queue(q).drops();
  EXPECT_EQ(per_port, probe.queue_drops()) << "seed " << seed;
  // The workload must actually stress the queue for this to mean much.
  EXPECT_GT(ref.drops, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ---- Part 2: one active port => every scheduler is FCFS --------------

struct Script {
  struct Event {
    SimNanos at;
    bool flow_mod;
    // packet
    int dst;
    std::size_t size;
    // flow mod
    openflow::FlowModMsg mod;
  };
  std::vector<Event> events;
};

/// Random single-source traffic with flow-mod interleavings: rules for
/// the destinations come, go, and get re-pointed while packets are in
/// flight and queued.
Script make_single_port_script(std::uint64_t seed, int hosts) {
  util::Rng rng(seed * 17 + 3);
  Script script;
  SimNanos at = 5'000;
  for (int step = 0; step < 500; ++step) {
    Script::Event event{};
    event.at = at;
    if (rng.chance(0.08)) {
      event.flow_mod = true;
      const int dst = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(hosts - 1)));
      event.mod.table_id = 0;
      if (rng.chance(0.25)) {
        event.mod.command = openflow::FlowModMsg::Command::kDelete;
        event.mod.match.eth_dst(bench::host_mac(dst));
      } else {
        event.mod.command = openflow::FlowModMsg::Command::kAdd;
        event.mod.priority = static_cast<std::uint16_t>(11 + rng.below(4));
        event.mod.match.eth_dst(bench::host_mac(dst));
        event.mod.instructions = openflow::apply({openflow::output(
            static_cast<std::uint32_t>(1 + rng.below(static_cast<std::uint64_t>(hosts))))});
      }
    } else {
      event.flow_mod = false;
      event.dst = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(hosts - 1)));
      event.size = 64 + rng.below(1200);
      // Back-to-back clumps so the switch queue actually builds up.
      if (rng.chance(0.5)) at += rng.below(2'000);
    }
    script.events.push_back(std::move(event));
    at += rng.below(200);
  }
  return script;
}

struct SinglePortRun {
  std::vector<std::uint64_t> host_rx;
  std::uint64_t pipeline_runs, packets_out, drops_no_match, queue_drops;
  std::uint64_t cache_hits, cache_misses;
};

SinglePortRun run_single_port(const Script& script, sim::SchedulerSpec scheduler) {
  RigOptions options;
  options.host_count = 4;
  options.burst_size = 8;
  options.scheduler = scheduler;
  options.port_queue_capacity = 16;  // tight per-port bound: drops happen
  NativeRig rig(options);

  for (const Script::Event& event : script.events) {
    if (event.flow_mod) {
      rig.network.engine().schedule_at(event.at, [&rig, &event] {
        (void)rig.datapath->install(event.mod);
      });
    } else {
      rig.network.engine().schedule_at(event.at, [&rig, &event] {
        FlowKey key;
        key.eth_src = rig.hosts[0]->mac();
        key.eth_dst = bench::host_mac(event.dst);
        key.ip_src = rig.hosts[0]->ip();
        key.ip_dst = bench::host_ip(event.dst);
        key.dst_port = 9;
        rig.hosts[0]->send(make_udp(key, event.size));
      });
    }
  }
  rig.network.run();

  SinglePortRun run{};
  for (sim::Host* host : rig.hosts) run.host_rx.push_back(host->counters().rx_udp);
  const auto& counters = rig.datapath->counters();
  run.pipeline_runs = counters.pipeline_runs;
  run.packets_out = counters.packets_out;
  run.drops_no_match = counters.drops_no_match;
  run.queue_drops = rig.datapath->queue_drops();
  run.cache_hits = counters.cache_hits;
  run.cache_misses = counters.cache_misses;
  return run;
}

class SinglePortSchedulers : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SinglePortSchedulers, AllSchedulersDegenerateToFcfsOnOneActivePort) {
  const std::uint64_t seed = GetParam();
  const Script script = make_single_port_script(seed, 4);

  const SinglePortRun fcfs =
      run_single_port(script, bench::scheduler_spec(sim::SchedulerKind::kFcfs));
  const SinglePortRun rr =
      run_single_port(script, bench::scheduler_spec(sim::SchedulerKind::kRoundRobin));
  const SinglePortRun drr =
      run_single_port(script, bench::scheduler_spec(sim::SchedulerKind::kDrr));

  for (const SinglePortRun* other : {&rr, &drr}) {
    EXPECT_EQ(other->host_rx, fcfs.host_rx) << "seed " << seed;
    EXPECT_EQ(other->pipeline_runs, fcfs.pipeline_runs) << "seed " << seed;
    EXPECT_EQ(other->packets_out, fcfs.packets_out) << "seed " << seed;
    EXPECT_EQ(other->drops_no_match, fcfs.drops_no_match) << "seed " << seed;
    EXPECT_EQ(other->queue_drops, fcfs.queue_drops) << "seed " << seed;
    EXPECT_EQ(other->cache_hits, fcfs.cache_hits) << "seed " << seed;
    EXPECT_EQ(other->cache_misses, fcfs.cache_misses) << "seed " << seed;
  }
  // The script must exercise the datapath, flow-mod churn included.
  EXPECT_GT(fcfs.pipeline_runs, 400u) << "seed " << seed;
  EXPECT_GT(fcfs.cache_hits, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SinglePortSchedulers, ::testing::Values(2, 7, 11, 23, 42));

// ---- Part 3: schedulers reorder service, never what is delivered -----

TEST(SchedulerMultiset, ReorderingNeverChangesWhatIsDeliveredOrCounted) {
  // Multi-port waves with flow-mods only in fully-drained gaps: the
  // scheduler choice may permute service order inside a wave, but the
  // delivered multiset, match counts and per-entry stats must agree.
  auto run = [](sim::SchedulerSpec scheduler) {
    RigOptions options;
    options.host_count = 4;
    options.burst_size = 16;
    options.scheduler = scheduler;
    NativeRig rig(options);

    SimNanos at = 10'000;
    util::Rng rng(99);
    for (int wave = 0; wave < 5; ++wave) {
      // Re-point one destination's rule between waves (queues empty).
      openflow::FlowModMsg mod;
      mod.table_id = 0;
      mod.priority = 20;
      mod.match.eth_dst(bench::host_mac(1));
      mod.instructions = openflow::apply(
          {openflow::output(static_cast<std::uint32_t>(wave % 2 == 0 ? 2 : 4))});
      rig.network.engine().schedule_at(at, [&rig, mod] { (void)rig.datapath->install(mod); });
      at += 1'000;
      // A wave: every host streams to its ring neighbour, paced within
      // capacity so nothing drops.
      for (int i = 0; i < 4; ++i)
        for (int k = 0; k < 50; ++k) {
          const SimNanos send_at = at + k * 400 + static_cast<SimNanos>(rng.below(50));
          rig.network.engine().schedule_at(send_at, [&rig, i] {
            FlowKey key;
            key.eth_src = rig.hosts[static_cast<std::size_t>(i)]->mac();
            key.eth_dst = bench::host_mac((i + 1) % 4);
            key.ip_src = rig.hosts[static_cast<std::size_t>(i)]->ip();
            key.ip_dst = bench::host_ip((i + 1) % 4);
            key.dst_port = 9;
            rig.hosts[static_cast<std::size_t>(i)]->send(make_udp(key, 200));
          });
        }
      at += 50 * 400 + 2'000'000;  // long gap: everything drains
    }
    rig.network.run();

    struct Result {
      std::vector<std::uint64_t> host_rx;
      std::uint64_t packets_out, queue_drops;
      std::vector<std::pair<std::uint64_t, std::uint64_t>> entry_stats;
    } result;
    for (sim::Host* host : rig.hosts) result.host_rx.push_back(host->counters().rx_udp);
    result.packets_out = rig.datapath->counters().packets_out;
    result.queue_drops = rig.datapath->queue_drops();
    for (const openflow::FlowEntry* entry : rig.datapath->pipeline().table(0).entries())
      result.entry_stats.emplace_back(entry->packet_count, entry->byte_count);
    return std::make_tuple(result.host_rx, result.packets_out, result.queue_drops,
                           result.entry_stats);
  };

  sim::SchedulerSpec drr_512 = bench::scheduler_spec(sim::SchedulerKind::kDrr);
  drr_512.drr_quantum_bytes = 512;
  const auto fcfs = run(bench::scheduler_spec(sim::SchedulerKind::kFcfs));
  const auto rr = run(bench::scheduler_spec(sim::SchedulerKind::kRoundRobin));
  const auto drr = run(drr_512);
  EXPECT_EQ(rr, fcfs);
  EXPECT_EQ(drr, fcfs);
  EXPECT_EQ(std::get<2>(fcfs), 0u);  // paced within capacity: no drops anywhere
}

}  // namespace
}  // namespace harmless
