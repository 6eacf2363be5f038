#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>

namespace perfbench {

std::vector<sim::SimNanos> core_busy(const softswitch::SoftSwitch& sw) {
  std::vector<sim::SimNanos> busy;
  for (std::size_t core = 0; core < sw.core_count(); ++core)
    busy.push_back(sw.core_busy_ns(core));
  return busy;
}

namespace {

std::uint64_t megaflow_lookups(const softswitch::SoftSwitch& sw) {
  std::uint64_t lookups = 0;
  for (std::size_t shard = 0; shard < sw.pipeline().shard_count(); ++shard) {
    const auto& stats = sw.pipeline().cache(shard).stats();
    lookups += stats.megaflow_hits + stats.misses;
  }
  return lookups;
}

}  // namespace

SwitchMark SwitchMark::take(const softswitch::SoftSwitch& sw) {
  SwitchMark mark;
  mark.counters = sw.counters();
  mark.core_busy_ns = core_busy(sw);
  mark.queue_drops = sw.queue_drops();
  mark.tier2_lookups = megaflow_lookups(sw);
  return mark;
}

void add_switch(Fields& model, Sums& sums, const softswitch::SoftSwitch& sw,
                const SwitchMark& mark, std::initializer_list<const char*> prefixes) {
  const softswitch::SoftSwitch::Counters now = sw.counters();
  const softswitch::SoftSwitch::Counters& then = mark.counters;
  const std::vector<sim::SimNanos> busy = core_busy(sw);
  sim::SimNanos total_busy = 0;
  sim::SimNanos max_busy = 0;
  for (std::size_t core = 0; core < busy.size(); ++core) {
    const sim::SimNanos delta = busy[core] - mark.core_busy_ns[core];
    total_busy += delta;
    max_busy = std::max(max_busy, delta);
  }
  const std::uint64_t packets = now.pipeline_runs - then.pipeline_runs;
  const std::uint64_t hits = now.cache_hits - then.cache_hits;
  const std::uint64_t lookups = hits + (now.cache_misses - then.cache_misses);
  const double mean_busy = static_cast<double>(total_busy) / static_cast<double>(busy.size());
  for (const std::string prefix : prefixes) {
    model.set(prefix + "_busy_ns", static_cast<std::int64_t>(total_busy));
    model.set(prefix + "_core_busy_max_ns", static_cast<std::int64_t>(max_busy));
    model.set(prefix + "_core_busy_mean_ns", mean_busy);
    model.set(prefix + "_packets", packets);
    model.set(prefix + "_cache_hits", hits);
    model.set(prefix + "_cache_lookups", lookups);
  }
  std::uint64_t queue_peak = 0;
  std::uint64_t queue_depth = 0;
  for (std::size_t port = 0; port < sw.port_count(); ++port) {
    queue_peak = std::max<std::uint64_t>(queue_peak, sw.port_queue_peak_depth(port));
    queue_depth += sw.port_queue_depth(port);
  }
  sums["all_packets"] += packets;
  sums["all_bursts"] += now.service_bursts - then.service_bursts;
  sums["cache_hits"] += hits;
  sums["cache_lookups"] += lookups;
  sums["tier2_lookups"] += megaflow_lookups(sw) - mark.tier2_lookups;
  sums["subtable_probes"] += now.cache_subtable_probes - then.cache_subtable_probes;
  sums["subtables"] += now.cache_subtables;
  sums["evictions"] += now.cache_evictions - then.cache_evictions;
  sums["invalidations"] += now.cache_invalidations - then.cache_invalidations;
  sums["flow_mods"] += now.flow_mods - then.flow_mods;
  sums["sw_packet_ins"] += now.packet_ins - then.packet_ins;
  sums["rxq_drops"] += sw.queue_drops() - mark.queue_drops;
  sums["rxq_depth"] += queue_depth;
  sums["drops_no_match"] += now.drops_no_match - then.drops_no_match;
  sums["drops_port_down"] += now.drops_port_down - then.drops_port_down;
  sums["ct_lookups"] += now.ct_lookups - then.ct_lookups;
  sums["ct_hits"] += now.ct_hits - then.ct_hits;
  sums["ct_created"] += now.ct_created - then.ct_created;
  sums["ct_expired"] += now.ct_expired - then.ct_expired;
  sums["ct_invalid"] += now.ct_invalid - then.ct_invalid;
  sums["ct_nat_failures"] += now.ct_nat_failures - then.ct_nat_failures;
  // Peak over the whole run: the port queues keep no windowed peak.
  sums["rxq_peak"] = std::max(sums["rxq_peak"], queue_peak);
}

std::uint64_t in_flight(const openflow::ControlChannel& channel) {
  const auto pending = [](const openflow::ControlChannel::DirectionStats& d) {
    return d.sent - d.delivered - d.dropped_down - d.dropped_loss - d.dropped_no_handler;
  };
  return pending(channel.to_controller()) + pending(channel.to_switch());
}

std::uint64_t peak_queue_depth(const sim::ServicedNode& node) {
  std::uint64_t peak = 0;
  for (std::size_t port = 0; port < node.port_count(); ++port)
    peak = std::max<std::uint64_t>(peak, node.port_queue_peak_depth(port));
  return peak;
}

std::int64_t peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // Linux reports KiB
}

SpeedProbe::SpeedProbe() {
  std::mt19937_64 rng(0x5eed);
  flows_.reserve(kFlows);
  while (flows_.size() < kFlows) {
    const std::uint64_t key = rng();
    if (flows_.emplace(key, static_cast<std::uint32_t>(keys_.size())).second)
      keys_.push_back(key);
  }
  for (std::uint32_t slot = 0; slot < 512; ++slot) queue_.emplace(rng() % 100'000, slot);
}

void SpeedProbe::events(int count) {
  for (int i = 0; i < count; ++i, ++step_) {
    const auto [at, slot] = queue_.top();
    queue_.pop();
    const auto flow = flows_.find(keys_[(slot * 2654435761u + step_) % keys_.size()]);
    const std::size_t length = 64 + (flow->second % 3) * 700;
    const auto frame = std::make_unique<std::uint8_t[]>(length);
    std::memset(frame.get(), static_cast<int>(step_), length);
    sink_ += frame[length / 2] + flow->second;
    sink_ = (sink_ & 1) ? sink_ + 3 : sink_ ^ 5;
    queue_.emplace(at + 1 + sink_ % 1000, slot);
  }
}

void SpeedProbe::sample() {
  events(kEvents / 4);
  const std::int64_t start = wall_ns();
  events(kEvents);
  samples_.push_back(static_cast<double>(wall_ns() - start));
}

Window::Window(sim::Network& network, std::vector<BenchHost*> hosts, Tracer& tracer,
               SpeedProbe& probe, std::int64_t workload_start_ns)
    : network_(network),
      hosts_(std::move(hosts)),
      tracer_(tracer),
      probe_(probe),
      workload_start_ns_(workload_start_ns) {}

namespace {

/// Model fields only some workloads produce.
constexpr const char* kOptionalKeys[] = {
    "trunk_busy_ns",    "legacy_busy_ns",     "legacy_flooded",     "ss1_busy_ns",
    "ss1_packets",      "ss1_cache_hits",     "ss1_cache_lookups",  "ss2_busy_ns",
    "ss2_packets",      "channel_msgs",       "channel_in_flight",  "packet_ins",
    "flows_installed",  "ct_live_peak",       "ct_live_min",        "repl_deltas",
    "repl_batches",     "snat_leaks",
};

/// Sum of `Channel` drops / queue depths over every cable of a network.
struct LinkTotals {
  std::uint64_t drops = 0;
  std::uint64_t queued = 0;
};

LinkTotals link_totals(const sim::Network& network) {
  LinkTotals totals;
  for (const auto& channel : network.channels()) {
    totals.drops += channel->drops();
    totals.queued += channel->queue_depth();
  }
  return totals;
}

std::uint64_t host_tx(const std::vector<BenchHost*>& hosts) {
  std::uint64_t sent = 0;
  for (const BenchHost* host : hosts) sent += host->counters().tx_total;
  return sent;
}

}  // namespace

void Window::open() {
  for (BenchHost* host : hosts_) host->set_recorder(&recorder_);
  events_ = network_.engine().events_dispatched();
  frame_copies_ = net::Packet::frame_copies();
  host_tx_ = host_tx(hosts_);
  link_drops_ = link_totals(network_).drops;
  for (std::size_t i = 0; i < static_cast<std::size_t>(SpanName::kCount); ++i)
    spans_at_open_[i] = tracer_.totals(static_cast<SpanName>(i));
  tracer_.clear_records();
  setup_ns_ = wall_ns() - workload_start_ns_;
}

void Window::run(sim::SimNanos traffic_end, sim::SimNanos drain_end) {
  std::int64_t traffic_ns = 0;
  const auto timed = [&](sim::SimNanos until) {
    const std::int64_t start = wall_ns();
    {
      Span span(tracer_, SpanName::kRun);
      network_.run_until(until);
    }
    const std::int64_t elapsed = wall_ns() - start;
    traffic_ns += elapsed;
    return elapsed;
  };
  const sim::SimNanos from = network_.engine().now();
  for (int slice = 1; slice <= kSlices; ++slice) {
    probe_.sample();
    const std::uint64_t delivered = recorder_.completed();
    const std::int64_t elapsed = timed(from + (traffic_end - from) * slice / kSlices);
    slice_pps_.push_back(static_cast<double>(recorder_.completed() - delivered) * 1e9 /
                         static_cast<double>(elapsed > 0 ? elapsed : 1));
  }
  timed(drain_end);
  probe_.sample();
  traffic_ns_ = traffic_ns;
}

void Window::close(Report& report, const Sums& sums, const PeakSampler& sampler) {
  Fields& model = report.model;
  const LinkTotals links = link_totals(network_);
  const auto sum = [&sums](const char* key) {
    const auto it = sums.find(key);
    return it == sums.end() ? std::uint64_t{0} : it->second;
  };
  model.set("offered", host_tx(hosts_) - host_tx_);
  model.set("delivered", recorder_.completed());
  model.set("in_flight", sum("rxq_depth") + sum("channel_in_flight") + links.queued);
  model.set("window_ns",
            static_cast<std::int64_t>(recorder_.last_received() - recorder_.first_sent()));
  model.set("latency_samples", static_cast<std::uint64_t>(recorder_.latency().count()));
  model.set("latency_p50_ns", recorder_.latency().p50());
  model.set("latency_p99_ns", recorder_.latency().p99());
  model.set("proc_p50_ns", recorder_.processing().p50());
  model.set("events", network_.engine().events_dispatched() - events_);
  model.set("pending_peak", sampler.pending_peak());
  model.set("link_drops", links.drops - link_drops_);
  model.set("frame_copies", net::Packet::frame_copies() - frame_copies_);
  model.set("pool_buffers", static_cast<std::uint64_t>(net::FramePool::pooled()));
  for (const auto& [key, value] : sums) model.set(key, value);
  // Layers a workload does not have report zero.
  for (const char* key : kOptionalKeys)
    if (!model.has(key)) model.set(key, std::uint64_t{0});
  report.drops.set("sim.link", links.drops - link_drops_);
  report.drops.set("sim.rxq", sum("rxq_drops"));
  report.drops.set("softswitch.port_down", sum("drops_port_down"));

  report.host.set("setup_s", static_cast<double>(setup_ns_) * 1e-9);
  report.host.set("traffic_s", static_cast<double>(traffic_ns_) * 1e-9);
  report.host.set("slice_pps", slice_pps_);
  report.host.set("probe_ns", probe_.samples());
  report.host.set("peak_rss_kib", peak_rss_kib());
  // Set-up spans report their whole time; the others only what fell
  // inside the measured window (warm-up traffic stays out).
  if (tracer_.enabled()) {
    for (std::size_t i = 0; i < static_cast<std::size_t>(SpanName::kCount); ++i) {
      const auto name = static_cast<SpanName>(i);
      Tracer::Totals totals = tracer_.totals(name);
      if (name != SpanName::kMigrate && name != SpanName::kConnect &&
          name != SpanName::kCtPreload) {
        totals.count -= spans_at_open_[i].count;
        totals.total_ns -= spans_at_open_[i].total_ns;
        totals.self_ns -= spans_at_open_[i].self_ns;
      }
      report.host.set(std::string(kSpanNames[i]) + ".count", totals.count);
      report.host.set(std::string(kSpanNames[i]) + ".total_ns", totals.total_ns);
      report.host.set(std::string(kSpanNames[i]) + ".self_ns", totals.self_ns);
    }
  }
}

void Arrivals::start(sim::SimNanos from, sim::SimNanos until) {
  at_ns_ = static_cast<double>(from) + rng_.exponential(mean_gap_ns_);
  until_ = until;
  if (at_ns_ < static_cast<double>(until_))
    engine_.schedule_at(static_cast<sim::SimNanos>(at_ns_), [this] { next(); });
}

void Arrivals::next() {
  fire_(rng_);
  at_ns_ += rng_.exponential(mean_gap_ns_);
  if (at_ns_ < static_cast<double>(until_))
    engine_.schedule_at(static_cast<sim::SimNanos>(at_ns_), [this] { next(); });
}

void PeakSampler::start(sim::SimNanos from, sim::SimNanos until) {
  engine_.schedule_at(from, [this, until] { sample(until); });
}

void PeakSampler::sample(sim::SimNanos until) {
  pending_peak_ = std::max<std::uint64_t>(pending_peak_, engine_.pending());
  if (gauge_) {
    const std::uint64_t value = gauge_();
    gauge_peak_ = std::max(gauge_peak_, value);
    gauge_min_ = std::min(gauge_min_, value);
  }
  if (engine_.now() + period_ <= until)
    engine_.schedule_after(period_, [this, until] { sample(until); });
}

}  // namespace perfbench
