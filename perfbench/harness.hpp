// perfbench/harness.hpp — shared pieces of the benchmark workloads.
//
// Everything here lives outside the simulator: layers are timed from
// the outside, around calls into their public or overridable entry
// points (Host::handle, LegacySwitch::service, SoftSwitch::service /
// service_burst, LearningSwitchApp::on_packet_in), plus the generator
// closures and the set-up steps the workloads drive themselves.
//
//   * Tracer — in-memory spans (name, start, end, parent) with self
//     time (duration minus the time child spans cover) accumulated per
//     name. Disabled, every span is one predictable branch; enabled, it
//     only reads the host clock, so the simulated model is untouched.
//   * Bench* / Traced* — subclasses that wrap those entry points.
//   * Report — the raw numbers one workload run prints as JSON; run.py
//     derives the metrics from them.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <limits>
#include <map>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "controller/apps/learning.hpp"
#include "legacy/legacy_switch.hpp"
#include "sim/host.hpp"
#include "sim/network.hpp"
#include "sim/recorder.hpp"
#include "softswitch/soft_switch.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace harmless;

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// "<prefix><n>" (node names).
inline std::string numbered(const char* prefix, int n) {
  std::string name(prefix);
  name += std::to_string(n);
  return name;
}

/// Span names. Metric names in run.py refer to these strings.
enum class SpanName : std::uint8_t {
  kRun,          // the measured engine run (root; its self time is sim.other)
  kHostRx,       // sim::Host::handle
  kHostTx,       // sim::Host::send from a generator or a reacting host
  kNetGen,       // frame build/stamp in a generator
  kLegacy,       // legacy::LegacySwitch::service
  kSoftSwitch,   // softswitch::SoftSwitch::service / service_burst
  kPacketIn,     // LearningSwitchApp::on_packet_in
  kMigrate,      // HarmlessManager::migrate (set-up)
  kConnect,      // controller handshake + initial programming (set-up)
  kCtPreload,    // conntrack table build (set-up)
  kCount,
};

inline constexpr const char* kSpanNames[] = {
    "sim.run",         "sim.host.rx",        "sim.host.tx",          "net.gen",
    "legacy.service",  "softswitch.service", "controller.packet_in", "harmless.migrate",
    "controller.connect", "openflow.ct.preload",
};
static_assert(sizeof(kSpanNames) / sizeof(kSpanNames[0]) ==
              static_cast<std::size_t>(SpanName::kCount));

class Tracer {
 public:
  /// Completed span records kept in memory for write_spans(), counted
  /// from the last clear_records(); per-name totals cover every span.
  static constexpr std::size_t kKeptRecords = 1 << 16;

  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) records_.reserve(kKeptRecords);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }

  void begin(SpanName name) {
    stack_.push_back(Open{name, ++next_id_, wall_ns(), 0, false});
  }

  void end() {
    const std::int64_t stop = wall_ns();
    const Open open = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = stop - open.start;
    Totals& totals = totals_[static_cast<std::size_t>(open.name)];
    ++totals.count;
    totals.total_ns += duration;
    totals.self_ns += duration - open.child_ns;
    const std::uint32_t parent = stack_.empty() ? 0 : stack_.back().id;
    if (!stack_.empty()) stack_.back().child_ns += duration;
    // A span whose child was kept is kept too, so every kept record's
    // parent is in the dump.
    if (records_.size() < kKeptRecords || open.kept_child) {
      records_.push_back(Record{open.id, parent, open.name, open.start, stop});
      if (!stack_.empty()) stack_.back().kept_child = true;
    }
  }

  /// Drops the kept records (totals stay): the dump starts afresh here.
  void clear_records() { records_.clear(); }

  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  [[nodiscard]] const Totals& totals(SpanName name) const {
    return totals_[static_cast<std::size_t>(name)];
  }

  /// Kept span records as JSON lines: {"id","parent","name","start_ns","end_ns"}.
  bool write_spans(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (const Record& r : records_)
      std::fprintf(out, "{\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   r.id, r.parent, kSpanNames[static_cast<std::size_t>(r.name)],
                   static_cast<long long>(r.start), static_cast<long long>(r.end));
    return std::fclose(out) == 0;
  }

 private:
  struct Open {
    SpanName name;
    std::uint32_t id;
    std::int64_t start;
    std::int64_t child_ns;
    bool kept_child;
  };
  struct Record {
    std::uint32_t id;
    std::uint32_t parent;
    SpanName name;
    std::int64_t start;
    std::int64_t end;
  };

  bool enabled_;
  std::uint32_t next_id_ = 0;
  std::vector<Open> stack_;
  std::vector<Record> records_;
  Totals totals_[static_cast<std::size_t>(SpanName::kCount)];
};

/// RAII span; a no-op when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, SpanName name) : tracer_(tracer.enabled() ? &tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->begin(name);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

// ---- traced nodes -----------------------------------------------------

/// A host whose receive path and generator-side sends are spanned.
class BenchHost : public sim::Host {
 public:
  BenchHost(sim::Engine& engine, std::string name, net::MacAddr mac, net::Ipv4Addr ip,
            Tracer& tracer)
      : sim::Host(engine, std::move(name), mac, ip), tracer_(tracer) {}

  void handle(int in_port, net::Packet&& packet) override {
    Span span(tracer_, SpanName::kHostRx);
    sim::Host::handle(in_port, std::move(packet));
  }

  /// Host::send under a sim.host.tx span.
  void transmit(net::Packet&& packet) {
    Span span(tracer_, SpanName::kHostTx);
    send(std::move(packet));
  }

 private:
  Tracer& tracer_;
};

class TracedLegacySwitch : public legacy::LegacySwitch {
 public:
  TracedLegacySwitch(sim::Engine& engine, std::string name, legacy::SwitchConfig config,
                     Tracer& tracer)
      : legacy::LegacySwitch(engine, std::move(name), std::move(config)), tracer_(tracer) {}

 protected:
  sim::SimNanos service(int in_port, net::Packet&& packet) override {
    Span span(tracer_, SpanName::kLegacy);
    return legacy::LegacySwitch::service(in_port, std::move(packet));
  }

 private:
  Tracer& tracer_;
};

class TracedSoftSwitch : public softswitch::SoftSwitch {
 public:
  TracedSoftSwitch(sim::Engine& engine, std::string name, Tracer& tracer,
                   std::uint64_t datapath_id, std::size_t of_port_count,
                   const sim::IngressSpec& ingress = {})
      : softswitch::SoftSwitch(engine, std::move(name), datapath_id, of_port_count, 2, true,
                               true, 32, ingress),
        tracer_(tracer) {}

 protected:
  sim::SimNanos service(int in_port, net::Packet&& packet) override {
    Span span(tracer_, SpanName::kSoftSwitch);
    return softswitch::SoftSwitch::service(in_port, std::move(packet));
  }
  sim::SimNanos service_burst(sim::ServicedNode::Burst&& burst) override {
    Span span(tracer_, SpanName::kSoftSwitch);
    return softswitch::SoftSwitch::service_burst(std::move(burst));
  }

 private:
  Tracer& tracer_;
};

class TracedLearningApp : public controller::LearningSwitchApp {
 public:
  TracedLearningApp(Tracer& tracer, std::uint8_t table, sim::SimNanos idle_timeout)
      : controller::LearningSwitchApp(table, idle_timeout), tracer_(tracer) {}

  void on_packet_in(controller::Session& session, const openflow::PacketInMsg& event) override {
    Span span(tracer_, SpanName::kPacketIn);
    controller::LearningSwitchApp::on_packet_in(session, event);
  }

 private:
  Tracer& tracer_;
};

// ---- what one workload run reports -------------------------------------

/// Ordered name -> number pairs, printed as a JSON object. Integers stay
/// exact; doubles print with every significant digit.
class Fields {
 public:
  void set(const std::string& key, std::uint64_t value) {
    items_.emplace_back(key, std::to_string(value));
  }
  void set(const std::string& key, std::int64_t value) {
    items_.emplace_back(key, std::to_string(value));
  }
  void set(const std::string& key, double value) {
    char text[40];
    std::snprintf(text, sizeof(text), "%.17g", value);
    items_.emplace_back(key, text);
  }
  void set(const std::string& key, const std::vector<double>& values) {
    std::string text = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      char item[40];
      std::snprintf(item, sizeof(item), "%s%.17g", i ? ", " : "", values[i]);
      text += item;
    }
    items_.emplace_back(key, text + "]");
  }
  [[nodiscard]] bool has(const std::string& key) const {
    for (const auto& item : items_)
      if (item.first == key) return true;
    return false;
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i)
      out += (i ? ", \"" : "\"") + items_[i].first + "\": " + items_[i].second;
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

/// Raw results of one workload run.
///   host   — host-clock numbers (vary run to run)
///   model  — simulated-time numbers and counts (must repeat exactly
///            for one seed, traced or not)
///   drops  — the packet ledger's named drop counters (also exact)
struct Report {
  Fields host;
  Fields model;
  Fields drops;
};

/// One soft switch at the start of the measured window, so the report
/// can take deltas (set-up traffic stays out of the numbers).
struct SwitchMark {
  softswitch::SoftSwitch::Counters counters;
  std::vector<sim::SimNanos> core_busy_ns;
  std::uint64_t queue_drops = 0;
  std::uint64_t tier2_lookups = 0;  // lookups that reached the megaflow tier

  static SwitchMark take(const softswitch::SoftSwitch& sw);
};

/// Counts summed over every soft switch (and queue) of a workload.
using Sums = std::map<std::string, std::uint64_t>;

/// Adds one soft switch's window deltas to the workload's totals: the
/// per-switch fields (<prefix>_busy_ns, _core_busy_max_ns,
/// _core_busy_mean_ns, _packets, _cache_hits, _cache_lookups) under
/// each prefix, and the shared sums (all_packets, cache_*, ct_*, rxq_*,
/// ...) once.
void add_switch(Fields& model, Sums& sums, const softswitch::SoftSwitch& sw,
                const SwitchMark& mark, std::initializer_list<const char*> prefixes);

/// Control messages sent but neither delivered nor dropped yet.
std::uint64_t in_flight(const openflow::ControlChannel& channel);

/// Deepest port queue of any serviced node (whole run).
std::uint64_t peak_queue_depth(const sim::ServicedNode& node);

/// Peak resident set of this process, KiB.
std::int64_t peak_rss_kib();

/// Samples the engine backlog (and an optional gauge) every `period`
/// of simulated time over [from, until], keeping the peaks (and the
/// gauge's minimum). Its events are part of the model, so traced and
/// untraced runs see the same.
class PeakSampler {
 public:
  PeakSampler(sim::Engine& engine, sim::SimNanos period, std::function<std::uint64_t()> gauge = {})
      : engine_(engine), period_(period), gauge_(std::move(gauge)) {}
  void start(sim::SimNanos from, sim::SimNanos until);
  [[nodiscard]] std::uint64_t pending_peak() const { return pending_peak_; }
  [[nodiscard]] std::uint64_t gauge_peak() const { return gauge_peak_; }
  [[nodiscard]] std::uint64_t gauge_min() const { return gauge_min_; }

 private:
  void sample(sim::SimNanos until);
  sim::Engine& engine_;
  sim::SimNanos period_;
  std::function<std::uint64_t()> gauge_;
  std::uint64_t pending_peak_ = 0;
  std::uint64_t gauge_peak_ = 0;
  std::uint64_t gauge_min_ = std::numeric_limits<std::uint64_t>::max();
};

/// A fixed reference workload: a small discrete-event loop (a binary
/// heap of pending events; per event one hash lookup among kFlows flow
/// keys and one frame buffer allocated, filled and freed). It is
/// benchmark code that shares nothing with the simulator, but does the
/// same kind of work, so on a shared host it slows down with the
/// simulator when other tenants contend for the CPU and its caches.
/// Each sample first runs a quarter-length untimed pass, which brings
/// the loop's own state (about 0.5 MiB) back into cache whatever the
/// simulator left there, then times kEvents events. run.py divides host
/// times by (probe time / its nominal time) so runs taken in busy and
/// quiet periods compare. Raw host times are reported too.
class SpeedProbe {
 public:
  static constexpr std::uint32_t kFlows = 1u << 13;
  static constexpr int kEvents = 50'000;

  SpeedProbe();
  /// Time one probe pass (ns) and keep it.
  void sample();
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  using Event = std::pair<std::uint64_t, std::uint32_t>;  // (time, flow slot)
  void events(int count);

  std::unordered_map<std::uint64_t, std::uint32_t> flows_;
  std::vector<std::uint64_t> keys_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::vector<double> samples_;
  std::uint64_t step_ = 0;
  std::uint64_t sink_ = 0;  // keeps the loop's results observable
};

/// Open-loop Poisson arrivals in simulated time: `fire` runs at every
/// arrival in [from, until), whatever the network does with the load.
class Arrivals {
 public:
  Arrivals(sim::Engine& engine, std::uint64_t seed, double rate_per_s,
           std::function<void(util::Rng&)> fire)
      : engine_(engine), rng_(seed), mean_gap_ns_(1e9 / rate_per_s), fire_(std::move(fire)) {}
  void start(sim::SimNanos from, sim::SimNanos until);

 private:
  void next();
  sim::Engine& engine_;
  util::Rng rng_;
  double mean_gap_ns_;
  std::function<void(util::Rng&)> fire_;
  double at_ns_ = 0;
  sim::SimNanos until_ = 0;
};

/// The measured window shared by every workload: one latency recorder
/// on every host, engine/frame/link/host counters snapshotted at
/// open(), and the common report fields written at close().
class Window {
 public:
  static constexpr int kSlices = 10;

  Window(sim::Network& network, std::vector<BenchHost*> hosts, Tracer& tracer,
         SpeedProbe& probe, std::int64_t workload_start_ns);

  /// Attach the recorder, snapshot the counters, restart the span dump
  /// (it then covers the measured window), and stop the set-up clock.
  void open();
  /// Run the engine: the traffic up to `traffic_end` in kSlices equal
  /// slices of simulated time (each slice's delivered packets per host
  /// second is kept, and the speed probe is sampled before each), then
  /// the drain up to `drain_end`. Each slice and the drain is one root
  /// span.
  void run(sim::SimNanos traffic_end, sim::SimNanos drain_end);
  /// offered/delivered/latency/engine/link/frame fields, the sums of the
  /// workload's soft switches, and the host-clock fields.
  void close(Report& report, const Sums& sums, const PeakSampler& sampler);

 private:
  sim::Network& network_;
  std::vector<BenchHost*> hosts_;
  Tracer& tracer_;
  SpeedProbe& probe_;
  sim::LatencyRecorder recorder_;
  std::int64_t workload_start_ns_;
  std::int64_t setup_ns_ = 0;
  std::int64_t traffic_ns_ = 0;
  std::vector<double> slice_pps_;
  Tracer::Totals spans_at_open_[static_cast<std::size_t>(SpanName::kCount)];
  std::uint64_t events_ = 0;
  std::uint64_t frame_copies_ = 0;
  std::uint64_t host_tx_ = 0;
  std::uint64_t link_drops_ = 0;
};

/// Per-workload entry points (one translation unit each).
struct Options {
  std::uint64_t seed = 1;
  Tracer* tracer = nullptr;
  SpeedProbe* probe = nullptr;
};
Report run_hairpin_l2(const Options& options);
Report run_flow_churn(const Options& options);
Report run_stateful_gw(const Options& options);

}  // namespace perfbench
