// stateful_gw — connection state.
//
// A native 4-core soft switch with symmetric RSS and conntrack on.
// Rules installed directly give SNAT for inside->outside traffic and a
// VIP share DNATed to backends (the load-balancer use case). Set-up
// builds a live table of kPreload established connections, committed
// in slices over three measured windows and timed to expire in the
// same slices: the first third expires evenly across the measured
// window, so the table holds between 2/3 and all of kPreload
// throughout. Every conntrack delta is replicated to a standby switch
// over a fault-free ReplicationChannel.
//
// Traffic: TCP connections open (SYN, ACK), carry a few data segments
// and close (FIN) at kConnectionsPerSecond, open-loop, beside
// kLongLived established SNAT connections that send every
// kLongLivedGapNs. Data segments carry 16-1024 bytes.
// Servers and backends answer every SYN, data segment and FIN. Closed
// and unanswered connections expire after the short transient timeout.
// The rates and shares are synthetic picks: enough conntrack work on
// every layer, with headroom on the 4-core switch.
//
// The DNAT share stays in on purpose: DNAT replies are not steered back
// to the committing shard, so on four cores most of them reach a shard
// with no entry and are dropped (SYN-ACKs classify NEW and hit the
// default deny, later segments classify INVALID). The ledger names both.
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "softswitch/replication.hpp"

namespace perfbench {

namespace {

constexpr int kClients = 16;
constexpr int kServers = 8;
constexpr int kBackends = 4;
constexpr int kPorts = kClients + kServers + kBackends;
constexpr std::size_t kCores = 4;
constexpr std::size_t kPreload = 100'000;
constexpr int kPreloadSlices = 200;
constexpr int kLongLived = 128;
constexpr sim::SimNanos kLongLivedGapNs = 200'000;
constexpr double kConnectionsPerSecond = 100'000;
constexpr double kDnatShare = 0.2;
constexpr sim::SimNanos kSegmentGapNs = 20'000;
constexpr sim::SimNanos kTransientTimeoutNs = 4'000'000;
constexpr sim::SimNanos kWarmupNs = 5'000'000;
constexpr sim::SimNanos kTrafficNs = 150'000'000;
constexpr sim::SimNanos kDrainNs = 2'000'000;
// The preload is committed over kPreloadSpanNs, then warm-up and drain
// follow; a slice committed at preload start + x expires at t0 + x.
constexpr sim::SimNanos kPreloadSpanNs = 3 * kTrafficNs;
constexpr sim::SimNanos kEstablishedTimeoutNs = kPreloadSpanNs + kWarmupNs + kDrainNs;
constexpr std::uint64_t kInvalidCookie = 0xD1;
constexpr std::uint64_t kDenyCookie = 0xDE;
constexpr std::uint8_t kTcp = 6;

const net::Ipv4Addr kExternal(203, 0, 113, 1);
const net::Ipv4Addr kVip(203, 0, 113, 80);

enum Segment : std::size_t { kSyn, kAck, kData, kFin, kSegments };
constexpr std::uint8_t kSegmentFlags[] = {net::kTcpSyn, net::kTcpAck, net::kTcpPsh | net::kTcpAck,
                                          net::kTcpFin | net::kTcpAck};

void install_rules(softswitch::SoftSwitch& sw, const std::vector<BenchHost*>& hosts) {
  const auto add = [&sw](std::uint8_t table, std::uint16_t priority, openflow::Match match,
                         openflow::Instructions instructions, std::uint64_t cookie = 0) {
    openflow::FlowModMsg mod;
    mod.table_id = table;
    mod.priority = priority;
    mod.cookie = cookie;
    mod.match = std::move(match);
    mod.instructions = std::move(instructions);
    sw.install(mod).check();
  };
  const auto tcp = [] { return openflow::Match().eth_type(0x0800).ip_proto(kTcp); };
  add(0, 300, openflow::Match().ct_invalid(), {}, kInvalidCookie);
  for (int i = 0; i < kClients; ++i) {
    const auto port = static_cast<std::uint32_t>(i + 1);
    const BenchHost& backend = *hosts[static_cast<std::size_t>(kClients + kServers + i % kBackends)];
    add(0, 200, tcp().in_port(port).ip_dst(kVip),
        openflow::apply({openflow::ct_dnat(backend.ip(), 80), openflow::set_eth_dst(backend.mac()),
                         openflow::output(static_cast<std::uint32_t>(kClients + kServers +
                                                                     i % kBackends + 1))}));
    add(0, 100, tcp().in_port(port),
        openflow::apply_then_goto({openflow::ct_snat(kExternal, 1024, 65535)}, 1));
  }
  for (int p = kClients; p < kPorts; ++p)
    add(0, 100, tcp().in_port(static_cast<std::uint32_t>(p + 1)).ct_established(),
        openflow::apply_then_goto({openflow::ct_commit()}, 1));
  add(0, 0, openflow::Match(), {}, kDenyCookie);
  for (int p = 0; p < kPorts; ++p)
    add(1, 10, openflow::Match().eth_dst(hosts[static_cast<std::size_t>(p)]->mac()),
        openflow::apply({openflow::output(static_cast<std::uint32_t>(p + 1))}));
  add(1, 0, openflow::Match(), {}, kDenyCookie);
}

/// Packets matched so far by the rules carrying `cookie`.
std::uint64_t rule_packets(const softswitch::SoftSwitch& sw, std::uint64_t cookie) {
  std::uint64_t packets = 0;
  for (std::size_t table = 0; table < 2; ++table)
    for (const openflow::FlowEntry* entry : sw.pipeline().table(table).entries())
      if (entry->cookie == cookie) packets += entry->packet_count;
  return packets;
}

struct Gateway {
  sim::Engine& engine;
  Tracer& tracer;
  std::vector<BenchHost*>& hosts;
  // templates[(client * kTargets + target) * kSegments + segment]; the
  // targets are the servers, then the VIP.
  static constexpr int kTargets = kServers + 1;
  struct Connection {
    int client;
    int target;
    std::uint16_t sport;
    std::uint16_t dport;
  };
  std::vector<net::FlowKey> keys;  // [client * kTargets + target], ports unset
  std::vector<net::TcpTemplate> templates;
  util::Rng payloads;  // long-lived data sizes
  std::vector<std::uint16_t> next_port = std::vector<std::uint16_t>(kClients, 20000);

  void build_templates() {
    for (int c = 0; c < kClients; ++c) {
      for (int t = 0; t < kTargets; ++t) {
        net::FlowKey key;
        key.eth_src = hosts[static_cast<std::size_t>(c)]->mac();
        key.ip_src = hosts[static_cast<std::size_t>(c)]->ip();
        if (t < kServers) {
          key.eth_dst = hosts[static_cast<std::size_t>(kClients + t)]->mac();
          key.ip_dst = hosts[static_cast<std::size_t>(kClients + t)]->ip();
        } else {
          key.eth_dst = net::MacAddr::from_u64(0x02000000ff01ULL);  // the gateway
          key.ip_dst = kVip;
        }
        keys.push_back(key);
        for (std::size_t s = 0; s < kSegments; ++s) templates.emplace_back(key, kSegmentFlags[s]);
      }
    }
  }

  /// One client segment; data segments carry `payload` bytes.
  void send(const Connection& c, Segment segment, std::size_t payload = 0) {
    net::Packet packet = [&] {
      Span span(tracer, SpanName::kNetGen);
      if (segment == kData) {
        net::FlowKey key = keys[static_cast<std::size_t>(c.client * kTargets + c.target)];
        key.src_port = c.sport;
        key.dst_port = c.dport;
        return net::make_tcp(key, kSegmentFlags[kData], std::string(payload, 'x'));
      }
      return templates[static_cast<std::size_t>((c.client * kTargets + c.target) * kSegments +
                                                segment)]
          .stamp(c.sport, c.dport);
    }();
    hosts[static_cast<std::size_t>(c.client)]->transmit(std::move(packet));
  }

  /// Picks a client, a target and a fresh source port.
  Connection pick(util::Rng& draw, double dnat_share) {
    Connection c{};
    c.client = static_cast<int>(draw.below(kClients));
    c.target = draw.chance(dnat_share) ? kServers : static_cast<int>(draw.below(kServers));
    c.dport = c.target == kServers ? 80 : (draw.chance(0.5) ? 80 : 443);
    std::uint16_t& port = next_port[static_cast<std::size_t>(c.client)];
    c.sport = port;
    port = static_cast<std::uint16_t>(port == 59999 ? 20000 : port + 1);
    return c;
  }

  /// One short connection: SYN, ACK, 1-8 data segments of 16-1024
  /// bytes, FIN.
  void open_and_close(util::Rng& draw) {
    const Connection c = pick(draw, kDnatShare);
    const auto data = static_cast<int>(1 + draw.below(8));
    schedule(c, kSyn, 0);
    schedule(c, kAck, kSegmentGapNs);
    for (int d = 0; d < data; ++d)
      schedule(c, kData, (2 + d) * kSegmentGapNs, payload_size(draw));
    schedule(c, kFin, (2 + data) * kSegmentGapNs);
  }

  static std::size_t payload_size(util::Rng& draw) { return 16 + draw.below(1009); }

  void schedule(const Connection& c, Segment segment, sim::SimNanos after,
                std::size_t payload = 0) {
    engine.schedule_after(after, [this, c, segment, payload] { send(c, segment, payload); });
  }

  /// A long-lived SNAT connection: handshake now, then a data segment
  /// every kLongLivedGapNs until `until`.
  void long_lived(util::Rng& draw, sim::SimNanos until) {
    const Connection c = pick(draw, 0.0);
    schedule(c, kSyn, 0);
    schedule(c, kAck, kSegmentGapNs);
    const auto phase = static_cast<sim::SimNanos>(draw.below(kLongLivedGapNs));
    engine.schedule_after(2 * kSegmentGapNs + phase, [this, c, until] { keep_alive(c, until); });
  }

  void keep_alive(const Connection& c, sim::SimNanos until) {
    send(c, kData, payload_size(payloads));
    if (engine.now() + kLongLivedGapNs < until)
      engine.schedule_after(kLongLivedGapNs, [this, c, until] { keep_alive(c, until); });
  }
};

/// Servers and backends answer SYN, data and FIN; outside servers also
/// check that no private source address leaked past SNAT.
void serve(BenchHost& host, Tracer& tracer, bool outside, std::uint64_t& leaks) {
  host.set_on_receive([&host, &tracer, outside, &leaks](const net::Packet&,
                                                        const net::ParsedPacket& parsed) {
    if (!parsed.ipv4 || !parsed.tcp || parsed.ipv4->dst != host.ip()) return;
    if (outside && (parsed.ipv4->src.value() >> 24) == 10) ++leaks;
    const std::uint8_t flags = parsed.tcp->flags;
    std::uint8_t reply = 0;
    if (flags == net::kTcpSyn)
      reply = net::kTcpSyn | net::kTcpAck;
    else if (flags & net::kTcpFin)
      reply = net::kTcpFin | net::kTcpAck;
    else if (flags & net::kTcpPsh)
      reply = net::kTcpPsh | net::kTcpAck;
    if (reply == 0) return;
    net::FlowKey key;
    key.eth_src = host.mac();
    key.eth_dst = parsed.eth_src;
    key.ip_src = host.ip();
    key.ip_dst = parsed.ipv4->src;
    key.src_port = parsed.tcp->dst_port;
    key.dst_port = parsed.tcp->src_port;
    net::Packet packet = [&] {
      Span span(tracer, SpanName::kNetGen);
      return net::make_tcp(key, reply, reply & net::kTcpPsh ? "response" : "");
    }();
    host.transmit(std::move(packet));
  });
}

/// Commits kPreload established SNAT connections straight into their
/// owning shards, in slices spread evenly over kPreloadSpanNs.
void preload(softswitch::SoftSwitch& sw, sim::Engine& engine, sim::SimNanos from) {
  const auto snat = std::get<openflow::CtAction>(openflow::ct_snat(kExternal, 1024, 65535));
  const openflow::CtAction plain{};
  constexpr std::size_t kPerSlice = kPreload / kPreloadSlices;
  for (int slice = 0; slice < kPreloadSlices; ++slice) {
    const sim::SimNanos at = from + slice * (kPreloadSpanNs / kPreloadSlices);
    engine.schedule_at(at, [&sw, &engine, snat, plain, slice] {
      for (std::size_t k = slice * kPerSlice; k < (slice + 1) * kPerSlice; ++k) {
        const openflow::CtTuple orig{0x0a090000u + static_cast<std::uint32_t>(k / 50'000 * 256 + k % 251),
                                     net::Ipv4Addr(198, 51, 100, 200).value() +
                                         static_cast<std::uint32_t>(k % 50),
                                     static_cast<std::uint16_t>(1024 + k % 50'000), 443, kTcp};
        openflow::ConnTracker& ct =
            sw.pipeline().conntrack(orig.symmetric_hash() % sw.pipeline().shard_count());
        const openflow::CtOutcome out = ct.process(orig, net::kTcpSyn, engine.now(), snat);
        const openflow::CtTuple reply{orig.dst_ip, out.translation.src_ip, orig.dst_port,
                                      out.translation.src_port, kTcp};
        ct.process(reply, net::kTcpSyn | net::kTcpAck, engine.now(), plain);
      }
    });
  }
}

}  // namespace

Report run_stateful_gw(const Options& options) {
  const std::int64_t start_ns = wall_ns();
  Tracer& tracer = *options.tracer;
  sim::Network network;
  sim::Engine& engine = network.engine();

  sim::IngressSpec ingress;
  ingress.cores.cores = kCores;
  ingress.cores.rss = sim::RssPolicy::kSymmetric;
  ingress.queue_capacity = 4096;
  auto& gw = network.add_node<TracedSoftSwitch>("gw", tracer, 0x9a, kPorts, ingress);
  auto& standby = network.add_node<softswitch::SoftSwitch>("gw-standby", 0x9b, kPorts, 2, true,
                                                           true, 32, ingress);
  openflow::CtConfig ct;
  ct.max_connections = 100'000;
  ct.tcp_established_timeout = kEstablishedTimeoutNs;
  ct.tcp_transient_timeout = kTransientTimeoutNs;
  ct.sweep_interval = 1'000'000;
  gw.enable_conntrack(ct);
  standby.enable_conntrack(ct);

  std::vector<BenchHost*> hosts;
  for (int p = 0; p < kPorts; ++p) {
    std::uint32_t ip = 0;
    std::string name;
    if (p < kClients) {
      ip = net::Ipv4Addr(10, 1, 0, static_cast<std::uint8_t>(p + 1)).value();
      name = numbered("client", p + 1);
    } else if (p < kClients + kServers) {
      ip = net::Ipv4Addr(198, 51, 100, static_cast<std::uint8_t>(p - kClients + 1)).value();
      name = numbered("server", p - kClients + 1);
    } else {
      ip = net::Ipv4Addr(10, 2, 0, static_cast<std::uint8_t>(p - kClients - kServers + 1)).value();
      name = numbered("backend", p - kClients - kServers + 1);
    }
    auto& host = network.add_node<BenchHost>(
        name, net::MacAddr::from_u64(0x020000000001ULL + static_cast<std::uint64_t>(p)),
        net::Ipv4Addr(ip), tracer);
    network.connect(host, 0, gw, static_cast<std::size_t>(p), sim::LinkSpec::gbps(10));
    hosts.push_back(&host);
  }
  install_rules(gw, hosts);
  install_rules(standby, hosts);

  softswitch::ReplicationChannel replication(engine);
  gw.enable_ha_active(replication);
  standby.enable_ha_standby(replication);

  std::uint64_t leaks = 0;
  for (int p = kClients; p < kPorts; ++p)
    serve(*hosts[static_cast<std::size_t>(p)], tracer, p < kClients + kServers, leaks);

  {
    Span span(tracer, SpanName::kCtPreload);
    preload(gw, engine, engine.now());
    network.run_until(engine.now() + kPreloadSpanNs);
  }

  util::Rng rng(options.seed);
  Gateway gateway{engine, tracer, hosts, {}, {}, util::Rng(rng.next())};
  gateway.build_templates();
  const sim::SimNanos t0 = engine.now() + kWarmupNs + kDrainNs;
  const sim::SimNanos t_end = t0 + kTrafficNs;
  for (int i = 0; i < kLongLived; ++i) gateway.long_lived(rng, t_end);
  Arrivals warmup(engine, options.seed ^ 0xbb67ae8584caa73bULL, kConnectionsPerSecond,
                  [&gateway](util::Rng& draw) { gateway.open_and_close(draw); });
  warmup.start(engine.now(), engine.now() + kWarmupNs);
  network.run_until(t0);

  Arrivals arrivals(engine, options.seed ^ 0x6a09e667f3bcc908ULL, kConnectionsPerSecond,
                    [&gateway](util::Rng& draw) { gateway.open_and_close(draw); });
  arrivals.start(t0, t_end);
  PeakSampler sampler(engine, 50'000, [&gw] { return gw.counters().ct_connections; });
  sampler.start(t0, t_end);

  const SwitchMark mark = SwitchMark::take(gw);
  const softswitch::ReplicationChannel::Stats repl0 = replication.stats();
  const std::uint64_t invalid0 = rule_packets(gw, kInvalidCookie);
  const std::uint64_t deny0 = rule_packets(gw, kDenyCookie);
  const std::uint64_t leaks0 = leaks;

  Window window(network, hosts, tracer, *options.probe, start_ns);
  window.open();
  window.run(t_end, t_end + kDrainNs);

  Report report;
  Sums sums;
  add_switch(report.model, sums, gw, mark, {"sw"});
  sums["repl_deltas"] = replication.stats().deltas_published - repl0.deltas_published;
  sums["repl_batches"] = replication.stats().batches_sent - repl0.batches_sent;
  sums["ct_live_peak"] = sampler.gauge_peak();
  sums["ct_live_min"] = sampler.gauge_min();
  sums["snat_leaks"] = leaks - leaks0;
  window.close(report, sums, sampler);

  const std::uint64_t invalid = rule_packets(gw, kInvalidCookie) - invalid0;
  const std::uint64_t deny = rule_packets(gw, kDenyCookie) - deny0;
  report.drops.set("openflow.ct.invalid", invalid);
  report.drops.set("openflow.gw.deny", deny);
  report.drops.set("softswitch.no_match_other",
                   static_cast<std::int64_t>(sums["drops_no_match"]) -
                       static_cast<std::int64_t>(invalid + deny));
  return report;
}

}  // namespace perfbench
