"""Metric definitions and the arithmetic behind them.

The driver binary (perfbench_driver) prints raw numbers for one workload
run: `host` (host-clock numbers, which vary from run to run), `model`
(simulated-time numbers and counts, which repeat exactly for one seed,
traced or not) and `drops` (the packet ledger's named drop counters).
This module turns them into the metrics BENCHMARK.json lists.

Every derived value is numerator / denominator * scale, and its
denominator is reported beside it as the value's base. A metric whose
layer is absent from a workload has a zero numerator and reads 0.

Kinds:
  host    host clock, from the untraced runs (median over runs)
  traced  host clock, from span self/total times of the traced runs
  sim     simulated time, deterministic
  count   a count or a ratio of counts, deterministic

Host clock and the shared machine: on a host shared with other tenants
the same simulation runs up to ~1.6x slower in phases lasting seconds to
minutes. Each driver run therefore samples a fixed reference workload
(SpeedProbe in harness.hpp: a small discrete-event loop in benchmark
code that the simulator cannot change) before every traffic slice, and
every host time of that run is divided by its speed factor = median
probe time / PROBE_NOMINAL_NS. Each probe sample first re-warms the
loop's own state, so the simulator's cache footprint does not move the
factor. The factor removes much of the swing, not all of it. Host
numbers are "at nominal machine speed"; the raw ones are printed beside
them.
"""

from dataclasses import dataclass
import json
import math
from pathlib import Path
import statistics

# Names, units, directions, bounds and the workloads' one-line whys come
# from BENCHMARK.json; this module keeps only how each metric is made.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@dataclass(frozen=True)
class Layer:
    kind: str
    num: str            # "model:key", "span:name.field" or "host:key"
    den: str | None     # same forms; None = no base (an absolute value)
    scale: float = 1.0
    moves: tuple = ()   # end-to-end metrics it should move
    most: tuple = ()    # workloads with most work in this layer
    none: tuple = ()    # workloads with little or no work: predict no change


ALL = ("hairpin_l2", "flow_churn", "stateful_gw")
HP, FC, GW = ALL

# How each per-layer metric of BENCHMARK.json is made, keyed by name.
LAYERS = {
    "sim.ns_per_event": Layer("host", "host:traffic_s", "model:events", 1e9, ("host_pps",),
        (HP,)),
    "sim.events_per_pkt": Layer("count", "model:events", "model:delivered", 1, ("host_pps",),
        (HP,)),
    "sim.pending_peak": Layer("count", "model:pending_peak", None, 1,
        ("host_pps", "peak_rss_mb"), (GW,), (FC,)),
    "sim.other_ns_per_pkt": Layer("traced", "span:sim.run.self_ns", "model:delivered", 1,
        ("host_pps",), (HP,)),
    "sim.host.rx_ns_per_pkt": Layer("traced", "span:sim.host.rx.self_ns", "model:delivered", 1,
        ("host_pps",), ALL),
    "sim.host.tx_ns_per_pkt": Layer("traced", "span:sim.host.tx.self_ns", "model:offered", 1,
        ("host_pps",), ALL),
    "sim.link.trunk_util": Layer("sim", "model:trunk_busy_ns", "model:window_ns", 1,
        ("sim_latency_p99_us",), (HP,), (FC, GW)),
    "sim.link.drops": Layer("count", "model:link_drops", None, 1,
        ("delivered_ratio", "sim_goodput_mpps")),
    "sim.rxq.drops": Layer("count", "model:rxq_drops", None, 1,
        ("delivered_ratio", "sim_goodput_mpps")),
    "sim.rxq.peak_depth": Layer("count", "model:rxq_peak", None, 1, ("sim_latency_p99_us",),
        (GW,), (HP,)),
    "sim.proc_us_p50": Layer("sim", "model:proc_p50_ns", None, 1e-3, ("sim_latency_p50_us",),
        (HP,)),
    "sim.latency_samples": Layer("count", "model:latency_samples", None, 1,
        ("sim_latency_p50_us", "sim_latency_p99_us")),
    "net.gen_ns_per_pkt": Layer("traced", "span:net.gen.self_ns", "model:offered", 1,
        ("host_pps",), (GW,)),
    "net.frame_copies_per_pkt": Layer("count", "model:frame_copies", "model:delivered", 1,
        ("host_pps",), (FC,), (HP,)),
    "net.pool_buffers": Layer("count", "model:pool_buffers", None, 1, ("peak_rss_mb",), ALL),
    "legacy.service_ns_per_pkt": Layer("traced", "span:legacy.service.self_ns",
        "model:delivered", 1, ("host_pps",), (HP,), (FC, GW)),
    "legacy.busy_ns_per_pkt": Layer("sim", "model:legacy_busy_ns", "model:delivered", 1,
        ("sim_latency_p50_us",), (HP,), (FC, GW)),
    "legacy.flooded": Layer("count", "model:legacy_flooded", None, 1, ("sim_latency_p50_us",),
        (HP,), (FC, GW)),
    "harmless.migrate_s": Layer("traced", "span:harmless.migrate.total_ns", None, 1e-9,
        ("setup_s",), (HP,), (FC, GW)),
    "harmless.ss1.busy_ns_per_pkt": Layer("sim", "model:ss1_busy_ns", "model:delivered", 1,
        ("sim_latency_p50_us", "host_pps"), (HP,), (FC, GW)),
    "harmless.ss2.busy_ns_per_pkt": Layer("sim", "model:ss2_busy_ns", "model:delivered", 1,
        ("sim_latency_p50_us", "host_pps"), (HP,), (FC, GW)),
    "harmless.ss1.cache_hit_ratio": Layer("count", "model:ss1_cache_hits",
        "model:ss1_cache_lookups", 1, ("sim_latency_p50_us", "host_pps"), (HP,), (FC, GW)),
    "softswitch.service_ns_per_pkt": Layer("traced", "span:softswitch.service.self_ns",
        "model:delivered", 1, ("host_pps",), (FC, GW)),
    "softswitch.busy_ns_per_pkt": Layer("sim", "model:sw_busy_ns", "model:delivered", 1,
        ("sim_goodput_mpps", "sim_latency_p99_us"), (GW,), (HP,)),
    "softswitch.core_imbalance": Layer("sim", "model:sw_core_busy_max_ns",
        "model:sw_core_busy_mean_ns", 1, ("sim_goodput_mpps", "sim_latency_p99_us"), (GW,),
        (HP,)),
    "softswitch.pkts_per_burst": Layer("count", "model:all_packets", "model:all_bursts", 1,
        ("sim_latency_p99_us",), ALL),
    "softswitch.repl.deltas_per_conn": Layer("count", "model:repl_deltas", "model:ct_created", 1,
        ("host_pps",), (GW,), (HP, FC)),
    "softswitch.repl.batches": Layer("count", "model:repl_batches", None, 1, ("host_pps",),
        (GW,), (HP, FC)),
    "openflow.cache.hit_ratio": Layer("count", "model:cache_hits", "model:cache_lookups", 1,
        ("host_pps", "sim_latency_p99_us"), (FC,), (HP,)),
    "openflow.cache.probes_per_lookup": Layer("count", "model:subtable_probes",
        "model:tier2_lookups", 1, ("host_pps",), (FC,), (HP, GW)),
    "openflow.cache.subtables": Layer("count", "model:subtables", None, 1, ("host_pps",), (FC,),
        (HP, GW)),
    "openflow.cache.evictions": Layer("count", "model:evictions", None, 1, ("host_pps",), (FC,),
        (HP, GW)),
    "openflow.cache.invalidations": Layer("count", "model:invalidations", None, 1, ("host_pps",),
        (FC,), (HP, GW)),
    "openflow.flow_mods": Layer("count", "model:flow_mods", None, 1, ("sim_latency_p99_us",),
        (FC,), (HP,)),
    "openflow.channel.msgs": Layer("count", "model:channel_msgs", None, 1,
        ("sim_latency_p99_us",), (FC,), (HP,)),
    "openflow.ct.lookups_per_pkt": Layer("count", "model:ct_lookups", "model:delivered", 1,
        ("host_pps",), (GW,), (HP, FC)),
    "openflow.ct.hit_ratio": Layer("count", "model:ct_hits", "model:ct_lookups", 1,
        ("host_pps",), (GW,), (HP, FC)),
    "openflow.ct.created": Layer("count", "model:ct_created", None, 1, ("host_pps",), (GW,),
        (HP, FC)),
    "openflow.ct.expired": Layer("count", "model:ct_expired", None, 1, ("host_pps",), (GW,),
        (HP, FC)),
    "openflow.ct.invalid": Layer("count", "model:ct_invalid", None, 1, ("delivered_ratio",),
        (GW,), (HP, FC)),
    "openflow.ct.nat_failures": Layer("count", "model:ct_nat_failures", None, 1,
        ("delivered_ratio",), (GW,), (HP, FC)),
    "openflow.ct.live_peak": Layer("count", "model:ct_live_peak", None, 1, ("peak_rss_mb",),
        (GW,), (HP, FC)),
    "openflow.ct.live_min": Layer("count", "model:ct_live_min", None, 1,
        ("peak_rss_mb", "host_pps"), (GW,), (HP, FC)),
    "openflow.ct.preload_s": Layer("traced", "span:openflow.ct.preload.total_ns", None, 1e-9,
        ("setup_s",), (GW,), (HP, FC)),
    "controller.packet_in_ns": Layer("traced", "span:controller.packet_in.self_ns",
        "span:controller.packet_in.count", 1, ("host_pps", "sim_latency_p99_us"), (FC,),
        (HP, GW)),
    "controller.packet_ins": Layer("count", "model:packet_ins", None, 1, ("sim_latency_p99_us",),
        (FC,), (HP,)),
    "controller.flows_installed": Layer("count", "model:flows_installed", None, 1,
        ("sim_latency_p99_us",), (FC,), (HP,)),
    "controller.connect_s": Layer("traced", "span:controller.connect.total_ns", None, 1e-9,
        ("setup_s",), (FC,)),
    "failed_ratio": Layer("count", "model:failed", "model:offered", 1, ("delivered_ratio",),
        (GW,), (HP, FC)),
    "trace.overhead_ratio": Layer("host", "traced:host_pps", "untraced:host_pps", 1, (), ALL),
}

# Percentiles are reported only with at least this many samples beyond them.
MIN_BEYOND = 10

# The probe time host numbers are normalized to: 50k reference events
# take about this long on a 4-vCPU KVM guest of a shared Xeon host. Any
# fixed value works; it only sets the scale.
PROBE_NOMINAL_NS = 1.0e7


@dataclass
class Value:
    """A metric value with the base (denominator) it was divided by."""
    value: float
    base_name: str | None = None
    base: float | None = None

    def describe(self):
        if self.base_name is None:
            return ""
        return f"base {self.base_name}={self.base:g}"


def ratio(num, den, scale=1.0, base_name=None):
    """num / den * scale, carrying den as the base. 0 / 0 is an absent layer: 0."""
    if den == 0:
        if num != 0:
            raise ValueError(f"{base_name}: nonzero numerator {num} over a zero base")
        return Value(0.0, base_name, 0)
    return Value(num / den * scale, base_name, den)


def samples_beyond(samples, q):
    """Samples ranked above the q-quantile of `samples` (nearest rank)."""
    return samples - math.ceil(q * samples)


def percentile_reportable(samples, q):
    """True when at least MIN_BEYOND samples lie beyond the q-quantile."""
    return samples > 0 and samples_beyond(samples, q) >= MIN_BEYOND


def ledger(model, drops):
    """The packet ledger: offered = delivered + named drops + in flight.

    Returns (balanced, imbalance, lines). Every drop counter must be
    non-negative (a negative unattributed residue is itself an error).
    """
    dropped = sum(drops.values())
    imbalance = model["offered"] - (model["delivered"] + dropped + model["in_flight"])
    negative = [name for name, count in drops.items() if count < 0]
    lines = [("offered", model["offered"]), ("delivered", model["delivered"]),
             ("in_flight", model["in_flight"])]
    lines += [(f"drop:{name}", count) for name, count in sorted(drops.items())]
    return imbalance == 0 and not negative, imbalance, lines


def _median(values):
    return statistics.median(values) if values else 0.0


def speed_factor(run):
    """How much slower than nominal this run's machine was (1 = nominal)."""
    return _median(run["host"]["probe_ns"]) / PROBE_NOMINAL_NS


def _source(term, model, traced_runs):
    """Resolve one deterministic term ("model:key") or a traced term
    ("span:name.field": normalized host ns, median over the traced runs)."""
    kind, key = term.split(":", 1)
    if kind == "model":
        return model[key]
    if kind == "span":
        if key.endswith(".count"):
            return _median([run["host"][key] for run in traced_runs])
        return _median([run["host"][key] / speed_factor(run) for run in traced_runs])
    raise KeyError(term)


def host_pps(runs, normalized=True):
    """Median of the per-slice delivered-packets-per-host-second rates."""
    return _median([pps * (speed_factor(run) if normalized else 1)
                    for run in runs for pps in run["host"]["slice_pps"]])


def setup_s(runs, normalized=True):
    return _median([run["host"]["setup_s"] / (speed_factor(run) if normalized else 1)
                    for run in runs])


def end_to_end(untraced, model):
    """The end-to-end metrics from the untraced runs.

    host_pps            packets delivered per host second of the measured
                        traffic, at nominal machine speed (median of the
                        per-slice rates)
    setup_s             host seconds from workload start to the first
                        measured packet, at nominal machine speed (median)
    peak_rss_mb         ru_maxrss of the workload process (median)
    sim_goodput_mpps    delivered packets per simulated second of the window
    sim_latency_p*_us   modelled one-way latency (sim::LatencyRecorder)
    delivered_ratio     delivered / offered packets (1 - failed_ratio,
                        never 0)
    """
    latency = model["latency_samples"]
    for q in (0.50, 0.99):
        if not percentile_reportable(latency, q):
            raise ValueError(f"p{int(q * 100)} needs {MIN_BEYOND} samples beyond it; "
                             f"have {samples_beyond(latency, q)} of {latency}")
    delivered = model["delivered"]
    return {
        "host_pps": Value(host_pps(untraced), "slices",
                          sum(len(r["host"]["slice_pps"]) for r in untraced)),
        "setup_s": Value(setup_s(untraced), "runs", len(untraced)),
        "peak_rss_mb": Value(_median([r["host"]["peak_rss_kib"] / 1024 for r in untraced]),
                             "runs", len(untraced)),
        "sim_goodput_mpps": ratio(delivered, model["window_ns"], 1e3, "window_ns"),
        "sim_latency_p50_us": Value(model["latency_p50_ns"] * 1e-3, "samples", latency),
        "sim_latency_p99_us": Value(model["latency_p99_ns"] * 1e-3, "samples", latency),
        "delivered_ratio": ratio(delivered, model["offered"], 1, "offered"),
    }


def per_layer(untraced, traced, model):
    """Every per-layer metric: deterministic ones from `model`, host ones
    from the untraced runs, traced ones from the traced runs."""
    values = {}
    for spec in SPEC["per_layer"]:
        name = spec["name"]
        layer = LAYERS[name]
        if name == "trace.overhead_ratio":
            values[name] = ratio(host_pps(traced), host_pps(untraced), 1,
                                       "untraced host_pps")
            continue
        if layer.kind == "host":
            per_run = [ratio(run["host"][layer.num.split(":")[1]] / speed_factor(run),
                             model[layer.den.split(":")[1]], layer.scale, layer.den)
                       for run in untraced]
            values[name] = Value(_median([v.value for v in per_run]), layer.den,
                                       per_run[0].base)
            continue
        num = _source(layer.num, model, traced)
        if layer.den is None:
            values[name] = Value(num * layer.scale)
        else:
            values[name] = ratio(num, _source(layer.den, model, traced), layer.scale,
                                 layer.den)
    return values


def with_derived(model):
    """The model dict plus derived counts (failed = offered - delivered)."""
    out = dict(model)
    out["failed"] = model["offered"] - model["delivered"]
    return out


if __name__ == "__main__":
    # The per-layer plan, for citing by name: which end-to-end metric each
    # layer metric should move, the workloads doing most of that layer's
    # work, and those where the prediction is "no change".
    for name, layer in LAYERS.items():
        print(f"{name:34s} {UNITS[name]:8s} {layer.kind:6s} "
              f"moves {','.join(layer.moves) or '-':40s} "
              f"most {','.join(layer.most) or '-':35s} none {','.join(layer.none) or '-'}")
