// openflow/conntrack.hpp — the stateful connection-tracking tier.
//
// One ConnTracker is one shard of the per-5-tuple connection table,
// sharded per worker core exactly like the flow-cache shards
// (Pipeline::cache(core) — see Pipeline::conntrack(core)). A shard is
// only ever touched by its own core, so there is no locking anywhere:
// RssPolicy::kSymmetric steers both directions of a connection to the
// same core by hashing the *sorted* endpoint pair
// (util::symmetric_flow_hash), and SNAT port allocation picks external
// ports whose translated reply tuple hashes back to the committing
// shard, so even address-translated reverse traffic stays shard-local.
//
// Semantics are netfilter-ish, simplified for a simulator:
//   * The pipeline classifies every IPv4 TCP/UDP packet read-only
//     *before* any cache probe (the "prelude") and stamps the result
//     into Field::kCtState — see fields.hpp for the bit definitions.
//     Because both flow-cache tiers key on every present field, cached
//     decisions can never mask a state transition.
//   * State only advances when a packet traverses a `ct` action
//     (CtAction): commit creates the entry, later traversals refresh
//     it, a reply-direction packet flips it to ESTABLISHED, TCP
//     FIN/RST demote it to a short transient timeout, and idle entries
//     expire off a coarse timer wheel swept by calendar-engine events.
//   * Capacity is bounded per shard; commits into a full table evict
//     the least-recently-seen connection (LRU).
//
// Storage stays allocation-free in steady state: connections live in a
// slot vector (freed slots recycle through a free list; the LRU is
// intrusive, linked by slot id), and two flat open-addressing indexes
// find them — orig tuple -> slot id and reply tuple -> slot id
// (util::IdMap: one array of (tuple, id) pairs, linear probing,
// backward-shift deletion). A lookup is one hash plus a short
// contiguous probe; a commit or a kill never touches the allocator
// once the tables have grown to the working set.
//
// NAT lives here too: the first commit through a translating CtAction
// records the mapping (SNAT allocates an external port, DNAT stores
// the target), and every subsequent packet of the connection — either
// direction — gets the *stored* mapping applied. That is what gives
// the Maglev LB connection affinity across backend changes, and what
// makes megaflow replay deterministic per connection.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "openflow/action.hpp"
#include "sim/time.hpp"
#include "util/hash.hpp"
#include "util/id_map.hpp"

namespace harmless::openflow {

/// A directional 5-tuple (seq-less view of a TCP/UDP flow).
struct CtTuple {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t proto = 0;

  [[nodiscard]] CtTuple reversed() const {
    return CtTuple{dst_ip, src_ip, dst_port, src_port, proto};
  }
  [[nodiscard]] std::uint64_t symmetric_hash() const {
    return util::symmetric_flow_hash(src_ip, src_port, dst_ip, dst_port, proto);
  }
  /// Directional hash key (order-sensitive, unlike symmetric_hash) —
  /// what the connection index (util::IdMap) probes with.
  [[nodiscard]] std::uint64_t key_hash() const {
    std::uint64_t h = util::hash_u64(util::kHashSeed, util::flow_endpoint(src_ip, src_port));
    h = util::hash_u64(h, util::flow_endpoint(dst_ip, dst_port));
    return util::hash_u64(h, proto);
  }
  friend bool operator==(const CtTuple&, const CtTuple&) = default;
};

/// Per-shard tunables (EXPERIMENTS.md "Conntrack knobs").
struct CtConfig {
  std::size_t max_connections = 65536;  // per shard; LRU reclaim beyond this
  sim::SimNanos tcp_established_timeout = 30'000'000'000;  // idle, after a reply was seen
  sim::SimNanos tcp_transient_timeout = 2'000'000'000;     // pre-reply / post-FIN/RST
  sim::SimNanos udp_timeout = 5'000'000'000;               // UDP idle expiry
  sim::SimNanos sweep_interval = 100'000'000;              // expiry-sweep cadence
  /// Shard count the SNAT allocator steers reply tuples against.
  /// 0 = the datapath's actual shard count. Overriding it lets a
  /// single-core run emulate an N-shard allocation exactly — the
  /// equivalence property tests pin it across differential runs.
  std::size_t nat_steer_shards = 0;
};

/// The stored NAT mapping of one connection.
struct CtNat {
  CtAction::Nat kind = CtAction::Nat::kNone;
  std::uint32_t ip = 0;
  std::uint16_t port = 0;
};

/// Field rewrites `ct` asks the pipeline to apply to the current packet.
struct CtRewrite {
  bool src = false;  // rewrite source ip:port to (src_ip, src_port)
  bool dst = false;  // rewrite destination ip:port to (dst_ip, dst_port)
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
};

/// One tracked connection.
struct ConnEntry {
  CtTuple orig;   // as first committed (pre-NAT, original direction)
  CtTuple reply;  // expected reply tuple (post-NAT, reversed)
  CtNat nat;
  bool seen_reply = false;
  bool closing = false;  // TCP FIN/RST observed: transient timeout
  /// False only for entries that came in via restore() or were demoted
  /// at takeover: they classify exactly like confirmed entries (so
  /// surviving flows keep their ESTABLISHED fast path) but idle out on
  /// the *transient* timeout until real traffic re-traverses `ct` —
  /// a stale snapshot can never keep a dead flow alive as ESTABLISHED.
  bool confirmed = true;
  sim::SimNanos last_seen = 0;
  sim::SimNanos expires_at = 0;
  std::uint64_t packets_orig = 0;
  std::uint64_t packets_reply = 0;
};

/// One connection as carried by a checkpoint or a replication delta:
/// everything needed to rebuild the entry except its packet counters
/// and absolute deadlines (remaining_ns is deadline-relative so the
/// restore side can re-arm against its own clock).
struct CtSnapshotEntry {
  CtTuple orig;
  CtTuple reply;
  CtNat nat;
  bool seen_reply = false;
  bool closing = false;
  sim::SimNanos remaining_ns = 0;  // expires_at - snapshot time
};

/// A compact point-in-time image of one shard's connection table.
struct CtSnapshot {
  sim::SimNanos taken_at = 0;
  std::vector<CtSnapshotEntry> entries;

  /// Wire form: little-endian packed POD, 42 bytes per entry plus a
  /// fixed header with magic/version/count (so a truncated or foreign
  /// blob parses to nullopt instead of garbage connections).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static std::optional<CtSnapshot> parse(const std::vector<std::uint8_t>& bytes);

  /// Exact serialized size without materializing the bytes — the
  /// checkpoint/replication byte accounting bills this.
  [[nodiscard]] std::size_t wire_bytes() const { return 18 + entries.size() * 42; }
};

/// One incremental replication event: a new connection (kCommit), a
/// state advance — reply seen, FIN/RST observed (kUpdate), or a
/// removal — expiry, eviction, explicit kill (kClose).
struct CtDelta {
  enum class Kind : std::uint8_t { kCommit = 0, kUpdate = 1, kClose = 2 };
  Kind kind = Kind::kCommit;
  CtSnapshotEntry entry;
  /// Fencing epoch of the publisher at emission time. The tracker is
  /// epoch-ignorant (always 0 here); the HA layer stamps it in the
  /// delta sink and rejects stale-epoch records on receipt, so a
  /// fenced ex-active's in-flight deltas die by epoch, not wall-clock.
  std::uint64_t epoch = 0;
};

using CtDeltaSink = std::function<void(const CtDelta&)>;

/// What restore() did with a snapshot's entries.
struct CtRestoreResult {
  std::size_t restored = 0;
  std::size_t dropped = 0;  // mid-handshake, expired, collisions, capacity
};

/// Shard-summable counters (Counters/CoreStats surface them).
struct CtStats {
  std::uint64_t lookups = 0;    // prelude classifications
  std::uint64_t hits = 0;       // classifications that found an entry
  std::uint64_t created = 0;    // connections committed
  std::uint64_t refreshed = 0;  // ct traversals on existing entries
  std::uint64_t expired = 0;    // idle-timeout kills (sweep or lazy)
  std::uint64_t evicted = 0;    // LRU reclaims at capacity
  std::uint64_t invalid = 0;    // unclassifiable packets seen
  std::uint64_t nat_allocated = 0;
  std::uint64_t nat_failures = 0;  // allocation/collision failures
  // --- stateful-HA counters (checkpoint/restore + replication) ---
  std::uint64_t checkpoints = 0;      // snapshots taken
  std::uint64_t restored = 0;         // entries accepted by restore()
  std::uint64_t restore_dropped = 0;  // entries restore() refused
  std::uint64_t deltas_emitted = 0;   // replication events published
  std::uint64_t deltas_applied = 0;   // replication events consumed
  std::uint64_t fenced_rejects = 0;   // new commits refused while fenced
};

/// What one `ct` action traversal did (see ConnTracker::process).
struct CtOutcome {
  std::uint64_t state = 0;   // kCt* bits, as the prelude would classify
  bool committed = false;    // a new entry was created
  bool rewrite = false;      // `translation` must be applied to the packet
  CtRewrite translation{};
};

/// One conntrack shard. Not thread-safe by design — ownership is
/// per-core, like FlowCache.
class ConnTracker {
 public:
  ConnTracker(const CtConfig& config, std::size_t shard_count)
      : config_(config),
        steer_shards_(config.nat_steer_shards != 0 ? config.nat_steer_shards
                                                   : (shard_count != 0 ? shard_count : 1)) {}

  /// Read-only classification for the pipeline prelude: the kCt* bits
  /// Field::kCtState gets for a packet with this tuple right now.
  /// Counts lookups/hits/invalid; never mutates connection state.
  std::uint64_t classify(const CtTuple& tuple, std::uint8_t tcp_flags, sim::SimNanos now);

  /// Execute one `ct` action traversal: create or refresh the entry,
  /// advance TCP state off `tcp_flags`, resolve the NAT translation to
  /// apply to this packet's direction. `spec` carries the action's NAT
  /// request; it only matters at first commit (the stored mapping wins
  /// afterwards).
  CtOutcome process(const CtTuple& tuple, std::uint8_t tcp_flags, sim::SimNanos now,
                    const CtAction& spec);

  /// Kill every connection idle past its deadline. Returns the number
  /// expired. Lazily revalidates wheel buckets (refreshes do not
  /// re-file entries eagerly).
  std::size_t expire(sim::SimNanos now);

  /// Earliest wheel deadline, if any connection is live (may be stale
  /// early — a sweep at that time is then simply a no-op).
  [[nodiscard]] std::optional<sim::SimNanos> next_deadline() const;

  [[nodiscard]] std::size_t size() const { return orig_map_.size(); }
  [[nodiscard]] const CtStats& stats() const { return stats_; }
  [[nodiscard]] const CtConfig& config() const { return config_; }

  /// Stable per-connection snapshot for tests: every live entry,
  /// unordered (callers sort by tuple).
  [[nodiscard]] std::vector<ConnEntry> snapshot() const;

  void clear();

  // --- stateful HA: checkpoint/restore ---

  /// Serialize every still-live connection into a restorable image
  /// (entries already past their deadline are left out). Counts
  /// stats().checkpoints.
  CtSnapshot checkpoint(sim::SimNanos now);

  /// Rebuild connections from a snapshot taken before a crash. Per
  /// entry, in snapshot order:
  ///   * TCP entries that never saw a reply are dropped — a snapshot
  ///     mid-handshake must not resurrect a half-open connection.
  ///   * Entries whose remaining timeout already ran out are dropped.
  ///   * Entries colliding with live state (either tuple, either map)
  ///     are dropped — live state wins over a stale image.
  ///   * Survivors are inserted *unconfirmed*: they classify as before
  ///     (ESTABLISHED for seen_reply entries) but their deadline is
  ///     re-armed at min(remaining, transient timeout) until real
  ///     traffic re-confirms them through `ct`.
  /// The timer wheel is re-filed for every accepted entry.
  CtRestoreResult restore(const CtSnapshot& snapshot, sim::SimNanos now);

  // --- stateful HA: active→standby replication ---

  /// Install the incremental replication stream: the sink fires on
  /// every commit, state advance, and removal. Pass nullptr to stop
  /// publishing. Restore/apply paths never echo into the sink.
  void set_delta_sink(CtDeltaSink sink) { delta_sink_ = std::move(sink); }

  /// Consume one replication event on the standby side: upsert for
  /// kCommit/kUpdate (collisions with live local state are dropped),
  /// removal for kClose. Entries land *confirmed* — freshness comes
  /// from the live stream itself, not from traffic.
  void apply_delta(const CtDelta& delta, sim::SimNanos now);

  /// Takeover hygiene: mark every live entry unconfirmed and clamp its
  /// deadline to the transient timeout, so connections that died while
  /// the replication stream was lagging expire quickly while surviving
  /// flows re-confirm through their own traffic. Returns entries
  /// demoted.
  std::size_t demote_all(sim::SimNanos now);

  // --- stateful HA: fencing + warm failback + dirty tracking ---

  /// Fencing gate: while fenced, process() refuses to commit *new*
  /// connections (NAT allocations included) — the miss path returns
  /// kCtInvalid and counts stats().fenced_rejects. Established entries
  /// keep being served and refreshed, so live flows survive a fencing
  /// window; only state *minting* stops. classify() is unaffected (it
  /// never mutates).
  void set_fenced(bool fenced) { fenced_ = fenced; }
  [[nodiscard]] bool fenced() const { return fenced_; }

  /// Dirty-shard tracking for incremental checkpoints: set by any
  /// mutation (commit/refresh/kill/apply/restore/resync/demote/clear),
  /// cleared only by the checkpointing layer once it has captured an
  /// image. checkpoint() itself does NOT clear — it is also used for
  /// failback streaming, which must not perturb the cadence.
  [[nodiscard]] bool dirty() const { return dirty_; }
  void clear_dirty() { dirty_ = false; }

  /// Warm failback: reconcile this shard against an authoritative
  /// snapshot from the current active. Unlike restore(), the snapshot
  /// *wins* collisions: local entries claiming either tuple of a
  /// snapshot entry are killed, matching connections are updated in
  /// place (confirmed), new ones inserted confirmed, and live entries
  /// the snapshot does not cover are demoted (unconfirmed + transient
  /// deadline) so stale ex-active state ages out fast. Returns the
  /// number of entries upserted.
  std::size_t resync(const CtSnapshot& snapshot, sim::SimNanos now);

 private:
  struct Slot {
    ConnEntry entry;
    std::uint32_t lru_prev = kNil;
    std::uint32_t lru_next = kNil;
    std::uint32_t generation = 0;
    bool live = false;
  };
  static constexpr std::uint32_t kNil = 0xffffffff;

  [[nodiscard]] sim::SimNanos timeout_for(const ConnEntry& entry) const;
  [[nodiscard]] std::uint64_t classify_entry(const Slot& slot, bool reply_dir) const;

  std::uint32_t allocate_slot();
  void kill(std::uint32_t id, bool expired, sim::SimNanos now);
  void emit_delta(CtDelta::Kind kind, const ConnEntry& entry, sim::SimNanos now);
  void lru_touch(std::uint32_t id);
  void lru_unlink(std::uint32_t id);
  void lru_push_front(std::uint32_t id);
  void refresh(Slot& slot, std::uint32_t id, bool reply_dir, std::uint8_t tcp_flags,
               sim::SimNanos now);
  void file_deadline(std::uint32_t id, const Slot& slot);

  /// SNAT external-port allocation with shard affinity: the first port
  /// in [port_min, port_max] (probed from a tuple-derived offset) whose
  /// translated reply tuple (a) hashes to this connection's symmetric
  /// steering shard and (b) is not already claimed in reply_map_.
  [[nodiscard]] std::optional<std::uint16_t> allocate_snat_port(const CtTuple& orig,
                                                                const CtAction& spec) const;

  CtConfig config_;
  std::size_t steer_shards_ = 1;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// The connection index: flat open-addressing CtTuple -> slot id
  /// tables (util::IdMap — linear probing, backward-shift delete, keys
  /// compared by value), one per direction. Inserts keep
  /// insert-if-absent semantics, erases go by key.
  util::IdMap<std::uint32_t, CtTuple> orig_map_;
  util::IdMap<std::uint32_t, CtTuple> reply_map_;
  /// Coarse timer wheel: deadline bucket -> (slot id, generation).
  /// Buckets are swept lazily; a refreshed entry is re-filed when its
  /// stale bucket comes due.
  std::map<sim::SimNanos, std::vector<std::pair<std::uint32_t, std::uint32_t>>> wheel_;
  std::uint32_t lru_head_ = kNil;  // most recently seen
  std::uint32_t lru_tail_ = kNil;  // least recently seen (eviction victim)
  CtStats stats_;
  CtDeltaSink delta_sink_;  // replication stream; null when not an active
  bool fenced_ = false;     // lease lost: no new commits (survives clear())
  bool dirty_ = false;      // mutated since last clear_dirty()
};

}  // namespace harmless::openflow
