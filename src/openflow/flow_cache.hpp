// openflow/flow_cache.hpp — the two-tier datapath flow cache.
//
// Production software switches (OVS-style) do not run the full
// multi-table pipeline per packet; they consult a flow cache:
//
//  * Tier 1, the **microflow cache**, maps an exact hash of every field
//    a packet presents (full 5-tuple + in_port and friends) straight to
//    the megaflow entry that served the previous packet of that
//    microflow — one probe, no classification.
//
//  * Tier 2, the **megaflow cache**, holds one wildcarded entry per
//    distinct slow-path traversal: the union of (field, mask) bits the
//    traversal actually examined (recorded by FieldUse) plus the fields
//    it proved absent. One megaflow therefore covers every packet that
//    would take the identical path through the tables, so elephant-flow
//    aggregates — even ones varying in fields no rule looks at — stay
//    on the fast path.
//
// Tier 2 is organized as a **dpcls-style classifier** (the OVS datapath
// classifier): megaflows are grouped by their mask signature — the
// (masks, required_present, required_absent) triple — into hash
// subtables keyed by the masked field values. A lookup hashes once per
// *distinct mask* rather than comparing once per *entry*, so tier-2
// cost is O(#subtables), not O(#megaflows), and stays flat as the cache
// fills. Subtables are probed in a hit-ranked order (a decaying hit
// count, OVS-style), so skewed workloads resolve in 1–2 probes. The
// pre-classifier linear scan survives behind `set_linear_scan(true)` as
// the ablation baseline; both modes are property-proven observationally
// identical (tests/property/classifier_equivalence_test.cpp).
//
// A cached entry stores the traversal outcome: per-table apply-action
// segments, the flattened final action set, and references to the flow
// entries it matched so cache hits keep per-rule packet/byte counters
// and idle timestamps byte-identical to an uncached pipeline.
//
// Invalidation is epoch-based: FlowTable/GroupTable bump the shared
// epoch counter on any mutation (flow-mod, group-mod, expiry, matcher
// swap) and entries self-invalidate lazily on epoch mismatch — there
// are no eager flush scans. Entries whose referenced flow entries have
// timed out also refuse to hit, forcing the slow path to perform the
// same lazy expiry an uncached lookup would.
//
// Capacity pressure on the megaflow tier is handled by CLOCK
// (second-chance) eviction, not a wholesale flush: every hit sets an
// entry's reference bit, and an insert into a full tier sweeps the
// clock hand, sparing referenced entries (clearing their bit) and
// evicting the first unreferenced one — so elephant aggregates stay
// resident while one-shot mice recycle. The CLOCK ring is the resident
// megaflows themselves, held in an insertion-ordered std::list (stable
// addresses for the tier-1 and subtable pointers into it) with the
// hand an iterator into that list: sparing an entry and unlinking the
// victim are both O(1), so an eviction costs only the entries it
// passes over. A hand left one past the end (the victim was the last
// entry, or the ring was empty) names the next appended entry; a
// purge or clear parks it back at the front. Eviction also unlinks the
// victim from its subtable (dropping the subtable when it empties).
// Only the exact-match microflow tier still resets wholesale when
// full; its entries are pointers into the megaflow tier and re-seed on
// the next packet.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <vector>

#include "openflow/flow_entry.hpp"
#include "util/id_map.hpp"

namespace harmless::openflow {

class FlowTable;
struct MegaflowSubtable;

/// One learned megaflow: a wildcarded key plus the cached traversal.
struct MegaflowEntry {
  // ---- key ----
  std::array<std::uint64_t, kFieldCount> values{};
  std::array<std::uint64_t, kFieldCount> masks{};
  std::uint32_t required_present = 0;  // examined fields the packet had
  std::uint32_t required_absent = 0;   // examined fields the packet lacked
  std::uint64_t epoch = 0;             // pipeline epoch at install time

  // ---- cached traversal ----
  struct Step {
    FlowTable* table = nullptr;  // whose lookup this replays (counters)
    FlowEntry* entry = nullptr;  // matched entry; null when the table missed
    ActionList apply_actions;    // that entry's apply-actions (copy)
  };
  std::vector<Step> steps;   // tables visited, in traversal order
  ActionList final_actions;  // flattened OF1.3 action set at pipeline exit
  std::uint8_t last_table = 0;
  bool matched = false;

  std::uint64_t hits = 0;
  /// CLOCK reference bit: set on every hit, cleared when the eviction
  /// hand passes over the entry (second chance). New entries start
  /// unreferenced and earn residency with their first hit — one-shot
  /// mice are the preferred victims, elephants are never at the hand
  /// while their bit is down.
  bool referenced = false;
  /// Microflow keys mapped to this entry, so eviction unmaps exactly
  /// its own tier-1 pointers instead of sweeping the whole map. May
  /// hold stale keys after a tier-1 reset (eviction re-checks the
  /// mapping before erasing); FlowCache compacts it whenever it grows
  /// to the doubling watermark below, so stale/duplicate keys cannot
  /// grow a long-lived elephant's vector without bound.
  std::vector<std::uint64_t> microflow_keys;
  /// Next microflow_keys size that triggers a compaction; rearmed to
  /// 2x the surviving keys afterwards, so compaction cost stays
  /// amortized O(1) per recorded key even when the live-key count
  /// hovers just under a watermark.
  std::size_t microflow_compact_at = 64;

  /// Classifier back-links: the subtable holding this entry and the
  /// masked-key hash it is bucketed under (maintained by FlowCache).
  MegaflowSubtable* subtable = nullptr;
  std::uint64_t subtable_hash = 0;

  /// Key check: the packet agrees on every examined bit and presence.
  [[nodiscard]] bool covers(const FieldView& view) const;

  /// True if any referenced flow entry has timed out — the entry must
  /// stop hitting so the slow path performs the lazy expiry.
  [[nodiscard]] bool timed_out(sim::SimNanos now) const;
};

/// One per-mask hash subtable of the tier-2 classifier: every resident
/// megaflow with this exact (masks, required_present, required_absent)
/// signature, bucketed by the hash of its masked field values. One
/// lookup probe = one hash + one bucket walk (usually length 1).
struct MegaflowSubtable {
  std::array<std::uint64_t, kFieldCount> masks{};
  std::uint32_t required_present = 0;
  std::uint32_t required_absent = 0;
  /// Decaying hit count — the probe-order rank. Bumped on every hit,
  /// halved every Limits::rank_decay_lookups tier-2 lookups so a
  /// formerly-hot mask cannot keep the front slot forever.
  std::uint64_t rank_hits = 0;
  std::size_t entry_count = 0;
  std::unordered_map<std::uint64_t, std::vector<MegaflowEntry*>> buckets;

  /// True when `entry`'s key signature belongs in this subtable.
  [[nodiscard]] bool matches_signature(const MegaflowEntry& entry) const {
    return required_present == entry.required_present &&
           required_absent == entry.required_absent && masks == entry.masks;
  }

  /// Hash of `view` projected through this subtable's masks — the
  /// bucket key a packet probes with (identical to the stored entries'
  /// hash because their values are pre-masked at install time).
  [[nodiscard]] std::uint64_t hash_view(const FieldView& view) const {
    std::uint64_t h = kFieldHashSeed ^ required_present;
    std::uint32_t remaining = required_present;
    while (remaining != 0) {
      const unsigned index = static_cast<unsigned>(__builtin_ctz(remaining));
      remaining &= remaining - 1;
      h = hash_u64s(h, view.values[index] & masks[index]);
    }
    return h;
  }
};

class FlowCache {
 public:
  struct Limits {
    std::size_t max_megaflows = 4096;
    std::size_t max_microflows = 16384;
    /// Halve every subtable's rank score after this many tier-2
    /// lookups (0 disables decay). Keeps the probe order tracking the
    /// *current* skew instead of all-time hit totals.
    std::uint64_t rank_decay_lookups = 4096;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t microflow_hits = 0;  // tier-1 exact-hash hits
    std::uint64_t megaflow_hits = 0;   // tier-2 wildcard hits (tier-1 missed)
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t invalidations = 0;  // entries discarded on epoch mismatch
    std::uint64_t evictions = 0;      // megaflows displaced by CLOCK at capacity
    std::uint64_t flushes = 0;        // microflow-tier capacity resets
    /// Hashed subtable probes performed by tier-2 lookups (dpcls mode
    /// only; the linear-scan ablation reports per-entry comparisons
    /// through the lookup's `scanned` out-param instead).
    std::uint64_t subtable_probes = 0;
  };

  /// Self-referential epoch pointer (and per-shard tier state): moving
  /// a cache would leave epoch_ aimed at the moved-from object. Own
  /// caches in place (Pipeline holds its shards behind unique_ptr).
  FlowCache() = default;
  FlowCache(const FlowCache&) = delete;
  FlowCache& operator=(const FlowCache&) = delete;
  FlowCache(FlowCache&&) = delete;
  FlowCache& operator=(FlowCache&&) = delete;

  /// The live invalidation epoch: this cache's own counter, or the
  /// shared one after share_epoch(). FlowTable/GroupTable bump the
  /// same counter on any mutation (Pipeline wires their bind_epoch to
  /// its shard-shared slot — the dirty_ plumbing).
  [[nodiscard]] std::uint64_t epoch() const { return *epoch_; }

  /// Rebind this cache onto an external epoch counter — how the
  /// per-core shards of a multi-core datapath share one invalidation
  /// epoch (read-mostly: every shard checks it per lookup, only table
  /// and group mutations bump it). Call before any traffic: resident
  /// entries are stamped against the old counter.
  void share_epoch(std::uint64_t* slot) {
    epoch_ = slot;
    purged_epoch_ = *slot;
  }

  /// Invalidate everything (one epoch bump — entries die lazily; with
  /// a shared epoch this invalidates every sibling shard too, which is
  /// exactly what a table/group/port mutation means).
  void invalidate_all() { ++*epoch_; }

  /// Fast-path lookup: microflow probe, then the tier-2 classifier.
  /// Returns null on miss, on epoch mismatch, or when a covering
  /// entry's flow references have timed out. `scanned` (optional)
  /// reports the tier-2 work actually performed — hashed subtable
  /// probes in dpcls mode, per-entry comparisons in the linear-scan
  /// ablation, 0 for a microflow hit — so the datapath can charge it
  /// (cache_subtable_ns / cache_scan_ns respectively).
  MegaflowEntry* lookup(const FieldView& view, sim::SimNanos now,
                        std::uint32_t* scanned = nullptr);

  /// Burst-probe variant of lookup(): identical fast-path semantics,
  /// but a miss is NOT counted in stats — the residue re-enters the
  /// slow path via Pipeline::run(), whose own lookup accounts the
  /// packet exactly once (and may even hit, when an earlier packet of
  /// the same burst installed the covering megaflow).
  MegaflowEntry* probe(const FieldView& view, sim::SimNanos now,
                       std::uint32_t* scanned = nullptr);

  /// Install a freshly learned megaflow for the packet that built it.
  /// The entry is stamped with the current epoch; `view` seeds the
  /// microflow tier.
  MegaflowEntry* insert(MegaflowEntry entry, const FieldView& view);

  void clear();

  /// Ablation knob: probe tier 2 with the pre-classifier linear scan
  /// over insertion order instead of the per-mask subtables. The
  /// subtable index is maintained either way, so the mode can be
  /// flipped at any time.
  void set_linear_scan(bool linear) { linear_scan_ = linear; }
  [[nodiscard]] bool linear_scan() const { return linear_scan_; }

  [[nodiscard]] std::size_t megaflow_count() const { return megaflows_.size(); }
  /// Resident megaflows in insertion order — the CLOCK ring the
  /// eviction hand sweeps.
  [[nodiscard]] const std::list<MegaflowEntry>& megaflows() const { return megaflows_; }
  [[nodiscard]] std::size_t microflow_count() const { return microflow_.size(); }
  /// Live per-mask subtables (== distinct megaflow mask signatures).
  [[nodiscard]] std::size_t subtable_count() const { return subtables_.size(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  void set_limits(const Limits& limits) { limits_ = limits; }
  [[nodiscard]] const Limits& limits() const { return limits_; }

 private:
  /// FNV-style hash of the full presence bitmap + every present value.
  static std::uint64_t microflow_key(const FieldView& view);

  /// Shared body of lookup()/probe(); `count_miss` gates the miss stat.
  MegaflowEntry* find(const FieldView& view, sim::SimNanos now, std::uint32_t* scanned,
                      bool count_miss);

  /// Tier-2 probe bodies behind find(): classifier vs ablation. `key`
  /// is the packet's microflow key, already computed by the tier-1
  /// probe — a hit re-seeds tier 1 with it instead of rehashing.
  MegaflowEntry* find_subtables(const FieldView& view, sim::SimNanos now, std::uint64_t key,
                                std::uint32_t* scanned);
  MegaflowEntry* find_linear(const FieldView& view, sim::SimNanos now, std::uint64_t key,
                             std::uint32_t* scanned);

  /// Hit bookkeeping shared by both tier-2 probe paths: seed tier 1,
  /// bump stats and the entry's CLOCK bit.
  MegaflowEntry* tier2_hit(MegaflowEntry* entry, std::uint64_t key);

  /// Drop epoch-stale megaflows (and the microflow tier, whose pointers
  /// may reference them). Runs on the first lookup or insert after an
  /// epoch bump, so stale entries are never scanned repeatedly.
  void purge_stale();

  /// CLOCK second-chance sweep: spare referenced entries (clearing the
  /// bit), evict the first unreferenced one, and unmap any microflow
  /// pointers into it.
  void evict_one();

  /// Link `entry` into the subtable matching its signature (creating
  /// one at the back of the probe order if needed).
  void index_entry(MegaflowEntry* entry);
  /// Unlink `entry` from its subtable; drops the subtable when empty.
  void unindex_entry(MegaflowEntry* entry);

  /// Record a tier-1 key newly mapped to `entry`, compacting the
  /// per-entry key vector (dedupe + drop keys no longer mapped here)
  /// whenever it reaches a power-of-two watermark — bounded growth for
  /// long-lived elephants across tier-1 resets.
  void note_microflow_key(MegaflowEntry& entry, std::uint64_t key);

  std::uint64_t own_epoch_ = 1;         // storage for a standalone cache
  std::uint64_t* epoch_ = &own_epoch_;  // the (possibly shared) live counter
  std::uint64_t purged_epoch_ = 1;      // epoch purge_stale last ran against
  std::uint64_t tier2_lookups_ = 0; // drives the rank-decay cadence
  bool linear_scan_ = false;
  std::list<MegaflowEntry> megaflows_;  // insertion order: the CLOCK ring
  /// Next megaflow the eviction sweep examines; end() names the next
  /// appended entry.
  std::list<MegaflowEntry>::iterator clock_hand_ = megaflows_.end();
  /// The classifier, in probe order (kept sorted by decaying rank: a
  /// hit bubbles its subtable toward the front past colder neighbors).
  std::vector<std::unique_ptr<MegaflowSubtable>> subtables_;
  util::IdMap<MegaflowEntry*> microflow_;
  Limits limits_;
  Stats stats_;
};

}  // namespace harmless::openflow
