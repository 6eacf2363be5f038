#include "openflow/conntrack.hpp"

#include "net/ip.hpp"
#include "net/l4.hpp"

namespace harmless::openflow {

namespace {
constexpr std::uint8_t kProtoTcp = static_cast<std::uint8_t>(net::IpProto::kTcp);
}  // namespace

std::uint64_t ConnTracker::classify_entry(const Slot& slot, bool reply_dir) const {
  std::uint64_t bits = kCtTracked;
  if (reply_dir) {
    // A valid reply-direction packet proves bidirectionality, so it is
    // already ESTABLISHED from the classifier's point of view (the
    // entry's seen_reply flips when it traverses a ct action).
    bits |= kCtReply | kCtEstablished;
  } else if (slot.entry.seen_reply) {
    bits |= kCtEstablished;
  }
  return bits;
}

std::uint64_t ConnTracker::classify(const CtTuple& tuple, std::uint8_t tcp_flags,
                                    sim::SimNanos now) {
  ++stats_.lookups;
  if (const std::uint32_t* id = orig_map_.find(tuple)) {
    const Slot& slot = slots_[*id];
    if (slot.entry.expires_at > now) {
      ++stats_.hits;
      return classify_entry(slot, false);
    }
  }
  if (const std::uint32_t* id = reply_map_.find(tuple)) {
    const Slot& slot = slots_[*id];
    if (slot.entry.expires_at > now) {
      ++stats_.hits;
      return classify_entry(slot, true);
    }
  }
  if (tuple.proto == kProtoTcp && (tcp_flags & net::kTcpSyn) == 0) {
    // Mid-stream TCP with no entry: unclassifiable, never NEW.
    ++stats_.invalid;
    return kCtInvalid;
  }
  return kCtNew;
}

sim::SimNanos ConnTracker::timeout_for(const ConnEntry& entry) const {
  if (entry.orig.proto != kProtoTcp) return config_.udp_timeout;
  // Unconfirmed (restored/demoted) entries get the transient timeout
  // even when seen_reply: real traffic must re-confirm them before the
  // full established idle budget applies.
  if (entry.closing || !entry.seen_reply || !entry.confirmed) return config_.tcp_transient_timeout;
  return config_.tcp_established_timeout;
}

std::uint32_t ConnTracker::allocate_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t id = free_slots_.back();
    free_slots_.pop_back();
    return id;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void ConnTracker::lru_unlink(std::uint32_t id) {
  Slot& slot = slots_[id];
  if (slot.lru_prev != kNil) slots_[slot.lru_prev].lru_next = slot.lru_next;
  if (slot.lru_next != kNil) slots_[slot.lru_next].lru_prev = slot.lru_prev;
  if (lru_head_ == id) lru_head_ = slot.lru_next;
  if (lru_tail_ == id) lru_tail_ = slot.lru_prev;
  slot.lru_prev = slot.lru_next = kNil;
}

void ConnTracker::lru_push_front(std::uint32_t id) {
  Slot& slot = slots_[id];
  slot.lru_prev = kNil;
  slot.lru_next = lru_head_;
  if (lru_head_ != kNil) slots_[lru_head_].lru_prev = id;
  lru_head_ = id;
  if (lru_tail_ == kNil) lru_tail_ = id;
}

void ConnTracker::lru_touch(std::uint32_t id) {
  if (lru_head_ == id) return;
  lru_unlink(id);
  lru_push_front(id);
}

void ConnTracker::file_deadline(std::uint32_t id, const Slot& slot) {
  const sim::SimNanos q = config_.sweep_interval > 0 ? config_.sweep_interval : 1;
  const sim::SimNanos bucket = ((slot.entry.expires_at + q - 1) / q) * q;
  wheel_[bucket].emplace_back(id, slot.generation);
}

void ConnTracker::emit_delta(CtDelta::Kind kind, const ConnEntry& entry, sim::SimNanos now) {
  if (!delta_sink_) return;
  CtDelta delta;
  delta.kind = kind;
  delta.entry = CtSnapshotEntry{entry.orig, entry.reply, entry.nat, entry.seen_reply,
                                entry.closing,
                                entry.expires_at > now ? entry.expires_at - now : 0};
  ++stats_.deltas_emitted;
  delta_sink_(delta);
}

void ConnTracker::kill(std::uint32_t id, bool /*expired*/, sim::SimNanos now) {
  Slot& slot = slots_[id];
  dirty_ = true;
  emit_delta(CtDelta::Kind::kClose, slot.entry, now);
  orig_map_.erase(slot.entry.orig);
  reply_map_.erase(slot.entry.reply);
  lru_unlink(id);
  slot.live = false;
  ++slot.generation;  // invalidates any wheel references
  free_slots_.push_back(id);
}

void ConnTracker::refresh(Slot& slot, std::uint32_t id, bool reply_dir, std::uint8_t tcp_flags,
                          sim::SimNanos now) {
  ConnEntry& entry = slot.entry;
  const bool was_reply = entry.seen_reply;
  const bool was_closing = entry.closing;
  const bool was_confirmed = entry.confirmed;
  entry.confirmed = true;  // real traffic re-confirms a restored entry
  if (reply_dir) {
    entry.seen_reply = true;
    ++entry.packets_reply;
  } else {
    ++entry.packets_orig;
  }
  if (entry.orig.proto == kProtoTcp && (tcp_flags & (net::kTcpFin | net::kTcpRst)) != 0) {
    entry.closing = true;
  }
  entry.last_seen = now;
  entry.expires_at = now + timeout_for(entry);
  lru_touch(id);
  dirty_ = true;
  ++stats_.refreshed;
  // Replicate state *advances* only — per-packet refreshes stay local,
  // so the sync stream scales with connection churn, not with traffic.
  if ((entry.seen_reply && !was_reply) || (entry.closing && !was_closing) || !was_confirmed) {
    emit_delta(CtDelta::Kind::kUpdate, entry, now);
  }
  // The wheel reference filed at creation (or at the last sweep) stays
  // put; the sweep re-files the entry when its stale bucket comes due.
}

std::optional<std::uint16_t> ConnTracker::allocate_snat_port(const CtTuple& orig,
                                                             const CtAction& spec) const {
  if (spec.port_min == 0 || spec.port_max < spec.port_min) return std::nullopt;
  const std::uint32_t range =
      static_cast<std::uint32_t>(spec.port_max - spec.port_min) + 1;
  // Both directions of the translated connection must steer to the
  // shard the *original* direction already landed on (symmetric RSS of
  // the pre-NAT tuple) — otherwise reverse traffic would need
  // cross-core state. The virtual-shard formulation (hash % shards,
  // not "this shard's index") makes the allocation independent of
  // which physical shard runs it, so a single-core run with the same
  // nat_steer_shards reproduces an N-core run's ports exactly.
  const std::uint64_t h = orig.symmetric_hash();
  const std::uint64_t want = h % steer_shards_;
  const std::uint32_t start = static_cast<std::uint32_t>((h >> 17) % range);
  for (std::uint32_t i = 0; i < range; ++i) {
    const std::uint16_t port =
        static_cast<std::uint16_t>(spec.port_min + (start + i) % range);
    const CtTuple reply{orig.dst_ip, spec.nat_ip, orig.dst_port, port, orig.proto};
    if (reply.symmetric_hash() % steer_shards_ != want) continue;
    if (reply_map_.contains(reply)) continue;  // endpoint-dependent uniqueness
    return port;
  }
  return std::nullopt;
}

CtOutcome ConnTracker::process(const CtTuple& tuple, std::uint8_t tcp_flags, sim::SimNanos now,
                               const CtAction& spec) {
  CtOutcome out;

  // Lazy expiry: an entry past its deadline is dead even if the sweep
  // has not reaped it yet — identical behavior to the classifier
  // prelude, which already treats it as missing.
  if (const std::uint32_t* found = orig_map_.find(tuple)) {
    const std::uint32_t id = *found;
    if (slots_[id].entry.expires_at <= now) {
      kill(id, true, now);
      ++stats_.expired;
    } else {
      Slot& slot = slots_[id];
      out.state = classify_entry(slot, false);
      refresh(slot, id, false, tcp_flags, now);
      const CtNat& nat = slot.entry.nat;
      if (nat.kind == CtAction::Nat::kSource) {
        out.rewrite = true;
        out.translation.src = true;
        out.translation.src_ip = nat.ip;
        out.translation.src_port = nat.port;
      } else if (nat.kind == CtAction::Nat::kDest) {
        out.rewrite = true;
        out.translation.dst = true;
        out.translation.dst_ip = nat.ip;
        out.translation.dst_port = nat.port;
      }
      return out;
    }
  }
  if (const std::uint32_t* found = reply_map_.find(tuple)) {
    const std::uint32_t id = *found;
    if (slots_[id].entry.expires_at <= now) {
      kill(id, true, now);
      ++stats_.expired;
    } else {
      Slot& slot = slots_[id];
      out.state = classify_entry(slot, true);
      refresh(slot, id, true, tcp_flags, now);
      const ConnEntry& entry = slot.entry;
      if (entry.nat.kind == CtAction::Nat::kSource) {
        // Un-SNAT: send the reply back to the original inside host.
        out.rewrite = true;
        out.translation.dst = true;
        out.translation.dst_ip = entry.orig.src_ip;
        out.translation.dst_port = entry.orig.src_port;
      } else if (entry.nat.kind == CtAction::Nat::kDest) {
        // Un-DNAT: restore the original (virtual) destination as source.
        out.rewrite = true;
        out.translation.src = true;
        out.translation.src_ip = entry.orig.dst_ip;
        out.translation.src_port = entry.orig.dst_port;
      }
      return out;
    }
  }

  // Miss: commit a new connection. A fenced shard (lease lost) must
  // not mint state — no new entries, no NAT allocations — or a
  // partitioned ex-active and a promoted standby could hand the same
  // external port to two different connections.
  if (fenced_) {
    ++stats_.fenced_rejects;
    out.state = kCtInvalid;
    return out;
  }
  if (tuple.proto == kProtoTcp && (tcp_flags & net::kTcpSyn) == 0) {
    ++stats_.invalid;
    out.state = kCtInvalid;
    return out;
  }
  out.state = kCtNew;

  CtNat nat{};
  CtTuple reply = tuple.reversed();
  if (spec.nat == CtAction::Nat::kSource) {
    const std::optional<std::uint16_t> port = allocate_snat_port(tuple, spec);
    if (!port) {
      ++stats_.nat_failures;
      out.state |= kCtInvalid;
      return out;
    }
    nat = CtNat{CtAction::Nat::kSource, spec.nat_ip, *port};
    reply = CtTuple{tuple.dst_ip, spec.nat_ip, tuple.dst_port, *port, tuple.proto};
    ++stats_.nat_allocated;
    out.rewrite = true;
    out.translation.src = true;
    out.translation.src_ip = nat.ip;
    out.translation.src_port = nat.port;
  } else if (spec.nat == CtAction::Nat::kDest) {
    const std::uint16_t port = spec.port_min != 0 ? spec.port_min : tuple.dst_port;
    nat = CtNat{CtAction::Nat::kDest, spec.nat_ip, port};
    reply = CtTuple{spec.nat_ip, tuple.src_ip, port, tuple.src_port, tuple.proto};
    if (reply_map_.contains(reply)) {
      ++stats_.nat_failures;
      out.state |= kCtInvalid;
      return out;
    }
    ++stats_.nat_allocated;
    out.rewrite = true;
    out.translation.dst = true;
    out.translation.dst_ip = nat.ip;
    out.translation.dst_port = nat.port;
  } else if (reply_map_.contains(reply)) {
    // Degenerate self-conflict (e.g. a palindromic tuple already
    // tracked the other way): refuse rather than corrupt the maps.
    ++stats_.nat_failures;
    out.state |= kCtInvalid;
    return out;
  }

  if (orig_map_.size() >= config_.max_connections && lru_tail_ != kNil) {
    kill(lru_tail_, false, now);
    ++stats_.evicted;
  }

  const std::uint32_t id = allocate_slot();
  Slot& slot = slots_[id];
  slot.entry = ConnEntry{};
  slot.entry.orig = tuple;
  slot.entry.reply = reply;
  slot.entry.nat = nat;
  slot.entry.last_seen = now;
  slot.entry.packets_orig = 1;
  slot.entry.expires_at = now + timeout_for(slot.entry);
  slot.live = true;
  orig_map_.emplace(tuple, id);
  reply_map_.emplace(reply, id);
  lru_push_front(id);
  file_deadline(id, slot);
  dirty_ = true;
  ++stats_.created;
  out.committed = true;
  emit_delta(CtDelta::Kind::kCommit, slot.entry, now);
  return out;
}

std::size_t ConnTracker::expire(sim::SimNanos now) {
  std::size_t expired = 0;
  while (!wheel_.empty() && wheel_.begin()->first <= now) {
    const auto node = wheel_.extract(wheel_.begin());
    for (const auto& [id, generation] : node.mapped()) {
      Slot& slot = slots_[id];
      if (!slot.live || slot.generation != generation) continue;
      if (slot.entry.expires_at <= now) {
        kill(id, true, now);
        ++stats_.expired;
        ++expired;
      } else {
        file_deadline(id, slot);  // refreshed since filing: re-file
      }
    }
  }
  return expired;
}

std::optional<sim::SimNanos> ConnTracker::next_deadline() const {
  if (wheel_.empty()) return std::nullopt;
  return wheel_.begin()->first;
}

std::vector<ConnEntry> ConnTracker::snapshot() const {
  std::vector<ConnEntry> out;
  out.reserve(orig_map_.size());
  for (const Slot& slot : slots_) {
    if (slot.live) out.push_back(slot.entry);
  }
  return out;
}

void ConnTracker::clear() {
  slots_.clear();
  free_slots_.clear();
  orig_map_.clear();
  reply_map_.clear();
  wheel_.clear();
  lru_head_ = lru_tail_ = kNil;
  dirty_ = true;  // a wiped table differs from its last checkpoint
  // Stats survive a clear — a datapath crash wipes state, not counters.
  // The delta sink and fencing latch survive too: wiring and role,
  // not connection state.
}

// --- checkpoint/restore ---------------------------------------------

namespace {

constexpr std::uint32_t kSnapshotMagic = 0x4354534e;  // "CTSN"
constexpr std::uint16_t kSnapshotVersion = 1;

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int b = 0; b < 4; ++b) out.push_back(static_cast<std::uint8_t>(v >> (b * 8)));
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) out.push_back(static_cast<std::uint8_t>(v >> (b * 8)));
}
void put_tuple(std::vector<std::uint8_t>& out, const CtTuple& t) {
  put_u32(out, t.src_ip);
  put_u32(out, t.dst_ip);
  put_u16(out, t.src_port);
  put_u16(out, t.dst_port);
  out.push_back(t.proto);
}

struct Reader {
  const std::vector<std::uint8_t>& bytes;
  std::size_t at = 0;
  bool ok = true;

  std::uint8_t u8() {
    if (at + 1 > bytes.size()) return ok = false, 0;
    return bytes[at++];
  }
  std::uint16_t u16() {
    std::uint16_t v = u8();
    return static_cast<std::uint16_t>(v | (static_cast<std::uint16_t>(u8()) << 8));
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int b = 0; b < 4; ++b) v |= static_cast<std::uint32_t>(u8()) << (b * 8);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b) v |= static_cast<std::uint64_t>(u8()) << (b * 8);
    return v;
  }
  CtTuple tuple() {
    CtTuple t;
    t.src_ip = u32();
    t.dst_ip = u32();
    t.src_port = u16();
    t.dst_port = u16();
    t.proto = u8();
    return t;
  }
};

}  // namespace

std::vector<std::uint8_t> CtSnapshot::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(18 + entries.size() * 42);
  put_u32(out, kSnapshotMagic);
  put_u16(out, kSnapshotVersion);
  put_u64(out, static_cast<std::uint64_t>(taken_at));
  put_u32(out, static_cast<std::uint32_t>(entries.size()));
  for (const CtSnapshotEntry& e : entries) {
    put_tuple(out, e.orig);
    put_tuple(out, e.reply);
    out.push_back(static_cast<std::uint8_t>(e.nat.kind));
    put_u32(out, e.nat.ip);
    put_u16(out, e.nat.port);
    out.push_back(static_cast<std::uint8_t>((e.seen_reply ? 1 : 0) | (e.closing ? 2 : 0)));
    put_u64(out, static_cast<std::uint64_t>(e.remaining_ns));
  }
  return out;
}

std::optional<CtSnapshot> CtSnapshot::parse(const std::vector<std::uint8_t>& bytes) {
  Reader in{bytes};
  if (in.u32() != kSnapshotMagic) return std::nullopt;
  if (in.u16() != kSnapshotVersion) return std::nullopt;
  CtSnapshot snap;
  snap.taken_at = static_cast<sim::SimNanos>(in.u64());
  const std::uint32_t count = in.u32();
  if (!in.ok) return std::nullopt;
  snap.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    CtSnapshotEntry e;
    e.orig = in.tuple();
    e.reply = in.tuple();
    e.nat.kind = static_cast<CtAction::Nat>(in.u8());
    e.nat.ip = in.u32();
    e.nat.port = in.u16();
    const std::uint8_t flags = in.u8();
    e.seen_reply = (flags & 1) != 0;
    e.closing = (flags & 2) != 0;
    e.remaining_ns = static_cast<sim::SimNanos>(in.u64());
    if (!in.ok) return std::nullopt;
    snap.entries.push_back(e);
  }
  if (in.at != bytes.size()) return std::nullopt;  // trailing garbage
  return snap;
}

CtSnapshot ConnTracker::checkpoint(sim::SimNanos now) {
  CtSnapshot snap;
  snap.taken_at = now;
  snap.entries.reserve(orig_map_.size());
  for (const Slot& slot : slots_) {
    if (!slot.live) continue;
    const ConnEntry& e = slot.entry;
    if (e.expires_at <= now) continue;  // already dead, just unswept
    snap.entries.push_back(CtSnapshotEntry{e.orig, e.reply, e.nat, e.seen_reply, e.closing,
                                           e.expires_at - now});
  }
  ++stats_.checkpoints;
  return snap;
}

CtRestoreResult ConnTracker::restore(const CtSnapshot& snapshot, sim::SimNanos now) {
  CtRestoreResult result;
  for (const CtSnapshotEntry& e : snapshot.entries) {
    // Mid-handshake TCP (never saw a reply): the peer will retransmit
    // its SYN and re-commit cleanly; restoring a half-open entry only
    // risks resurrecting a connection that never completed.
    const bool half_open = e.orig.proto == kProtoTcp && !e.seen_reply;
    const bool collides = orig_map_.contains(e.orig) || reply_map_.contains(e.reply) ||
                          reply_map_.contains(e.orig) || orig_map_.contains(e.reply);
    if (half_open || e.remaining_ns <= 0 || collides ||
        orig_map_.size() >= config_.max_connections) {
      ++result.dropped;
      ++stats_.restore_dropped;
      continue;
    }
    const std::uint32_t id = allocate_slot();
    Slot& slot = slots_[id];
    slot.entry = ConnEntry{};
    slot.entry.orig = e.orig;
    slot.entry.reply = e.reply;
    slot.entry.nat = e.nat;
    slot.entry.seen_reply = e.seen_reply;
    slot.entry.closing = e.closing;
    slot.entry.confirmed = false;  // demoted until traffic re-confirms
    slot.entry.last_seen = now;
    const sim::SimNanos cap = timeout_for(slot.entry);  // transient for TCP
    slot.entry.expires_at = now + (e.remaining_ns < cap ? e.remaining_ns : cap);
    slot.live = true;
    orig_map_.emplace(e.orig, id);
    reply_map_.emplace(e.reply, id);
    lru_push_front(id);
    file_deadline(id, slot);
    dirty_ = true;
    ++result.restored;
    ++stats_.restored;
  }
  return result;
}

// --- active→standby replication -------------------------------------

void ConnTracker::apply_delta(const CtDelta& delta, sim::SimNanos now) {
  ++stats_.deltas_applied;
  const CtSnapshotEntry& e = delta.entry;
  const std::uint32_t* found = orig_map_.find(e.orig);

  if (delta.kind == CtDelta::Kind::kClose) {
    if (found != nullptr && slots_[*found].entry.reply == e.reply) kill(*found, false, now);
    return;
  }

  if (found != nullptr) {
    // In-place advance of a connection we already mirror. A reply-tuple
    // mismatch means a different connection owns the key: drop rather
    // than corrupt the reverse map.
    const std::uint32_t id = *found;
    Slot& slot = slots_[id];
    if (!(slot.entry.reply == e.reply)) return;
    slot.entry.seen_reply = e.seen_reply;
    slot.entry.closing = e.closing;
    slot.entry.nat = e.nat;
    slot.entry.confirmed = true;
    slot.entry.last_seen = now;
    slot.entry.expires_at = now + e.remaining_ns;
    lru_touch(id);
    file_deadline(id, slot);
    dirty_ = true;
    return;
  }

  // New to this replica (a commit, or an update whose commit was lost):
  // insert, unless it collides with live local state.
  if (e.remaining_ns <= 0 || reply_map_.contains(e.reply) || orig_map_.contains(e.reply) ||
      reply_map_.contains(e.orig)) {
    return;
  }
  if (orig_map_.size() >= config_.max_connections && lru_tail_ != kNil) {
    kill(lru_tail_, false, now);
    ++stats_.evicted;
  }
  const std::uint32_t id = allocate_slot();
  Slot& slot = slots_[id];
  slot.entry = ConnEntry{};
  slot.entry.orig = e.orig;
  slot.entry.reply = e.reply;
  slot.entry.nat = e.nat;
  slot.entry.seen_reply = e.seen_reply;
  slot.entry.closing = e.closing;
  slot.entry.confirmed = true;  // the live stream itself vouches for it
  slot.entry.last_seen = now;
  slot.entry.expires_at = now + e.remaining_ns;
  slot.live = true;
  orig_map_.emplace(e.orig, id);
  reply_map_.emplace(e.reply, id);
  lru_push_front(id);
  file_deadline(id, slot);
  dirty_ = true;
}

std::size_t ConnTracker::demote_all(sim::SimNanos now) {
  std::size_t demoted = 0;
  for (std::uint32_t id = 0; id < slots_.size(); ++id) {
    Slot& slot = slots_[id];
    if (!slot.live) continue;
    slot.entry.confirmed = false;
    const sim::SimNanos cap = now + timeout_for(slot.entry);
    if (slot.entry.expires_at > cap) {
      slot.entry.expires_at = cap;
      file_deadline(id, slot);
    }
    ++demoted;
  }
  if (demoted != 0) dirty_ = true;
  return demoted;
}

std::size_t ConnTracker::resync(const CtSnapshot& snapshot, sim::SimNanos now) {
  std::size_t upserts = 0;
  // Per-slot "the snapshot vouched for this connection" flags, indexed
  // by slot id (grown as upserts allocate slots).
  std::vector<bool> covered(slots_.size(), false);
  const auto cover = [&](std::uint32_t id) {
    if (id >= covered.size()) covered.resize(slots_.size(), false);
    covered[id] = true;
  };

  for (const CtSnapshotEntry& e : snapshot.entries) {
    if (e.remaining_ns <= 0) continue;
    // The snapshot is authoritative: evict any local connection that
    // claims either of this entry's tuples but is not this connection.
    // (kill() may emit a kClose delta; the HA layer's sink is
    // role/fence-gated, so a resyncing box never echoes these out.)
    for (const CtTuple* t : {&e.orig, &e.reply}) {
      if (const std::uint32_t* found = orig_map_.find(*t)) {
        const std::uint32_t id = *found;
        const Slot& s = slots_[id];
        if (!(s.entry.orig == e.orig && s.entry.reply == e.reply)) kill(id, false, now);
      }
      if (const std::uint32_t* found = reply_map_.find(*t)) {
        const std::uint32_t id = *found;
        const Slot& s = slots_[id];
        if (!(s.entry.orig == e.orig && s.entry.reply == e.reply)) kill(id, false, now);
      }
    }

    if (const std::uint32_t* found = orig_map_.find(e.orig)) {
      // Same connection survives locally: take the active's view.
      const std::uint32_t id = *found;
      Slot& slot = slots_[id];
      slot.entry.nat = e.nat;
      slot.entry.seen_reply = e.seen_reply;
      slot.entry.closing = e.closing;
      slot.entry.confirmed = true;
      slot.entry.last_seen = now;
      slot.entry.expires_at = now + e.remaining_ns;
      lru_touch(id);
      file_deadline(id, slot);
      cover(id);
      ++upserts;
      continue;
    }
    if (orig_map_.size() >= config_.max_connections && lru_tail_ != kNil) {
      kill(lru_tail_, false, now);
      ++stats_.evicted;
    }
    const std::uint32_t id = allocate_slot();
    Slot& slot = slots_[id];
    slot.entry = ConnEntry{};
    slot.entry.orig = e.orig;
    slot.entry.reply = e.reply;
    slot.entry.nat = e.nat;
    slot.entry.seen_reply = e.seen_reply;
    slot.entry.closing = e.closing;
    slot.entry.confirmed = true;  // streamed by the live active
    slot.entry.last_seen = now;
    slot.entry.expires_at = now + e.remaining_ns;
    slot.live = true;
    orig_map_.emplace(e.orig, id);
    reply_map_.emplace(e.reply, id);
    lru_push_front(id);
    file_deadline(id, slot);
    cover(id);
    ++upserts;
  }

  // Anything the snapshot did not vouch for is suspect ex-active state:
  // demote it so it either re-confirms through traffic or ages out on
  // the transient timeout.
  for (std::uint32_t id = 0; id < slots_.size(); ++id) {
    Slot& slot = slots_[id];
    if (!slot.live || (id < covered.size() && covered[id])) continue;
    slot.entry.confirmed = false;
    const sim::SimNanos cap = now + timeout_for(slot.entry);
    if (slot.entry.expires_at > cap) {
      slot.entry.expires_at = cap;
      file_deadline(id, slot);
    }
  }
  dirty_ = true;
  return upserts;
}

}  // namespace harmless::openflow
