// util/id_map.hpp — a flat open-addressing map from a small,
// trivially-copyable key (a 64-bit id by default) to a small
// trivially-copyable value, for per-packet bookkeeping on the hot path.
//
// std::unordered_map pays a node allocation per insert and a free per
// erase — two mallocs per recorded packet in LatencyRecorder, a pointer
// chase per FlowCache microflow probe, and a node per tracked direction
// of every conntrack connection. This map stores (key, value) pairs in
// one flat array with linear probing and backward-shift deletion, so
// steady-state find/insert/erase touch a couple of cache lines and
// never allocate. Keys compare by value; a value-initialized key
// (`Key{}`, i.e. id 0) is the empty marker, so it is carried in a side
// slot and arbitrary keys stay legal.
//
// Integral keys hash as themselves; any other key type must expose
// `std::uint64_t key_hash() const` (e.g. openflow::CtTuple). Either way
// the hash is spread over the table with Fibonacci hashing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace harmless::util {

template <typename Value, typename Key = std::uint64_t>
class IdMap {
 public:
  IdMap() { rehash(kMinCapacity); }

  [[nodiscard]] std::size_t size() const { return size_ + (has_empty_key_ ? 1 : 0); }
  [[nodiscard]] bool empty() const { return size() == 0; }

  void clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
    has_empty_key_ = false;
  }

  /// Insert `key` -> `value`, overwriting any existing entry.
  void insert_or_assign(const Key& key, Value value) { *insert_slot(key).first = value; }

  /// Insert `key` -> `value` only when `key` is absent (an existing
  /// entry keeps its value). Returns true when it inserted.
  bool emplace(const Key& key, Value value) {
    const auto [slot, inserted] = insert_slot(key);
    if (inserted) *slot = value;
    return inserted;
  }

  /// Pointer to `key`'s value, or nullptr when absent. Invalidated by
  /// any mutation.
  [[nodiscard]] const Value* find(const Key& key) const {
    if (key == Key{}) return has_empty_key_ ? &empty_key_value_ : nullptr;
    std::size_t slot = probe_start(key);
    while (!(slots_[slot].key == key)) {
      if (slots_[slot].key == Key{}) return nullptr;
      slot = (slot + 1) & mask_;
    }
    return &slots_[slot].value;
  }
  [[nodiscard]] Value* find(const Key& key) {
    return const_cast<Value*>(std::as_const(*this).find(key));
  }
  [[nodiscard]] bool contains(const Key& key) const { return find(key) != nullptr; }

  /// Remove `key` if present.
  void erase(const Key& key) {
    Value value;
    take(key, &value);
  }

  /// Find `key`; on a hit, store its value in `*value`, erase the
  /// entry, and return true.
  bool take(const Key& key, Value* value) {
    if (key == Key{}) {
      if (!has_empty_key_) return false;
      *value = empty_key_value_;
      has_empty_key_ = false;
      return true;
    }
    std::size_t slot = probe_start(key);
    while (!(slots_[slot].key == key)) {
      if (slots_[slot].key == Key{}) return false;
      slot = (slot + 1) & mask_;
    }
    *value = slots_[slot].value;
    erase_slot(slot);
    --size_;
    return true;
  }

  /// Table slots currently allocated (tests: growth and wrap-around).
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    Key key{};
    Value value{};
  };
  static constexpr std::size_t kMinCapacity = 64;

  [[nodiscard]] static std::uint64_t hash_of(const Key& key) {
    if constexpr (std::is_integral_v<Key>) {
      return static_cast<std::uint64_t>(key);
    } else {
      return key.key_hash();
    }
  }

  [[nodiscard]] std::size_t probe_start(const Key& key) const {
    // Fibonacci hashing: spreads sequential packet ids across the
    // table while keeping the probe computation two instructions.
    return static_cast<std::size_t>((hash_of(key) * 0x9E3779B97F4A7C15ull) >> shift_) & mask_;
  }

  /// The value slot for `key`, inserting a default-valued entry when
  /// absent; `.second` says whether it did.
  std::pair<Value*, bool> insert_slot(const Key& key) {
    if (key == Key{}) {
      const bool inserted = !has_empty_key_;
      has_empty_key_ = true;
      return {&empty_key_value_, inserted};
    }
    if ((size_ + 1) * 8 > slots_.size() * 7) rehash(slots_.size() * 2);
    std::size_t slot = probe_start(key);
    while (!(slots_[slot].key == Key{}) && !(slots_[slot].key == key)) slot = (slot + 1) & mask_;
    if (!(slots_[slot].key == Key{})) return {&slots_[slot].value, false};
    slots_[slot].key = key;
    ++size_;
    return {&slots_[slot].value, true};
  }

  void erase_slot(std::size_t hole) {
    // Backward-shift deletion keeps probe chains dense (no
    // tombstones): pull every displaced follower back over the hole.
    std::size_t slot = hole;
    for (;;) {
      slot = (slot + 1) & mask_;
      if (slots_[slot].key == Key{}) break;
      const std::size_t home = probe_start(slots_[slot].key);
      if (((slot - home) & mask_) >= ((slot - hole) & mask_)) {
        slots_[hole] = slots_[slot];
        hole = slot;
      }
    }
    slots_[hole] = Slot{};
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old_slots = std::move(slots_);
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 64;
    while ((std::size_t{1} << (64 - shift_)) < capacity) --shift_;
    size_ = 0;
    for (const Slot& old : old_slots) {
      if (!(old.key == Key{})) insert_or_assign(old.key, old.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;  // entries in slots_ (the empty-key side slot excluded)
  bool has_empty_key_ = false;
  Value empty_key_value_{};
};

}  // namespace harmless::util
