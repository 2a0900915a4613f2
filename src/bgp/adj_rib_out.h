// Adj-RIB-Out storage: a flat open-addressed map from prefix to one
// session's per-prefix export state.
//
// The speaker probes one Adj-RIB-Out per member for every prefix a flush
// touches, so the probe dominates the fan-out path. A node-based hash map
// pays bucket -> node -> value (three or four dependent cache misses) per
// probe, and one allocation per prefix. This table keeps the key inline in
// a 32-byte slot beside the value (for the speaker, the path vector whose
// buffer is out of line), so a hit costs the slot line plus the paths.
//
// - Power-of-two slot array, linear probing.
// - Multiplicative (Fibonacci) hash of (address << 8 | length), taking the
//   high bits: consecutive prefixes spread over the table. The identity
//   std::hash<Ipv4Prefix> must never feed a power-of-two mask.
// - A length above 32 marks an empty slot; there are no tombstones —
//   erase shifts the rest of the probe run back into the hole.
// - The array doubles once it would pass 3/4 load and is freed by clear().
//   It never shrinks otherwise: a session's Adj-RIB-Out size is bounded by
//   the table it is synced from.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "netbase/prefix.h"

namespace peering::bgp {

template <typename V>
class AdjRibOut {
 public:
  /// Slot count of the first allocation.
  static constexpr std::size_t kInitialCapacity = 16;
  /// Slot length marking an empty slot (no prefix is longer than 32).
  static constexpr std::uint8_t kEmpty = 0xff;

  struct Slot {
    std::uint32_t address = 0;
    std::uint8_t length = kEmpty;
    V value{};

    bool empty() const { return length == kEmpty; }
    Ipv4Prefix prefix() const { return Ipv4Prefix(Ipv4Address(address), length); }
  };

  /// Home slot of `prefix` in a table of `capacity` slots (a power of two).
  static std::size_t home_slot(const Ipv4Prefix& prefix, std::size_t capacity) {
    return mix(prefix.address().value(), prefix.length(),
               64 - static_cast<unsigned>(std::countr_zero(capacity)));
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return slots_ ? mask_ + 1 : 0; }
  /// Times the slot array doubled since construction (the first
  /// allocation is not a grow). A work count for growth-policy guards.
  std::uint64_t grows() const { return grows_; }
  /// Bytes of the slot array (values' own heap blocks not included).
  std::size_t slot_bytes() const { return capacity() * sizeof(Slot); }

  V* find(const Ipv4Prefix& prefix) {
    if (!slots_) return nullptr;
    const std::uint32_t address = prefix.address().value();
    const std::uint8_t length = prefix.length();
    for (std::size_t i = home(address, length);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.address == address && slot.length == length) return &slot.value;
      if (slot.empty()) return nullptr;
    }
  }
  const V* find(const Ipv4Prefix& prefix) const {
    return const_cast<AdjRibOut*>(this)->find(prefix);
  }

  /// The value under `prefix`, default-constructed if absent. May grow the
  /// array, which invalidates every pointer find() returned.
  V& emplace(const Ipv4Prefix& prefix) {
    if ((size_ + 1) * 4 > capacity() * 3) grow();
    const std::uint32_t address = prefix.address().value();
    const std::uint8_t length = prefix.length();
    for (std::size_t i = home(address, length);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.address == address && slot.length == length) return slot.value;
      if (slot.empty()) {
        slot.address = address;
        slot.length = length;
        ++size_;
        return slot.value;
      }
    }
  }

  /// Removes `prefix`; returns whether it was present. Backward-shift
  /// deletion: each later entry of the probe run whose home is not between
  /// the hole and itself moves into the hole, so finds never need a
  /// tombstone to keep probing.
  bool erase(const Ipv4Prefix& prefix) {
    if (!slots_) return false;
    const std::uint32_t address = prefix.address().value();
    const std::uint8_t length = prefix.length();
    std::size_t hole = home(address, length);
    while (slots_[hole].address != address || slots_[hole].length != length) {
      if (slots_[hole].empty()) return false;
      hole = (hole + 1) & mask_;
    }
    for (std::size_t j = (hole + 1) & mask_; !slots_[j].empty();
         j = (j + 1) & mask_) {
      const std::size_t probe_len =
          (j - home(slots_[j].address, slots_[j].length)) & mask_;
      if (probe_len >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Drops every entry and frees the slot array.
  void clear() {
    slots_.reset();
    mask_ = 0;
    shift_ = 64;
    size_ = 0;
  }

  /// Calls fn(prefix, value) once per entry, in slot (hash) order.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < capacity(); ++i)
      if (!slots_[i].empty()) fn(slots_[i].prefix(), slots_[i].value);
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < capacity(); ++i)
      if (!slots_[i].empty())
        fn(slots_[i].prefix(), static_cast<const V&>(slots_[i].value));
  }

 private:
  static std::size_t mix(std::uint32_t address, std::uint8_t length,
                         unsigned shift) {
    const std::uint64_t key = (std::uint64_t{address} << 8) | length;
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> shift);
  }
  std::size_t home(std::uint32_t address, std::uint8_t length) const {
    return mix(address, length, shift_);
  }

  void grow() {
    const std::size_t old_capacity = capacity();
    const std::size_t new_capacity =
        old_capacity == 0 ? kInitialCapacity : 2 * old_capacity;
    std::unique_ptr<Slot[]> old = std::move(slots_);
    slots_ = std::make_unique<Slot[]>(new_capacity);
    mask_ = new_capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(new_capacity));
    if (old_capacity == 0) return;
    ++grows_;
    for (std::size_t i = 0; i < old_capacity; ++i) {
      Slot& from = old[i];
      if (from.empty()) continue;
      std::size_t j = home(from.address, from.length);
      while (!slots_[j].empty()) j = (j + 1) & mask_;
      slots_[j] = std::move(from);
    }
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
  std::uint64_t grows_ = 0;
};

}  // namespace peering::bgp
