// Buffers between send and delivery. A link or stream moves each sent
// buffer into a slot here and schedules an event that carries only the slot
// index; the delivery event moves the buffer back out. The callback then
// fits std::function's inline buffer, and slots are reused through a free
// list, so the steady state allocates nothing per message.
#pragma once

#include <cstdint>
#include <vector>

#include "netbase/bytes.h"

namespace peering::sim {

class InFlight {
 public:
  /// Takes ownership of `data`; returns the slot holding it.
  std::uint32_t put(Bytes data) {
    if (free_.empty()) {
      slots_.push_back(std::move(data));
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(data);
    return slot;
  }

  /// Moves the buffer out of `slot` and frees the slot.
  Bytes take(std::uint32_t slot) {
    Bytes data = std::move(slots_[slot]);
    free_.push_back(slot);
    return data;
  }

 private:
  std::vector<Bytes> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace peering::sim
