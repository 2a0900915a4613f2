// Deterministic discrete-event simulation core. All protocol machinery in
// the library (link transmission, ARP, BGP timers, enforcement windows) is
// driven by a single EventLoop, so an entire multi-PoP PEERING deployment
// executes reproducibly inside one process.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "netbase/time.h"

namespace peering::sim {

class EventLoop {
 public:
  using Callback = std::function<void()>;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at` (clamped to now if in the
  /// past). Events at equal times run in scheduling order (FIFO), which keeps
  /// runs deterministic. `owner`, when set, is kept alive until the event
  /// has run or the loop is destroyed, so a callback can capture a raw
  /// pointer to it and stay small enough for std::function's inline buffer
  /// (no allocation per event).
  void schedule_at(SimTime at, Callback fn,
                   std::shared_ptr<void> owner = nullptr) {
    if (at < now_) at = now_;
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.push_back({std::move(fn), std::move(owner)});
    } else {
      slot = free_.back();
      free_.pop_back();
      slab_[slot] = {std::move(fn), std::move(owner)};
    }
    heap_.push_back(Key{at, seq_++, slot});
    sift_up(heap_.size() - 1);
  }

  /// Schedules `fn` to run `delay` after the current time.
  void schedule_after(Duration delay, Callback fn,
                      std::shared_ptr<void> owner = nullptr) {
    schedule_at(now_ + delay, std::move(fn), std::move(owner));
  }

  /// Runs events until the queue is empty or `limit` events have executed.
  /// Returns the number of events executed.
  std::size_t run(std::size_t limit = SIZE_MAX) {
    std::size_t executed = 0;
    while (!heap_.empty() && executed < limit) {
      step();
      ++executed;
    }
    return executed;
  }

  /// Runs events with timestamps <= `until`, then advances the clock to
  /// exactly `until` (even if idle). Returns the number of events executed.
  std::size_t run_until(SimTime until) {
    std::size_t executed = 0;
    while (!heap_.empty() && heap_.front().at <= until) {
      step();
      ++executed;
    }
    if (now_ < until) now_ = until;
    // Every event scheduled so far at or before `until` has run.
    frontier_ = seq_;
    return executed;
  }

  /// Convenience: run_until(now + d).
  std::size_t run_for(Duration d) { return run_until(now_ + d); }

  bool idle() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

  /// The sequence number the next scheduled event receives.
  std::uint64_t next_seq() const { return seq_; }

  /// True once the loop has passed the point (`at`, `seq`): an event at
  /// `at` ordered just before the event numbered `seq` would already have
  /// run. Lets a component keep a virtual event (the link's queue drain)
  /// without scheduling it, and still observe it in exactly the order a
  /// real event would have run.
  bool passed(SimTime at, std::uint64_t seq) const {
    return at < now_ || (at == now_ && seq < frontier_);
  }

 private:
  /// Heap entry: 24 bytes, so sifts move plain structs; the callback stays
  /// put in its slab slot.
  struct Key {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;

    /// Strict priority: earlier time first; FIFO by sequence within a time.
    /// The (time, seq) order is total, so heap-internal tie-breaks can't
    /// affect determinism.
    bool before(const Key& other) const {
      return at != other.at ? at < other.at : seq < other.seq;
    }
  };

  struct Entry {
    Callback fn;
    std::shared_ptr<void> owner;
  };

  void sift_up(std::size_t i) {
    const Key key = heap_[i];
    while (i > 0) {
      std::size_t parent = (i - 1) / 2;
      if (!key.before(heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = key;
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    const Key key = heap_[i];
    while (true) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_[child + 1].before(heap_[child])) ++child;
      if (!heap_[child].before(key)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = key;
  }

  void step() {
    const Key key = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    // Move the callback out and free its slot before running: the callback
    // may schedule new events, which can reuse the slot or grow the slab.
    Entry entry = std::move(slab_[key.slot]);
    free_.push_back(key.slot);
    now_ = key.at;
    frontier_ = key.seq + 1;
    entry.fn();
  }

  SimTime now_;
  std::uint64_t seq_ = 0;
  /// With now_, the loop's position for passed(): every event keyed before
  /// (now_, frontier_) has run.
  std::uint64_t frontier_ = 0;
  std::vector<Key> heap_;
  std::vector<Entry> slab_;
  std::vector<std::uint32_t> free_;
};

}  // namespace peering::sim
