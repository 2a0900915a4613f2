#include "sim/link.h"

namespace peering::sim {

LinkDirection::LinkDirection(EventLoop* loop, const LinkConfig& config,
                             const std::string& direction)
    : loop_(loop), config_(config), impairment_rng_(1) {
  obs::Registry* registry = obs::Registry::global();
  const obs::Labels labels = {{"link", config_.name}, {"dir", direction}};
  dropped_counter_ =
      registry->counter("sim_link_frames_dropped_total", labels);
  corrupted_counter_ =
      registry->counter("sim_link_frames_corrupted_total", labels);
}

void LinkDirection::set_impairments(const LinkImpairments& imp) {
  impairments_ = imp;
  impairment_rng_ = Rng(imp.seed);
}

void LinkDirection::clear_impairments() { impairments_ = LinkImpairments{}; }

void LinkDirection::count_drop() {
  ++frames_dropped_;
  dropped_counter_->inc();
}

void LinkDirection::drain() {
  while (queue_count_ > 0) {
    const Queued& front = queue_[queue_head_];
    if (!loop_->passed(front.end, front.seq)) break;
    queued_bytes_ -= front.size;
    queue_head_ = (queue_head_ + 1) & (queue_.size() - 1);
    --queue_count_;
  }
}

void LinkDirection::push_queued(const Queued& q) {
  if (queue_count_ == queue_.size()) {
    std::vector<Queued> grown(queue_.empty() ? 8 : 2 * queue_.size());
    for (std::size_t i = 0; i < queue_count_; ++i)
      grown[i] = queue_[(queue_head_ + i) & (queue_.size() - 1)];
    queue_ = std::move(grown);
    queue_head_ = 0;
  }
  queue_[(queue_head_ + queue_count_) & (queue_.size() - 1)] = q;
  ++queue_count_;
}

void LinkDirection::deliver_at(SimTime at, Bytes frame) {
  const std::uint32_t slot = in_flight_.put(std::move(frame));
  loop_->schedule_at(at, [this, slot] {
    // Out of the pool before the receiver runs: it may send on this
    // direction again, which can reuse the slot.
    Bytes delivered = in_flight_.take(slot);
    receiver_(delivered);
  });
}

bool LinkDirection::send(Bytes frame) {
  if (!receiver_) {
    count_drop();
    return false;
  }
  if (impairments_.drop_probability > 0.0 &&
      impairment_rng_.chance(impairments_.drop_probability)) {
    count_drop();
    return false;
  }
  if (!frame.empty() && impairments_.corrupt_probability > 0.0 &&
      impairment_rng_.chance(impairments_.corrupt_probability)) {
    frame[impairment_rng_.below(frame.size())] ^= 0xFF;
    ++frames_corrupted_;
    corrupted_counter_->inc();
  }
  Duration latency = config_.latency;
  if (impairments_.jitter.ns() > 0) {
    latency = latency + Duration::nanos(static_cast<std::int64_t>(
                  impairment_rng_.below(
                      static_cast<std::uint64_t>(impairments_.jitter.ns()) +
                      1)));
  }

  const std::size_t size = frame.size();
  if (config_.bandwidth_bps == 0) {
    // Infinite bandwidth: only propagation latency applies.
    ++frames_sent_;
    bytes_sent_ += size;
    deliver_at(loop_->now() + latency, std::move(frame));
    return true;
  }

  // Drop-tail: reject if the queue of not-yet-serialized bytes is full.
  drain();
  const SimTime now = loop_->now();
  if (tx_free_ < now) tx_free_ = now;  // idle: the queue is empty
  if (queued_bytes_ + size > config_.queue_limit_bytes) {
    count_drop();
    return false;
  }

  const Duration serialization =
      Duration::nanos(static_cast<std::int64_t>(size) * 8 * 1'000'000'000 /
                      static_cast<std::int64_t>(config_.bandwidth_bps));
  tx_free_ = tx_free_ + serialization;
  queued_bytes_ += size;
  ++frames_sent_;
  bytes_sent_ += size;
  // The frame leaves the queue when serialization completes; delivery
  // happens one propagation latency later.
  push_queued({tx_free_, loop_->next_seq(), size});
  deliver_at(tx_free_ + latency, std::move(frame));
  return true;
}

}  // namespace peering::sim
