#include "sim/stream.h"

namespace peering::sim {

void StreamEndpoint::on_data(DataHandler handler) {
  data_handler_ = std::move(handler);
  if (data_handler_ && !pending_.empty()) {
    auto buffered = std::move(pending_);
    pending_.clear();
    for (auto& chunk : buffered) data_handler_(chunk);
  }
}

bool StreamEndpoint::send(Bytes data) {
  auto peer = peer_.lock();
  if (!open_ || !peer) return false;
  bytes_sent_ += data.size();
  StreamEndpoint* to = peer.get();
  const std::uint32_t slot = to->in_flight_.put(std::move(data));
  // The loop keeps the remote endpoint alive until delivery.
  loop_->schedule_after(latency_, [to, slot] { to->arrive(slot); },
                        std::move(peer));
  return true;
}

void StreamEndpoint::close() {
  if (!open_) return;
  open_ = false;
  if (auto peer = peer_.lock()) {
    StreamEndpoint* to = peer.get();
    loop_->schedule_after(latency_, [to] { to->remote_closed(); },
                          std::move(peer));
  }
}

void StreamEndpoint::arrive(std::uint32_t slot) {
  Bytes data = in_flight_.take(slot);
  if (!open_) return;
  bytes_received_ += data.size();
  if (data_handler_) {
    data_handler_(data);
  } else {
    pending_.push_back(std::move(data));
  }
}

void StreamEndpoint::remote_closed() {
  if (!open_) return;
  open_ = false;
  if (close_handler_) close_handler_();
}

StreamChannel::Pair StreamChannel::make(EventLoop* loop, Duration latency) {
  Pair pair{std::make_shared<StreamEndpoint>(),
            std::make_shared<StreamEndpoint>()};
  pair.a->loop_ = loop;
  pair.b->loop_ = loop;
  pair.a->latency_ = latency;
  pair.b->latency_ = latency;
  pair.a->peer_ = pair.b;
  pair.b->peer_ = pair.a;
  return pair;
}

}  // namespace peering::sim
