// Reliable, in-order byte-stream channel: the control-plane transport for
// BGP sessions (a TCP stand-in). The simulated network's control-plane links
// are lossless, so the channel only needs ordering, latency, and connection
// lifecycle (open/close/reset) — which is exactly what the BGP FSM consumes.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "netbase/bytes.h"
#include "sim/event_loop.h"
#include "sim/in_flight.h"

namespace peering::sim {

/// One side of an established stream. Obtain pairs via StreamChannel::make.
class StreamEndpoint {
 public:
  using DataHandler = std::function<void(const Bytes&)>;
  using CloseHandler = std::function<void()>;

  /// Registers the receive callback. Data sent before a handler is attached
  /// is buffered and flushed on attachment.
  void on_data(DataHandler handler);

  /// Registers the close/reset callback.
  void on_close(CloseHandler handler) { close_handler_ = std::move(handler); }

  /// Sends bytes to the remote side; the buffer itself travels, so a caller
  /// that moves it in pays no copy. Returns false if the stream is closed.
  bool send(Bytes data);

  /// Closes the stream; the remote side observes on_close after one latency.
  void close();

  bool open() const { return open_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }

 private:
  friend class StreamChannel;

  /// Delivery event of the chunk in `slot` of in_flight_.
  void arrive(std::uint32_t slot);
  void remote_closed();

  EventLoop* loop_ = nullptr;
  Duration latency_;
  std::weak_ptr<StreamEndpoint> peer_;
  DataHandler data_handler_;
  CloseHandler close_handler_;
  std::vector<Bytes> pending_;  // buffered until a handler is attached
  /// Chunks sent to this endpoint and not yet delivered. A stream is FIFO
  /// with a fixed latency, so delivery events run in send order.
  InFlight in_flight_;
  bool open_ = true;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
};

/// Factory for connected stream endpoint pairs.
class StreamChannel {
 public:
  struct Pair {
    std::shared_ptr<StreamEndpoint> a;
    std::shared_ptr<StreamEndpoint> b;
  };

  /// Creates a connected pair with symmetric one-way latency.
  static Pair make(EventLoop* loop, Duration latency);
};

}  // namespace peering::sim
