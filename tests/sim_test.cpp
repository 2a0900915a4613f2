// Tests for the discrete-event core: ordering, determinism, link latency /
// bandwidth / drop-tail behaviour, reliable streams.
#include <gtest/gtest.h>

#include "netbase/rand.h"
#include "sim/event_loop.h"
#include "sim/link.h"
#include "sim/stream.h"

namespace peering::sim {
namespace {

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_after(Duration::seconds(3), [&] { order.push_back(3); });
  loop.schedule_after(Duration::seconds(1), [&] { order.push_back(1); });
  loop.schedule_after(Duration::seconds(2), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), SimTime() + Duration::seconds(3));
}

TEST(EventLoop, EqualTimesRunFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    loop.schedule_after(Duration::seconds(1), [&order, i] { order.push_back(i); });
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoop, EqualTimesFromCallbacksRunAfterEarlierScheduled) {
  // An event that schedules work at its own timestamp: the new event has a
  // later sequence number, so it runs after everything already queued for
  // that instant — scheduling order is the tiebreak, not heap internals.
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_after(Duration::seconds(1), [&] {
    order.push_back(0);
    loop.schedule_after(Duration(), [&] { order.push_back(3); });
  });
  loop.schedule_after(Duration::seconds(1), [&] { order.push_back(1); });
  loop.schedule_after(Duration::seconds(1), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventLoop, InterleavedTimesKeepPerTimestampFifo) {
  // Pushes at alternating timestamps exercise heap sift paths; within each
  // timestamp the original scheduling order must survive extraction.
  EventLoop loop;
  std::vector<std::pair<int, int>> order;  // (second, scheduling index)
  for (int i = 0; i < 50; ++i) {
    int t = (i * 7) % 5;
    loop.schedule_after(Duration::seconds(t), [&order, t, i] {
      order.emplace_back(t, i);
    });
  }
  loop.run();
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t k = 1; k < order.size(); ++k) {
    EXPECT_LE(order[k - 1].first, order[k].first);
    if (order[k - 1].first == order[k].first) {
      EXPECT_LT(order[k - 1].second, order[k].second);
    }
  }
}

TEST(EventLoop, PastTimesClampToNowAndKeepSchedulingOrder) {
  // schedule_at with a timestamp in the past must run at now(), after
  // events already queued for now — the pipelined speaker's flush batches
  // key events by their nominal SimTime and depend on this (time, seq)
  // FIFO contract even when the nominal time has passed.
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_after(Duration::seconds(2), [&] {
    order.push_back(0);
    loop.schedule_at(SimTime() + Duration::seconds(1),  // already past
                     [&] { order.push_back(2); });
    loop.schedule_at(loop.now(), [&] { order.push_back(3); });
  });
  loop.schedule_after(Duration::seconds(2), [&] { order.push_back(1); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(loop.now(), SimTime() + Duration::seconds(2));
}

TEST(EventLoop, EventsCanScheduleEvents) {
  EventLoop loop;
  int count = 0;
  std::function<void()> tick = [&]() {
    if (++count < 5) loop.schedule_after(Duration::millis(10), tick);
  };
  loop.schedule_after(Duration::millis(10), tick);
  loop.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(loop.now().ns(), Duration::millis(50).ns());
}

TEST(EventLoop, RunUntilAdvancesClockWhenIdle) {
  EventLoop loop;
  loop.run_until(SimTime() + Duration::seconds(10));
  EXPECT_EQ(loop.now(), SimTime() + Duration::seconds(10));
}

TEST(EventLoop, RunUntilStopsAtBoundary) {
  EventLoop loop;
  bool late_ran = false;
  loop.schedule_after(Duration::seconds(5), [&] { late_ran = true; });
  loop.run_until(SimTime() + Duration::seconds(2));
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(Link, DeliversAfterLatency) {
  EventLoop loop;
  LinkConfig config;
  config.latency = Duration::millis(10);
  Link link(&loop, config);
  SimTime delivered_at;
  link.a_to_b().set_receiver([&](const Bytes&) { delivered_at = loop.now(); });
  link.a_to_b().send(Bytes{1, 2, 3});
  loop.run();
  EXPECT_EQ(delivered_at.ns(), Duration::millis(10).ns());
}

TEST(Link, SerializationDelayAtFiniteBandwidth) {
  EventLoop loop;
  LinkConfig config;
  config.latency = Duration::millis(1);
  config.bandwidth_bps = 8'000'000;  // 1 byte/us
  Link link(&loop, config);
  std::vector<SimTime> deliveries;
  link.a_to_b().set_receiver([&](const Bytes&) { deliveries.push_back(loop.now()); });
  // Two 1000-byte frames: serialization 1ms each, so arrivals at 2ms and 3ms.
  link.a_to_b().send(Bytes(1000, 0));
  link.a_to_b().send(Bytes(1000, 0));
  loop.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].ns(), Duration::millis(2).ns());
  EXPECT_EQ(deliveries[1].ns(), Duration::millis(3).ns());
}

TEST(Link, DropTailWhenQueueFull) {
  EventLoop loop;
  LinkConfig config;
  config.bandwidth_bps = 8'000;  // 1 byte/ms: very slow
  config.queue_limit_bytes = 2000;
  Link link(&loop, config);
  int received = 0;
  link.a_to_b().set_receiver([&](const Bytes&) { ++received; });
  int accepted = 0;
  for (int i = 0; i < 10; ++i)
    if (link.a_to_b().send(Bytes(1000, 0))) ++accepted;
  EXPECT_EQ(accepted, 2);  // queue fits two 1000B frames
  EXPECT_EQ(link.a_to_b().frames_dropped(), 8u);
  loop.run();
  EXPECT_EQ(received, 2);
}

TEST(Link, QueueDrainsOverTime) {
  EventLoop loop;
  LinkConfig config;
  config.bandwidth_bps = 8'000'000;  // 1 byte/us
  config.queue_limit_bytes = 1000;
  Link link(&loop, config);
  link.a_to_b().set_receiver([](const Bytes&) {});
  EXPECT_TRUE(link.a_to_b().send(Bytes(800, 0)));
  EXPECT_FALSE(link.a_to_b().send(Bytes(800, 0)));  // queue full
  loop.run_for(Duration::millis(2));                // drains
  EXPECT_TRUE(link.a_to_b().send(Bytes(800, 0)));
}

TEST(Link, DirectionsAreIndependent) {
  EventLoop loop;
  Link link(&loop, LinkConfig{});
  int a_received = 0, b_received = 0;
  link.a_to_b().set_receiver([&](const Bytes&) { ++b_received; });
  link.b_to_a().set_receiver([&](const Bytes&) { ++a_received; });
  link.a_to_b().send(Bytes{1});
  link.b_to_a().send(Bytes{2});
  link.b_to_a().send(Bytes{3});
  loop.run();
  EXPECT_EQ(b_received, 1);
  EXPECT_EQ(a_received, 2);
}

/// The drop-tail direction as it was with one drain event per frame: a
/// frame's bytes leave the queue in an event at its serialization end,
/// scheduled just before its delivery. LinkDirection drains lazily instead
/// and must not be told apart from this.
class PerFrameDrainDirection {
 public:
  PerFrameDrainDirection(EventLoop* loop, const LinkConfig& config,
                         const std::string&)
      : loop_(loop), config_(config), rng_(1) {}

  void set_receiver(FrameHandler handler) { receiver_ = std::move(handler); }
  void set_impairments(const LinkImpairments& imp) {
    impairments_ = imp;
    rng_ = Rng(imp.seed);
  }
  void set_queue_limit(std::size_t bytes) { config_.queue_limit_bytes = bytes; }
  std::uint64_t frames_dropped() const { return dropped_; }

  bool send(Bytes frame) {
    if (!receiver_) return ++dropped_, false;
    if (impairments_.drop_probability > 0.0 &&
        rng_.chance(impairments_.drop_probability))
      return ++dropped_, false;
    if (!frame.empty() && impairments_.corrupt_probability > 0.0 &&
        rng_.chance(impairments_.corrupt_probability))
      frame[rng_.below(frame.size())] ^= 0xFF;
    Duration latency = config_.latency;
    if (impairments_.jitter.ns() > 0)
      latency = latency + Duration::nanos(static_cast<std::int64_t>(rng_.below(
                              static_cast<std::uint64_t>(
                                  impairments_.jitter.ns()) + 1)));
    const std::size_t size = frame.size();
    if (config_.bandwidth_bps == 0) {
      loop_->schedule_after(latency, [this, f = std::move(frame)]() mutable {
        receiver_(f);
      });
      return true;
    }
    const SimTime now = loop_->now();
    if (tx_free_ < now) {
      tx_free_ = now;
      queued_bytes_ = 0;
    }
    if (queued_bytes_ + size > config_.queue_limit_bytes)
      return ++dropped_, false;
    tx_free_ = tx_free_ +
               Duration::nanos(static_cast<std::int64_t>(size) * 8 *
                               1'000'000'000 /
                               static_cast<std::int64_t>(config_.bandwidth_bps));
    queued_bytes_ += size;
    loop_->schedule_at(tx_free_, [this, size] {
      if (queued_bytes_ >= size) queued_bytes_ -= size;
    });
    loop_->schedule_at(tx_free_ + latency,
                       [this, f = std::move(frame)]() mutable { receiver_(f); });
    return true;
  }

 private:
  EventLoop* loop_;
  LinkConfig config_;
  FrameHandler receiver_;
  LinkImpairments impairments_;
  Rng rng_;
  SimTime tx_free_;
  std::size_t queued_bytes_ = 0;
  std::uint64_t dropped_ = 0;
};

struct LinkTrace {
  std::vector<bool> accepted;  // send() results in call order
  /// (frame id, delivery time in ns) in delivery order.
  std::vector<std::pair<std::uint32_t, std::int64_t>> delivered;
  std::uint64_t dropped = 0;
  std::size_t events = 0;
};

/// Drives one direction with seeded random traffic: bursts sent from
/// outside events and from timer events, timers and run_until boundaries
/// that land on serialization ends (1 ns per byte, so ties are common),
/// receivers that send again from inside their delivery, and queue-limit
/// changes from both sides. All decisions come from one Rng consumed in
/// event order, so two equivalent directions see the same run.
template <typename Direction>
LinkTrace drive(std::uint64_t seed, const LinkConfig& config, bool jitter) {
  EventLoop loop;
  Direction dir(&loop, config, "a2b");
  Rng rng(seed);
  LinkTrace trace;
  std::uint32_t next_id = 0;
  if (jitter) {
    LinkImpairments imp;
    imp.jitter = Duration::nanos(12);
    imp.seed = seed;
    dir.set_impairments(imp);
  }
  auto send_one = [&] {
    Bytes frame(4 + rng.below(24), 0);
    const std::uint32_t id = next_id++;
    for (int i = 0; i < 4; ++i) frame[i] = static_cast<std::uint8_t>(id >> (8 * i));
    trace.accepted.push_back(dir.send(std::move(frame)));
  };
  auto shrink = [&] { dir.set_queue_limit(rng.below(4) == 0 ? 64 : rng.below(48)); };
  dir.set_receiver([&](Bytes& frame) {
    std::uint32_t id = 0;
    for (int i = 0; i < 4; ++i) id |= static_cast<std::uint32_t>(frame[i]) << (8 * i);
    trace.delivered.emplace_back(id, loop.now().ns());
    if (rng.below(4) == 0) send_one();
  });
  for (int step = 0; step < 300; ++step) {
    switch (rng.below(5)) {
      case 0:
      case 1:
        for (std::uint64_t n = rng.below(4); n > 0; --n) send_one();
        break;
      case 2: {
        const std::uint64_t copies = 1 + rng.below(3);
        const Duration delay = Duration::nanos(static_cast<std::int64_t>(rng.below(40)));
        for (std::uint64_t c = 0; c < copies; ++c) {
          loop.schedule_after(delay, [&] {
            if (rng.below(8) == 0) shrink();
            for (std::uint64_t n = 1 + rng.below(3); n > 0; --n) send_one();
          });
        }
        break;
      }
      case 3:
        trace.events += loop.run_until(
            loop.now() + Duration::nanos(static_cast<std::int64_t>(rng.below(40))));
        break;
      case 4:
        if (rng.below(4) == 0) shrink();
        break;
    }
  }
  trace.events += loop.run();
  trace.dropped = dir.frames_dropped();
  return trace;
}

TEST(Link, LazyDrainMatchesPerFrameDrainEvents) {
  int configs = 0;
  for (std::uint64_t bps : {std::uint64_t{0}, std::uint64_t{8'000'000'000},
                            std::uint64_t{64'000'000'000}}) {
    for (std::int64_t latency_ns : {0, 7}) {
      for (bool jitter : {false, true}) {
        LinkConfig config;
        config.latency = Duration::nanos(latency_ns);
        config.bandwidth_bps = bps;
        config.queue_limit_bytes = 40;
        for (std::uint64_t seed = 1; seed <= 25; ++seed) {
          const LinkTrace want = drive<PerFrameDrainDirection>(seed, config, jitter);
          const LinkTrace got = drive<LinkDirection>(seed, config, jitter);
          const std::string where = "bps " + std::to_string(bps) + " latency " +
                                    std::to_string(latency_ns) + " jitter " +
                                    std::to_string(jitter) + " seed " +
                                    std::to_string(seed);
          ASSERT_EQ(got.accepted, want.accepted) << where;
          ASSERT_EQ(got.delivered, want.delivered) << where;
          ASSERT_EQ(got.dropped, want.dropped) << where;
          // One event per accepted frame fewer: the drains.
          std::size_t accepted = 0;
          for (bool a : want.accepted) accepted += a;
          ASSERT_EQ(got.events, want.events - (bps == 0 ? 0 : accepted)) << where;
        }
        ++configs;
      }
    }
  }
  EXPECT_EQ(configs, 12);
}

TEST(Link, LazyDrainSeesDropsAndTies) {
  // The differential above is only as good as its traffic: it must fill the
  // queue, and frames must finish serializing at the instant of a send.
  LinkConfig config;
  config.bandwidth_bps = 8'000'000'000;
  config.queue_limit_bytes = 40;
  std::size_t drops = 0, deliveries = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const LinkTrace t = drive<LinkDirection>(seed, config, false);
    drops += t.dropped;
    deliveries += t.delivered.size();
  }
  EXPECT_GT(drops, 100u);
  EXPECT_GT(deliveries, 1000u);
}

TEST(Stream, DeliversInOrderAfterLatency) {
  EventLoop loop;
  auto pair = StreamChannel::make(&loop, Duration::millis(5));
  std::vector<int> received;
  pair.b->on_data([&](const Bytes& data) { received.push_back(data[0]); });
  pair.a->send(Bytes{1});
  pair.a->send(Bytes{2});
  pair.a->send(Bytes{3});
  loop.run();
  EXPECT_EQ(received, (std::vector<int>{1, 2, 3}));
}

TEST(Stream, BuffersUntilHandlerAttached) {
  EventLoop loop;
  auto pair = StreamChannel::make(&loop, Duration::millis(1));
  pair.a->send(Bytes{42});
  loop.run();
  std::vector<int> received;
  pair.b->on_data([&](const Bytes& data) { received.push_back(data[0]); });
  EXPECT_EQ(received, (std::vector<int>{42}));
}

TEST(Stream, CloseNotifiesPeer) {
  EventLoop loop;
  auto pair = StreamChannel::make(&loop, Duration::millis(1));
  bool closed = false;
  pair.b->on_close([&] { closed = true; });
  pair.a->close();
  loop.run();
  EXPECT_TRUE(closed);
  EXPECT_FALSE(pair.b->open());
  EXPECT_FALSE(pair.b->send(Bytes{1}));
}

TEST(Stream, DataInFlightAtCloseIsNotDeliveredAfterClose) {
  EventLoop loop;
  auto pair = StreamChannel::make(&loop, Duration::millis(1));
  int received = 0;
  pair.b->on_data([&](const Bytes&) { ++received; });
  pair.a->send(Bytes{1});
  pair.b->close();  // b closes immediately; a's data arrives later
  loop.run();
  EXPECT_EQ(received, 0);
}

}  // namespace
}  // namespace peering::sim
