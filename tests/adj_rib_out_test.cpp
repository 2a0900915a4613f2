// Adj-RIB-Out table: a seeded differential against std::map (insert, find,
// erase, clear), probe runs and backward-shift deletion that wrap around the
// end of the slot array, iteration, and — through the speaker — the growth
// work count of a full-table sync in small flushes and the byte accounting
// that follows adverts and session teardown.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "bgp/adj_rib_out.h"
#include "bgp/message.h"
#include "bgp/speaker.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "sim/stream.h"

namespace peering::bgp {
namespace {

using Value = std::vector<std::uint32_t>;
using Table = AdjRibOut<Value>;

/// Every entry of `table`, failing the test if iteration visits a prefix
/// twice.
std::map<Ipv4Prefix, Value> contents(const Table& table) {
  std::map<Ipv4Prefix, Value> out;
  table.for_each([&](const Ipv4Prefix& prefix, const Value& value) {
    EXPECT_TRUE(out.emplace(prefix, value).second)
        << prefix.str() << " visited twice";
  });
  return out;
}

/// The first `count` /24s from 10.0.0.0 upwards whose home slot in a
/// `capacity`-slot table is `slot`.
std::vector<Ipv4Prefix> keys_homed_at(std::size_t slot, std::size_t capacity,
                                      std::size_t count,
                                      std::uint32_t start = 0x0a000000) {
  std::vector<Ipv4Prefix> keys;
  for (std::uint32_t a = start; keys.size() < count; a += 0x100) {
    Ipv4Prefix p(Ipv4Address(a), 24);
    if (Table::home_slot(p, capacity) == slot) keys.push_back(p);
  }
  return keys;
}

TEST(AdjRibOut, MatchesOrderedMapUnderSeededChurn) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    std::mt19937_64 rng(seed);
    // A small universe so inserts, hits and erases of present keys are all
    // frequent; lengths vary so one address appears under several keys.
    std::vector<Ipv4Prefix> universe;
    for (int i = 0; i < 3000; ++i) {
      universe.emplace_back(Ipv4Address(static_cast<std::uint32_t>(rng())),
                            static_cast<std::uint8_t>(rng() % 33));
    }
    Table table;
    std::map<Ipv4Prefix, Value> ref;
    for (int op = 0; op < 200000; ++op) {
      const Ipv4Prefix& key = universe[rng() % universe.size()];
      const unsigned roll = rng() % 1000;
      if (roll < 450) {
        const auto v = static_cast<std::uint32_t>(rng());
        table.emplace(key).push_back(v);
        ref[key].push_back(v);
      } else if (roll < 750) {
        ASSERT_EQ(table.erase(key), ref.erase(key) == 1) << key.str();
      } else if (roll < 999) {
        const Value* got = table.find(key);
        auto want = ref.find(key);
        ASSERT_EQ(got != nullptr, want != ref.end()) << key.str();
        if (got != nullptr) {
          ASSERT_EQ(*got, want->second);
        }
      } else {
        table.clear();
        ref.clear();
      }
      ASSERT_EQ(table.size(), ref.size());
      ASSERT_LE(table.size() * 4, table.capacity() * 3);
      if (op % 5000 == 0) {
        ASSERT_EQ(contents(table), ref) << "seed " << seed;
      }
    }
    EXPECT_EQ(contents(table), ref) << "seed " << seed;
  }
}

TEST(AdjRibOut, ProbeRunsAndErasesWrapAroundTheEnd) {
  constexpr std::size_t kCap = Table::kInitialCapacity;
  // Four keys homed at the last slot fill it and wrap into slots 0..2; two
  // keys homed one slot earlier sit before and after that run.
  const auto last = keys_homed_at(kCap - 1, kCap, 4);
  const auto before_last = keys_homed_at(kCap - 2, kCap, 2);
  Table table;
  std::map<Ipv4Prefix, Value> ref;
  auto insert = [&](const Ipv4Prefix& p, std::uint32_t v) {
    table.emplace(p).push_back(v);
    ref[p].push_back(v);
  };
  insert(before_last[0], 100);
  for (std::uint32_t i = 0; i < last.size(); ++i) insert(last[i], i);
  insert(before_last[1], 101);
  ASSERT_EQ(table.capacity(), kCap);  // six keys: no grow
  EXPECT_EQ(contents(table), ref);

  // Erasing the key in the last slot shifts the wrapped run back across
  // the end; erasing the one before it shifts again from slot kCap - 2.
  for (const Ipv4Prefix& gone : {last[0], before_last[0], last[2]}) {
    ASSERT_TRUE(table.erase(gone)) << gone.str();
    ref.erase(gone);
    EXPECT_EQ(table.find(gone), nullptr);
    EXPECT_FALSE(table.erase(gone));
    for (const auto& [prefix, value] : ref) {
      const Value* got = table.find(prefix);
      ASSERT_NE(got, nullptr) << prefix.str() << " lost after erasing "
                              << gone.str();
      EXPECT_EQ(*got, value);
    }
    EXPECT_EQ(contents(table), ref);
  }
  EXPECT_EQ(table.capacity(), kCap);
  EXPECT_EQ(table.grows(), 0u);
}

TEST(AdjRibOut, IterationVisitsEachLiveKeyOnce) {
  Table table;
  std::map<Ipv4Prefix, Value> ref;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    Ipv4Prefix p(Ipv4Address(0x0a000000 + (i << 8)), 24);
    table.emplace(p).push_back(i);
    ref[p].push_back(i);
  }
  for (std::uint32_t i = 0; i < 1000; i += 2) {
    Ipv4Prefix p(Ipv4Address(0x0a000000 + (i << 8)), 24);
    ASSERT_TRUE(table.erase(p));
    ref.erase(p);
  }
  std::size_t visits = 0;
  table.for_each([&](const Ipv4Prefix&, Value&) { ++visits; });
  EXPECT_EQ(visits, 500u);
  EXPECT_EQ(contents(table), ref);
}

TEST(AdjRibOut, ClearFreesTheSlotArray) {
  Table table;
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_EQ(table.find(Ipv4Prefix(Ipv4Address(10, 0, 0, 0), 8)), nullptr);
  for (std::uint32_t i = 0; i < 100; ++i)
    table.emplace(Ipv4Prefix(Ipv4Address(i << 8), 24)).push_back(i);
  EXPECT_GE(table.capacity(), 128u);
  EXPECT_EQ(table.slot_bytes(), table.capacity() * sizeof(Table::Slot));
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_EQ(table.slot_bytes(), 0u);
  EXPECT_FALSE(table.erase(Ipv4Prefix(Ipv4Address(0), 24)));
  // Usable again after the free.
  table.emplace(Ipv4Prefix(Ipv4Address(1 << 8), 24)).push_back(7);
  EXPECT_EQ(table.capacity(), Table::kInitialCapacity);
  EXPECT_EQ(*table.find(Ipv4Prefix(Ipv4Address(1 << 8), 24)), Value{7});
}

/// A speaker with one eBGP session to a sink that answers the OPEN (hold
/// time 0, so the session never expires) and discards everything after.
struct SinkHub {
  sim::EventLoop loop;
  BgpSpeaker speaker{&loop, "hub", 65000, Ipv4Address(1, 1, 1, 1)};
  std::shared_ptr<sim::StreamEndpoint> sink;
  PeerId peer = 0;
  bool answered = false;

  SinkHub() {
    peer = speaker.add_peer({.name = "sink", .peer_asn = 64001,
                             .local_address = Ipv4Address(10, 1, 0, 1)});
    auto streams = sim::StreamChannel::make(&loop, Duration::millis(1));
    sink = streams.b;
    sink->on_data([this](const Bytes&) {
      if (answered) return;
      answered = true;
      OpenMessage open;
      open.asn = 64001;
      open.hold_time = 0;
      open.router_id = Ipv4Address(9, 9, 9, 9);
      open.add_four_byte_asn(64001);
      UpdateCodecOptions options;
      sink->send(encode_message(open, options));
      sink->send(encode_message(KeepaliveMessage{}, options));
    });
    speaker.connect_peer(peer, streams.a);
    loop.run_for(Duration::millis(50));
  }
};

PathAttributes plain_attrs() {
  PathAttributes attrs;
  attrs.origin = Origin::kIgp;
  attrs.next_hop = Ipv4Address(10, 0, 0, 1);
  return attrs;
}

Ipv4Prefix nth_prefix(std::uint32_t i) {
  return Ipv4Prefix(Ipv4Address(0x0b000000 + (i << 8)), 24);
}

TEST(AdjRibOutGrowth, FullTableSyncInSmallFlushesDoublesLogarithmically) {
  SinkHub hub;
  ASSERT_EQ(hub.speaker.session_state(hub.peer), SessionState::kEstablished);
  // table_load's shape: a 300k-route table reaches the session 32 prefixes
  // per flush. A per-flush reserve on a prime-ladder hash map rehashed 99
  // times here; doubling needs about log2(300k / initial capacity).
  constexpr std::uint32_t kRoutes = 300000;
  constexpr std::uint32_t kFlush = 32;
  const PathAttributes attrs = plain_attrs();
  for (std::uint32_t i = 0; i < kRoutes; i += kFlush) {
    for (std::uint32_t j = i; j < i + kFlush && j < kRoutes; ++j)
      hub.speaker.originate(nth_prefix(j), attrs);
    hub.loop.run_for(Duration::micros(10));
  }
  hub.loop.run_for(Duration::millis(10));
  EXPECT_EQ(hub.speaker.adj_rib_out(hub.peer).size(), kRoutes);
  const auto bound = static_cast<std::uint64_t>(std::ceil(std::log2(
                         double(kRoutes) / Table::kInitialCapacity))) + 1;
  EXPECT_LE(hub.speaker.adj_rib_out_grows(hub.peer), bound);
}

TEST(AdjRibOutBytes, FollowAdvertsAndFallToZeroOnSessionDown) {
  SinkHub hub;
  ASSERT_EQ(hub.speaker.session_state(hub.peer), SessionState::kEstablished);
  EXPECT_EQ(hub.speaker.adj_rib_out_bytes(), 0u);
  const PathAttributes attrs = plain_attrs();
  for (std::uint32_t i = 0; i < 1000; ++i)
    hub.speaker.originate(nth_prefix(i), attrs);
  hub.loop.run_for(Duration::millis(10));
  ASSERT_EQ(hub.speaker.adj_rib_out(hub.peer).size(), 1000u);
  // 1000 prefixes at <= 3/4 load take 2048 32-byte slots; each prefix
  // holds one 40-byte path.
  const std::size_t full = hub.speaker.adj_rib_out_bytes();
  EXPECT_EQ(full, 2048u * 32 + 1000u * 40);

  obs::Registry scratch(true);
  hub.speaker.publish_metrics(scratch);
  EXPECT_EQ(scratch.snapshot(hub.loop.now())
                .value("bgp_adj_rib_out_bytes", {{"speaker", "hub"}}),
            static_cast<std::int64_t>(full));

  // Withdrawn prefixes leave the table; the slot array keeps its size.
  for (std::uint32_t i = 0; i < 500; ++i)
    hub.speaker.withdraw_originated(nth_prefix(i));
  hub.loop.run_for(Duration::millis(10));
  EXPECT_EQ(hub.speaker.adj_rib_out_bytes(), 2048u * 32 + 500u * 40);

  hub.speaker.disconnect_peer(hub.peer);
  EXPECT_EQ(hub.speaker.adj_rib_out_bytes(), 0u);
}

}  // namespace
}  // namespace peering::bgp
