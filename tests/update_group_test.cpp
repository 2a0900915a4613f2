// Update-group export path: fingerprint-based clustering, splice-at-send,
// per-member encode-cache crediting, flap/rejoin resync from the group
// delta log, export-class memo versioning, and the wire-byte differentials
// (grouped vs singleton groups, serial vs parallel pipeline) that pin the
// whole design to the per-peer reference semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bgp/message.h"
#include "bgp/speaker.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "sim/stream.h"

namespace peering::bgp {
namespace {

Ipv4Prefix pfx(const std::string& s) { return *Ipv4Prefix::parse(s); }

/// Speaks just enough BGP to bring the hub's session to Established and
/// records every byte the hub sends, so two runs can be compared at the
/// wire level.
class RecordingPeer {
 public:
  RecordingPeer(std::shared_ptr<sim::StreamEndpoint> stream, Asn asn,
                Ipv4Address router_id, bool addpath)
      : stream_(std::move(stream)) {
    stream_->on_data([this, asn, router_id, addpath](const Bytes& data) {
      wire_.insert(wire_.end(), data.begin(), data.end());
      decoder_.feed(data);
      while (true) {
        auto result = decoder_.poll();
        if (!result.ok() || !result->has_value()) return;
        if (std::holds_alternative<OpenMessage>(**result)) {
          OpenMessage open;
          open.asn = asn;
          open.router_id = router_id;
          open.add_four_byte_asn(asn);
          if (addpath) open.add_addpath_ipv4(AddPathMode::kBoth);
          UpdateCodecOptions options;
          stream_->send(encode_message(open, options));
          stream_->send(encode_message(KeepaliveMessage{}, options));
        }
      }
    });
  }

  /// Everything received from the hub, in order, since session start.
  const Bytes& wire() const { return wire_; }

 private:
  std::shared_ptr<sim::StreamEndpoint> stream_;
  MessageDecoder decoder_;
  Bytes wire_;
};

struct Hub {
  sim::EventLoop loop;
  BgpSpeaker speaker;
  std::vector<std::unique_ptr<RecordingPeer>> recorders;
  std::vector<PeerId> peers;

  explicit Hub(PipelineConfig pipeline = {})
      : speaker(&loop, "hub", 65000, Ipv4Address(1, 1, 1, 1), pipeline) {}

  /// Adds one recorded session; `config.peer_asn` names the recorder ASN.
  PeerId attach(PeerConfig config, bool peer_addpath = false) {
    const Asn asn = config.peer_asn;
    PeerId peer = speaker.add_peer(std::move(config));
    auto streams = sim::StreamChannel::make(&loop, Duration::millis(1));
    speaker.connect_peer(peer, streams.a);
    recorders.push_back(std::make_unique<RecordingPeer>(
        streams.b, asn, Ipv4Address(9, 9, 0, static_cast<std::uint8_t>(asn)),
        peer_addpath));
    peers.push_back(peer);
    return peer;
  }

  void settle(Duration d = Duration::seconds(5)) { loop.run_for(d); }
};

PathAttributes attrs_with(std::uint32_t community_value) {
  PathAttributes attrs;
  attrs.origin = Origin::kIgp;
  attrs.next_hop = Ipv4Address(10, 0, 0, 1);
  attrs.communities.push_back(Community(65000, community_value));
  return attrs;
}

TEST(UpdateGroup, AddPathAndPlainNeverShareGroup) {
  Hub hub;
  PeerId plain_a = hub.attach({.name = "pa", .peer_asn = 64011,
                               .local_address = Ipv4Address(10, 1, 0, 1)});
  PeerId plain_b = hub.attach({.name = "pb", .peer_asn = 64012,
                               .local_address = Ipv4Address(10, 2, 0, 1)});
  PeerId ap_a = hub.attach({.name = "aa", .peer_asn = 64013,
                            .local_address = Ipv4Address(10, 3, 0, 1),
                            .addpath = AddPathMode::kBoth},
                           /*peer_addpath=*/true);
  PeerId ap_b = hub.attach({.name = "ab", .peer_asn = 64014,
                            .local_address = Ipv4Address(10, 4, 0, 1),
                            .addpath = AddPathMode::kBoth},
                           /*peer_addpath=*/true);
  hub.settle();

  ASSERT_NE(hub.speaker.export_group_of(plain_a), 0u);
  ASSERT_NE(hub.speaker.export_group_of(ap_a), 0u);
  // Same policy, same MRAI class: the plain pair shares and the ADD-PATH
  // pair shares, but negotiated capabilities keep the two apart.
  EXPECT_EQ(hub.speaker.export_group_of(plain_a),
            hub.speaker.export_group_of(plain_b));
  EXPECT_EQ(hub.speaker.export_group_of(ap_a),
            hub.speaker.export_group_of(ap_b));
  EXPECT_NE(hub.speaker.export_group_of(plain_a),
            hub.speaker.export_group_of(ap_a));
}

TEST(UpdateGroup, MraiClassBoundsGroupMembership) {
  Hub hub;
  PeerId fast_a = hub.attach({.name = "fa", .peer_asn = 64021,
                              .local_address = Ipv4Address(10, 1, 0, 1)});
  PeerId slow_a = hub.attach({.name = "sa", .peer_asn = 64022,
                              .local_address = Ipv4Address(10, 2, 0, 1),
                              .mrai = Duration::seconds(30)});
  PeerId slow_b = hub.attach({.name = "sb", .peer_asn = 64023,
                              .local_address = Ipv4Address(10, 3, 0, 1),
                              .mrai = Duration::seconds(30)});
  hub.settle();

  ASSERT_NE(hub.speaker.export_group_of(fast_a), 0u);
  // Different MRAI classes flush on different cadences: a shared group
  // would force one member's batching onto the other.
  EXPECT_NE(hub.speaker.export_group_of(fast_a),
            hub.speaker.export_group_of(slow_a));
  EXPECT_EQ(hub.speaker.export_group_of(slow_a),
            hub.speaker.export_group_of(slow_b));
}

TEST(UpdateGroup, ReevaluateExportsRefingerprintsAfterPolicyChange) {
  Hub hub;
  PeerId a = hub.attach({.name = "a", .peer_asn = 64031,
                         .local_address = Ipv4Address(10, 1, 0, 1)});
  PeerId b = hub.attach({.name = "b", .peer_asn = 64032,
                         .local_address = Ipv4Address(10, 2, 0, 1)});
  hub.settle();
  ASSERT_EQ(hub.speaker.export_group_of(a), hub.speaker.export_group_of(b));

  hub.speaker.originate(pfx("203.0.113.0/24"), attrs_with(1));
  hub.speaker.originate(pfx("198.51.100.0/24"), attrs_with(2));
  hub.settle();

  // Tighten b's export policy in place. Regression: reevaluate_exports
  // must re-fingerprint — keeping b in the old group would keep serving it
  // adverts evaluated under a's policy.
  hub.speaker.peer_config(b).export_policy = RoutePolicy::deny_all().add_term(
      {.name = "only-203",
       .match = {.prefix = pfx("203.0.113.0/24")},
       .actions = {},
       .final_term = true});
  hub.speaker.reevaluate_exports(b);
  hub.settle();

  EXPECT_NE(hub.speaker.export_group_of(a), hub.speaker.export_group_of(b));
  EXPECT_EQ(hub.speaker.adj_rib_out_attrs(a, pfx("198.51.100.0/24")).size(),
            1u);
  // The policy change takes effect: the denied prefix is withdrawn.
  EXPECT_TRUE(hub.speaker.adj_rib_out_attrs(b, pfx("198.51.100.0/24")).empty());
  EXPECT_EQ(hub.speaker.adj_rib_out_attrs(b, pfx("203.0.113.0/24")).size(), 1u);

  // And the move is reversible: restoring the policy rejoins a's group.
  hub.speaker.peer_config(b).export_policy = RoutePolicy::accept_all();
  hub.speaker.reevaluate_exports(b);
  hub.settle();
  EXPECT_EQ(hub.speaker.export_group_of(a), hub.speaker.export_group_of(b));
  EXPECT_EQ(hub.speaker.adj_rib_out_attrs(b, pfx("198.51.100.0/24")).size(),
            1u);
}

/// Order-independent digest of a speaker's Loc-RIB. Excludes the next-hop:
/// two sessions of the same hub legitimately see different ones (each
/// session's local address).
std::vector<std::string> rib_digest(const LocRib& rib) {
  std::vector<std::string> out;
  rib.visit_all([&](const RibRoute& route) {
    std::ostringstream line;
    line << route.prefix.str() << " peer=" << route.peer
         << " comms=" << route.attrs->communities.size();
    out.push_back(line.str());
  });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(UpdateGroup, FlapRejoinResyncsFromGroupLog) {
  sim::EventLoop loop;
  BgpSpeaker hub(&loop, "hub", 65000, Ipv4Address(1, 1, 1, 1));
  BgpSpeaker b(&loop, "b", 64041, Ipv4Address(2, 2, 2, 2));
  BgpSpeaker c(&loop, "c", 64042, Ipv4Address(3, 3, 3, 3));

  auto connect = [&](BgpSpeaker& other, PeerId hub_peer, PeerId other_peer) {
    auto streams = sim::StreamChannel::make(&loop, Duration::millis(1));
    hub.connect_peer(hub_peer, streams.a);
    other.connect_peer(other_peer, streams.b);
  };
  PeerId hb = hub.add_peer({.name = "b", .peer_asn = 64041,
                            .local_address = Ipv4Address(10, 1, 0, 1)});
  PeerId bh = b.add_peer({.name = "hub", .peer_asn = 65000,
                          .local_address = Ipv4Address(10, 1, 0, 2)});
  PeerId hc = hub.add_peer({.name = "c", .peer_asn = 64042,
                            .local_address = Ipv4Address(10, 2, 0, 1)});
  PeerId ch = c.add_peer({.name = "hub", .peer_asn = 65000,
                          .local_address = Ipv4Address(10, 2, 0, 2)});
  connect(b, hb, bh);
  connect(c, hc, ch);
  loop.run_for(Duration::seconds(5));
  ASSERT_EQ(hub.session_state(hb), SessionState::kEstablished);
  ASSERT_EQ(hub.session_state(hc), SessionState::kEstablished);
  ASSERT_EQ(hub.export_group_of(hb), hub.export_group_of(hc));

  for (int i = 0; i < 5; ++i) {
    std::string cidr = "10.";
    cidr += std::to_string(100 + i);
    cidr += ".0.0/16";
    hub.originate(pfx(cidr), attrs_with(static_cast<std::uint32_t>(i)));
  }
  loop.run_for(Duration::seconds(5));
  ASSERT_EQ(rib_digest(c.loc_rib()), rib_digest(b.loc_rib()));

  // c flaps: its membership is dropped and the group's delta log keeps
  // moving without it.
  hub.disconnect_peer(hc);
  loop.run_for(Duration::seconds(2));
  EXPECT_EQ(hub.export_group_of(hc), 0u);
  hub.withdraw_originated(pfx("10.100.0.0/16"));
  hub.originate(pfx("10.200.0.0/16"), attrs_with(99));
  loop.run_for(Duration::seconds(5));

  // Rejoin on a fresh transport: the stale cursor forces a full resync,
  // after which c converges to exactly b's view.
  auto streams = sim::StreamChannel::make(&loop, Duration::millis(1));
  hub.connect_peer(hc, streams.a);
  c.connect_peer(ch, streams.b);
  loop.run_for(Duration::seconds(5));
  ASSERT_EQ(hub.session_state(hc), SessionState::kEstablished);
  EXPECT_EQ(hub.export_group_of(hc), hub.export_group_of(hb));
  EXPECT_EQ(rib_digest(c.loc_rib()), rib_digest(b.loc_rib()));

  // Post-rejoin deltas flow through the shared log again.
  hub.originate(pfx("10.201.0.0/16"), attrs_with(100));
  loop.run_for(Duration::seconds(5));
  EXPECT_EQ(rib_digest(c.loc_rib()), rib_digest(b.loc_rib()));
  EXPECT_EQ(c.loc_rib().prefix_count(), 6u);
}

TEST(UpdateGroup, EncodeCacheCreditingConsistentWithPool) {
  Hub hub;
  std::vector<PeerId> members;
  for (int i = 0; i < 3; ++i) {
    std::string member_name = "m";
    member_name += std::to_string(i);
    members.push_back(hub.attach(
        {.name = member_name,
         .peer_asn = static_cast<Asn>(64051 + i),
         .local_address = Ipv4Address(10, static_cast<std::uint8_t>(i + 1), 0,
                                      1)}));
  }
  hub.settle();
  ASSERT_EQ(hub.speaker.export_group_of(members[0]),
            hub.speaker.export_group_of(members[2]));

  const AttrPool::Stats before = hub.speaker.attr_pool().stats();
  // Five routes over two distinct attribute sets: two shared templates.
  for (int i = 0; i < 5; ++i) {
    std::string cidr = "10.";
    cidr += std::to_string(50 + i);
    cidr += ".0.0/16";
    hub.speaker.originate(pfx(cidr),
                          attrs_with(static_cast<std::uint32_t>(i % 2)));
  }
  hub.settle();
  const AttrPool::Stats after = hub.speaker.attr_pool().stats();

  // The serial warm-up encodes each distinct (template, options) once; the
  // members' sends then splice the cached bytes, so every member send is
  // credited as a hit and the pool's miss count stays at the template
  // count — not the send count.
  EXPECT_EQ(after.encode_misses - before.encode_misses, 2u);
  for (PeerId m : members) {
    const PeerStats& stats = hub.speaker.peer_stats(m);
    EXPECT_EQ(stats.attr_encode_cache_hits, 5u) << "member " << m;
    EXPECT_EQ(stats.attr_encode_cache_misses, 0u) << "member " << m;
  }
  // Per-member crediting and the pool's own counters describe the same
  // traffic: hub-side hits are member sends plus warm-up re-encounters.
  const std::uint64_t member_hits = 3u * 5u;
  EXPECT_GE(member_hits + (after.encode_misses - before.encode_misses),
            15u);
}

/// Counts UPDATE-bearing stream deliveries (ISSUE 10: MRAI withdrawal
/// coalescing). Every flush is one stream send per peer, so a delivery that
/// decodes to >= 1 UPDATE is one flush as seen from the wire; the recorder
/// tallies the announced and withdrawn NLRI it carried.
class FlushRecorder {
 public:
  FlushRecorder(std::shared_ptr<sim::StreamEndpoint> stream, Asn asn)
      : stream_(std::move(stream)) {
    stream_->on_data([this, asn](const Bytes& data) {
      decoder_.feed(data);
      std::size_t updates = 0, announced = 0, withdrawn = 0;
      while (true) {
        auto result = decoder_.poll();
        if (!result.ok() || !result->has_value()) break;
        if (std::holds_alternative<OpenMessage>(**result)) {
          OpenMessage open;
          open.asn = asn;
          open.router_id = Ipv4Address(9, 9, 0, 9);
          open.add_four_byte_asn(asn);
          UpdateCodecOptions options;
          stream_->send(encode_message(open, options));
          stream_->send(encode_message(KeepaliveMessage{}, options));
        } else if (std::holds_alternative<UpdateMessage>(**result)) {
          const auto& update = std::get<UpdateMessage>(**result);
          ++updates;
          announced += update.nlri.size();
          withdrawn += update.withdrawn.size();
        }
      }
      if (updates > 0)
        deliveries_.push_back({updates, announced, withdrawn});
    });
  }

  struct Delivery {
    std::size_t updates, announced, withdrawn;
  };
  const std::vector<Delivery>& deliveries() const { return deliveries_; }

 private:
  std::shared_ptr<sim::StreamEndpoint> stream_;
  MessageDecoder decoder_;
  std::vector<Delivery> deliveries_;
};

TEST(UpdateGroup, MraiCoalescesMixedBurstIntoOneSendPerPeer) {
  // The registry must exist before the speaker so the flush histogram is
  // captured.
  obs::Registry registry;
  obs::Scope scope(&registry);
  sim::EventLoop loop;
  BgpSpeaker hub(&loop, "hub", 65000, Ipv4Address(1, 1, 1, 1));

  constexpr int kPeers = 3;
  const Duration mrai = Duration::seconds(10);
  std::vector<std::unique_ptr<FlushRecorder>> recorders;
  for (int i = 0; i < kPeers; ++i) {
    std::string peer_name = "w";
    peer_name += std::to_string(i);
    PeerId peer = hub.add_peer(
        {.name = peer_name,
         .peer_asn = static_cast<Asn>(64081 + i),
         .local_address =
             Ipv4Address(10, static_cast<std::uint8_t>(i + 1), 0, 1),
         .mrai = mrai});
    auto streams = sim::StreamChannel::make(&loop, Duration::millis(1));
    hub.connect_peer(peer, streams.a);
    recorders.push_back(std::make_unique<FlushRecorder>(
        streams.b, static_cast<Asn>(64081 + i)));
  }
  loop.run_for(Duration::seconds(5));

  // Steps sim time until every recorder has seen `n` UPDATE-bearing
  // deliveries; the step is small, so once this returns the last flush just
  // fired and a fresh MRAI window is known to be (almost) fully open.
  auto wait_for_deliveries = [&](std::size_t n) {
    for (int step = 0; step < 120; ++step) {
      bool done = true;
      for (const auto& recorder : recorders)
        done = done && recorder->deliveries().size() >= n;
      if (done) return true;
      loop.run_for(Duration::millis(500));
    }
    return false;
  };

  // Seed the table.
  for (int i = 0; i < 6; ++i) {
    std::string cidr = "10.";
    cidr += std::to_string(120 + i);
    cidr += ".0.0/16";
    hub.originate(pfx(cidr), attrs_with(0));
  }
  ASSERT_TRUE(wait_for_deliveries(1));
  for (const auto& recorder : recorders) {
    ASSERT_EQ(recorder->deliveries().size(), 1u);
    EXPECT_EQ(recorder->deliveries()[0].announced, 6u);
  }

  // A window opener: one change, wait for its flush — from here the MRAI
  // hold-down is freshly armed.
  hub.originate(pfx("10.130.0.0/16"), attrs_with(3));
  ASSERT_TRUE(wait_for_deliveries(2));
  const obs::Snapshot before = registry.snapshot(loop.now());
  const obs::SeriesData* batch_before =
      before.find("bgp_mrai_flush_batch", {{"speaker", "hub"}});
  ASSERT_NE(batch_before, nullptr);

  // A mixed burst inside the hold-down: new announcements, withdrawals of
  // live prefixes, and a replace of a survivor. Everything must wait for
  // the window and leave in ONE coalesced send per peer, withdrawals
  // included — not an UPDATE trickle per change.
  for (int i = 0; i < 4; ++i) {
    std::string cidr = "10.";
    cidr += std::to_string(140 + i);
    cidr += ".0.0/16";
    hub.originate(pfx(cidr), attrs_with(1));
  }
  hub.withdraw_originated(pfx("10.120.0.0/16"));
  hub.withdraw_originated(pfx("10.121.0.0/16"));
  hub.withdraw_originated(pfx("10.122.0.0/16"));
  hub.originate(pfx("10.125.0.0/16"), attrs_with(2));
  loop.run_for(Duration::seconds(1));
  // Still inside the window: nothing new on any wire.
  for (const auto& recorder : recorders)
    EXPECT_EQ(recorder->deliveries().size(), 2u);

  loop.run_for(Duration::seconds(30));
  for (std::size_t i = 0; i < recorders.size(); ++i) {
    const auto& deliveries = recorders[i]->deliveries();
    ASSERT_EQ(deliveries.size(), 3u)
        << "peer " << i << ": burst was not coalesced into one send";
    EXPECT_EQ(deliveries[2].announced, 5u) << "peer " << i;
    EXPECT_EQ(deliveries[2].withdrawn, 3u) << "peer " << i;
  }

  // The flush-batch histogram agrees with the wire: the burst was one
  // drain event (count +1) flushing all three same-class members (sum +3).
  obs::Snapshot after = registry.snapshot(loop.now());
  const obs::SeriesData* batch_after =
      after.find("bgp_mrai_flush_batch", {{"speaker", "hub"}});
  ASSERT_NE(batch_after, nullptr);
  EXPECT_EQ(batch_after->count - batch_before->count, 1u);
  EXPECT_EQ(batch_after->sum - batch_before->sum,
            static_cast<double>(kPeers));
}

/// One scripted scenario: a hub with a heterogeneous set of recorded
/// sessions and a seeded random feed of announcements and withdrawals.
/// Returns per-recorder wire bytes plus hub-side observables.
struct ScenarioResult {
  std::vector<Bytes> wires;
  std::vector<PeerStats> stats;
  std::vector<std::string> rib;
  std::uint64_t updates_sent = 0;
  std::size_t groups = 0;
};

/// `grouped` = false gives every session its own (empty) ExportClass
/// instance: the descriptor identity keys the fingerprint, so each session
/// becomes a singleton group running the identical machinery — the
/// per-peer reference.
ScenarioResult run_scenario(bool grouped, std::uint64_t seed,
                            PipelineConfig pipeline = {}) {
  Hub hub(pipeline);
  auto attach = [&](PeerConfig config, bool peer_addpath = false) {
    if (!grouped) config.export_class = std::make_shared<const ExportClass>();
    hub.attach(std::move(config), peer_addpath);
  };
  attach({.name = "plain1", .peer_asn = 64061,
          .local_address = Ipv4Address(10, 1, 0, 1)});
  attach({.name = "plain2", .peer_asn = 64062,
          .local_address = Ipv4Address(10, 2, 0, 1)});
  attach({.name = "ap1", .peer_asn = 64063,
          .local_address = Ipv4Address(10, 3, 0, 1),
          .addpath = AddPathMode::kBoth},
         /*peer_addpath=*/true);
  attach({.name = "ap2", .peer_asn = 64064,
          .local_address = Ipv4Address(10, 4, 0, 1),
          .addpath = AddPathMode::kBoth},
         /*peer_addpath=*/true);
  attach({.name = "slow", .peer_asn = 64065,
          .local_address = Ipv4Address(10, 5, 0, 1),
          .mrai = Duration::seconds(20)});
  attach({.name = "transp", .peer_asn = 64066,
          .local_address = Ipv4Address(10, 6, 0, 1),
          .transparent = true});
  attach({.name = "filtered", .peer_asn = 64067,
          .local_address = Ipv4Address(10, 7, 0, 1),
          .export_policy = RoutePolicy::accept_all().add_term(
              {.name = "no-odd",
               .match = {.any_community = {Community(65000, 1)}},
               .actions = {.deny = true},
               .final_term = true})});
  hub.settle();

  // Seeded churn: announce/withdraw random prefixes drawn from a small
  // space so re-announcements, implicit replaces, and withdrawals all
  // occur, with attribute sets drawn from a handful of shared shapes.
  std::mt19937_64 rng(seed);
  std::vector<Ipv4Prefix> space;
  for (int i = 0; i < 32; ++i) {
    std::string cidr = "10.";
    cidr += std::to_string(16 + i);
    cidr += ".0.0/16";
    space.push_back(pfx(cidr));
  }
  std::vector<bool> live(space.size(), false);
  for (int round = 0; round < 6; ++round) {
    for (int step = 0; step < 12; ++step) {
      const std::size_t slot = rng() % space.size();
      if (live[slot] && rng() % 4 == 0) {
        hub.speaker.withdraw_originated(space[slot]);
        live[slot] = false;
      } else {
        hub.speaker.originate(space[slot],
                              attrs_with(static_cast<std::uint32_t>(rng() % 3)));
        live[slot] = true;
      }
    }
    hub.settle(Duration::seconds(7));
  }
  hub.settle(Duration::seconds(30));

  ScenarioResult result;
  for (const auto& recorder : hub.recorders)
    result.wires.push_back(recorder->wire());
  for (PeerId peer : hub.peers)
    result.stats.push_back(hub.speaker.peer_stats(peer));
  result.rib = rib_digest(hub.speaker.loc_rib());
  result.updates_sent = hub.speaker.total_updates_sent();
  result.groups = hub.speaker.export_group_count();
  return result;
}

/// Wire bytes, RIB digest and per-session stats of two scenario runs agree.
void expect_identical(const ScenarioResult& a, const ScenarioResult& b,
                      std::uint64_t seed) {
  ASSERT_EQ(a.wires.size(), b.wires.size());
  for (std::size_t i = 0; i < a.wires.size(); ++i)
    EXPECT_EQ(a.wires[i], b.wires[i])
        << "seed " << seed << ": session " << i << " received different bytes";
  EXPECT_EQ(a.rib, b.rib) << "seed " << seed;
  EXPECT_EQ(a.updates_sent, b.updates_sent) << "seed " << seed;
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (std::size_t i = 0; i < a.stats.size(); ++i) {
    EXPECT_EQ(a.stats[i].updates_sent, b.stats[i].updates_sent)
        << "seed " << seed << ": session " << i;
    EXPECT_EQ(a.stats[i].attr_encode_cache_hits,
              b.stats[i].attr_encode_cache_hits)
        << "seed " << seed << ": session " << i;
    EXPECT_EQ(a.stats[i].attr_encode_cache_misses,
              b.stats[i].attr_encode_cache_misses)
        << "seed " << seed << ": session " << i;
  }
}

TEST(UpdateGroup, GroupedAndUngroupedAreWireIdentical) {
  for (std::uint64_t seed : {41ull, 97ull, 1234ull}) {
    ScenarioResult grouped = run_scenario(/*grouped=*/true, seed);
    ScenarioResult ungrouped = run_scenario(/*grouped=*/false, seed);
    expect_identical(grouped, ungrouped, seed);
    // Sharing actually happened in the grouped run: fewer groups than
    // sessions (plain pair + ADD-PATH pair each collapse).
    EXPECT_LT(grouped.groups, ungrouped.groups) << "seed " << seed;
  }
}

/// The parallel drain (Phase A group evaluation and Phase B member encode
/// fanned across the scheduler) must put the same bytes on every wire as
/// the serial one. The scenario runs several groups and several due members
/// per flush, so {4, 3} reaches both parallel_for calls.
TEST(UpdateGroup, ParallelPipelineIsWireIdentical) {
  for (std::uint64_t seed : {41ull, 97ull, 1234ull}) {
    ScenarioResult serial =
        run_scenario(/*grouped=*/true, seed, {.partitions = 1, .workers = 0});
    ScenarioResult parallel =
        run_scenario(/*grouped=*/true, seed, {.partitions = 4, .workers = 3});
    expect_identical(serial, parallel, seed);
    EXPECT_EQ(serial.groups, parallel.groups) << "seed " << seed;
  }
}

/// A source-driven class must be wire-equivalent to a transform class that
/// only rewrites the next-hop, on transparent sessions (where the standard
/// transform leaves the template untouched — vBGP's experiment fan-out
/// shape).
ScenarioResult run_class_scenario(bool source_driven) {
  Hub hub;
  const Ipv4Address vnh(100, 65, 0, 1);
  auto cls = std::make_shared<ExportClass>();
  if (source_driven) {
    cls->next_hop = [vnh](const RibRoute&) { return vnh; };
  } else {
    cls->transform = [&hub, vnh](const RibRoute&, const AttrsPtr& attrs)
        -> std::optional<AttrsPtr> {
      PathAttributes rewritten = *attrs;
      rewritten.next_hop = vnh;
      return hub.speaker.attr_pool().intern(std::move(rewritten));
    };
  }
  for (int i = 0; i < 2; ++i) {
    std::string peer_name = "x";
    peer_name += std::to_string(i);
    hub.attach(
        {.name = peer_name,
         .peer_asn = static_cast<Asn>(64071 + i),
         .local_address = Ipv4Address(10, static_cast<std::uint8_t>(i + 1), 0,
                                      1),
         .addpath = AddPathMode::kBoth,
         .export_all_paths = true,
         .transparent = true,
         .export_class = cls},
        /*peer_addpath=*/true);
  }
  hub.settle();

  for (int i = 0; i < 4; ++i) {
    std::string cidr = "10.";
    cidr += std::to_string(80 + i);
    cidr += ".0.0/16";
    hub.speaker.originate(pfx(cidr), attrs_with(static_cast<std::uint32_t>(i)));
  }
  hub.settle();
  hub.speaker.withdraw_originated(pfx("10.81.0.0/16"));
  hub.settle();

  ScenarioResult result;
  for (const auto& recorder : hub.recorders)
    result.wires.push_back(recorder->wire());
  for (PeerId peer : hub.peers)
    result.stats.push_back(hub.speaker.peer_stats(peer));
  result.groups = hub.speaker.export_group_count();
  return result;
}

TEST(UpdateGroup, SourceDrivenHookMatchesGeneralHookOnWire) {
  ScenarioResult with_source = run_class_scenario(/*source_driven=*/true);
  ScenarioResult with_transform = run_class_scenario(/*source_driven=*/false);

  ASSERT_EQ(with_source.wires.size(), with_transform.wires.size());
  for (std::size_t i = 0; i < with_source.wires.size(); ++i)
    EXPECT_EQ(with_source.wires[i], with_transform.wires[i])
        << "session " << i << " received different bytes";
  // Both sessions hold the one descriptor: they share one group.
  EXPECT_EQ(with_source.groups, 1u);
  EXPECT_EQ(with_transform.groups, 1u);
}

/// Next-hop of the last UPDATE carrying NLRI on a plain (no ADD-PATH)
/// session's recorded wire.
std::optional<Ipv4Address> last_announced_next_hop(const Bytes& wire) {
  MessageDecoder decoder;
  decoder.feed(wire);
  std::optional<Ipv4Address> nh;
  while (true) {
    auto result = decoder.poll();
    if (!result.ok() || !result->has_value()) break;
    if (const auto* update = std::get_if<UpdateMessage>(&**result)) {
      if (!update->nlri.empty() && update->attributes)
        nh = update->attributes->next_hop;
    }
  }
  return nh;
}

/// The memo is keyed on (source attrs, origin); the class's owner state is
/// not part of the key. Moving the class's version must drop the memo with
/// no call from the owner, or a re-origination of the same attributes
/// would be served the stale next-hop and never reach the wire.
TEST(UpdateGroup, ClassVersionInvalidatesMemo) {
  Hub hub;
  const Ipv4Address source_nh(10, 0, 0, 1);
  std::map<Ipv4Address, Ipv4Address> virtual_nh{
      {source_nh, Ipv4Address(100, 65, 0, 1)}};
  std::uint64_t version = 1;
  auto cls = std::make_shared<const ExportClass>(ExportClass{
      .next_hop =
          [&virtual_nh](const RibRoute& route) -> std::optional<Ipv4Address> {
        return virtual_nh.at(route.attrs->next_hop);
      },
      .version = &version});
  PeerId peer = hub.attach({.name = "v", .peer_asn = 64091,
                            .local_address = Ipv4Address(10, 1, 0, 1),
                            .transparent = true,
                            .export_class = cls});
  hub.settle();

  const Ipv4Prefix prefix = pfx("10.90.0.0/16");
  hub.speaker.originate(prefix, attrs_with(7));
  hub.settle();
  ASSERT_EQ(last_announced_next_hop(hub.recorders[0]->wire()),
            Ipv4Address(100, 65, 0, 1));

  virtual_nh[source_nh] = Ipv4Address(100, 65, 0, 2);
  ++version;
  hub.speaker.originate(prefix, attrs_with(7));
  hub.settle();
  EXPECT_EQ(last_announced_next_hop(hub.recorders[0]->wire()),
            Ipv4Address(100, 65, 0, 2));
  const auto out = hub.speaker.adj_rib_out(peer);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].next_hop, Ipv4Address(100, 65, 0, 2));
}

}  // namespace
}  // namespace peering::bgp
