// Exact work counts of the vBGP packet path (§3.2.2). This binary replaces
// the global operator new with a counting one, so it can assert that
// forwarding a frame, in either direction through a VRouter, allocates
// nothing once the router is warm, and that the event loop runs exactly one
// event per frame per link hop (the delivery; the link's queue drains
// without events). Counts, not times: the gate holds on any host.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "enforce/data_enforcer.h"
#include "ip/ipv4.h"
#include "sim/event_loop.h"
#include "sim/link.h"
#include "vbgp/vrouter.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_malloc(n); }
void* operator new[](std::size_t n) { return counted_malloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_malloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_malloc(n);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace peering::vbgp {
namespace {

/// 40 bytes: far past any small-string buffer, so copying the id per
/// packet would allocate.
const std::string kExperimentId = "x-0123456789-0123456789-0123456789-01234";
const Ipv4Prefix kExperimentPrefix(Ipv4Address(184, 164, 224, 0), 24);
const Ipv4Prefix kInternetPrefix(Ipv4Address(198, 51, 100, 0), 24);
const Ipv4Address kNeighborAddr(10, 0, 0, 2);
const Ipv4Address kTunnelAddr(100, 64, 0, 2);
const MacAddress kNeighborMac = MacAddress::from_id(0x200);
const MacAddress kExperimentMac = MacAddress::from_id(0x300);
constexpr std::size_t kFrames = 10'000;
constexpr std::size_t kBurst = 32;

sim::LinkConfig link_config() {
  sim::LinkConfig c;
  c.latency = Duration::micros(10);
  c.bandwidth_bps = 10'000'000'000ull;
  return c;
}

/// One router between a neighbor link and an experiment link; the router
/// is side a of both. Sinks count what leaves it.
class DataPlaneAllocTest : public ::testing::Test {
 protected:
  DataPlaneAllocTest()
      : router_(&loop_, VRouterConfig{.name = "e1", .pop_id = "pop",
                                      .router_id = Ipv4Address(10, 255, 0, 1)}),
        nb_link_(&loop_, link_config()),
        exp_link_(&loop_, link_config()) {
    nb_if_ = router_.add_attached_interface(
        "n1", MacAddress::from_id(0x100), {Ipv4Address(10, 0, 0, 1), 24},
        nb_link_, true, true);
    exp_if_ = router_.add_attached_interface(
        "x1", MacAddress::from_id(0x180), {Ipv4Address(100, 64, 0, 1), 24},
        exp_link_, true, true);
    const bgp::PeerId peer = router_.add_neighbor(
        {.name = "n1", .asn = 64700, .local_address = Ipv4Address(10, 0, 0, 1),
         .remote_address = kNeighborAddr, .interface = nb_if_, .global_id = 1});
    neighbor_ = router_.registry().by_peer(peer);
    router_.registry().learn_real_mac(kNeighborMac, neighbor_->local_id);
    router_.arp_cache(nb_if_).learn(kNeighborAddr, kNeighborMac, loop_.now());
    neighbor_->fib.insert({kInternetPrefix, kNeighborAddr, nb_if_, 0});

    router_.add_experiment({.experiment_id = kExperimentId, .asn = 61574,
                            .local_address = Ipv4Address(100, 64, 0, 1),
                            .remote_address = kTunnelAddr,
                            .interface = exp_if_});
    router_.add_experiment_route(kExperimentPrefix, kExperimentId, exp_if_,
                                 kTunnelAddr);
    router_.arp_cache(exp_if_).learn(kTunnelAddr, kExperimentMac, loop_.now());

    enforce::ExperimentGrant grant;
    grant.experiment_id = kExperimentId;
    grant.allocated_prefixes = {kExperimentPrefix};
    grant.allowed_origin_asns = {61574};
    EXPECT_TRUE(data_.install(grant).ok());
    router_.set_data_enforcer(&data_);

    nb_link_.a_to_b().set_receiver([this](const Bytes& f) { count(at_neighbor_, f); });
    exp_link_.a_to_b().set_receiver(
        [this](const Bytes& f) { count(at_experiment_, f); });
  }

  struct Sink {
    std::uint64_t frames = 0;
    std::uint64_t ttl_sum = 0;
  };
  static void count(Sink& sink, const Bytes& frame) {
    ++sink.frames;
    sink.ttl_sum += frame[14 + 8];
  }

  /// `n` frames as the ingress link would carry them, built up front so
  /// that sending them allocates nothing.
  std::vector<Bytes> frames(bool to_internet, std::size_t n) {
    std::vector<Bytes> out;
    for (std::size_t i = 0; i < n; ++i) {
      ip::Ipv4Packet packet;
      packet.identification = static_cast<std::uint16_t>(i);
      packet.payload = Bytes(26, 0x42);
      const auto host = static_cast<std::uint8_t>(1 + i % 200);
      ether::EthernetFrame frame;
      if (to_internet) {
        packet.src = Ipv4Address(184, 164, 224, host);
        packet.dst = Ipv4Address(198, 51, 100, host);
        frame = ether::make_frame(neighbor_->virtual_mac, kExperimentMac,
                                  ether::EtherType::kIpv4, packet.encode());
      } else {
        packet.src = Ipv4Address(198, 51, 100, host);
        packet.dst = Ipv4Address(184, 164, 224, host);
        frame = ether::make_frame(router_.interface(nb_if_).mac(), kNeighborMac,
                                  ether::EtherType::kIpv4, packet.encode());
      }
      out.push_back(frame.encode());
    }
    return out;
  }

  struct Counts {
    std::uint64_t allocations = 0;
    std::size_t events = 0;
  };

  /// Sends `batch` into the router in bursts, each run to completion.
  Counts forward(bool to_internet, std::vector<Bytes>& batch) {
    sim::LinkDirection& ingress =
        to_internet ? exp_link_.b_to_a() : nb_link_.b_to_a();
    Counts c;
    const std::uint64_t before = g_allocations.load();
    g_counting = true;
    for (std::size_t i = 0; i < batch.size(); i += kBurst) {
      for (std::size_t j = i; j < std::min(i + kBurst, batch.size()); ++j)
        ingress.send(std::move(batch[j]));
      c.events += loop_.run();
    }
    g_counting = false;
    c.allocations = g_allocations.load() - before;
    return c;
  }

  sim::EventLoop loop_;
  VRouter router_;
  enforce::DataPlaneEnforcer data_;
  sim::Link nb_link_, exp_link_;
  int nb_if_ = -1, exp_if_ = -1;
  VirtualNeighbor* neighbor_ = nullptr;
  Sink at_neighbor_, at_experiment_;
};

TEST_F(DataPlaneAllocTest, ExperimentToNeighborAllocatesNothingPerFrame) {
  auto warm = frames(true, 4 * kBurst);
  forward(true, warm);
  auto batch = frames(true, kFrames);
  at_neighbor_ = {};
  const Counts c = forward(true, batch);
  EXPECT_EQ(at_neighbor_.frames, kFrames);
  EXPECT_EQ(at_neighbor_.ttl_sum, kFrames * 63);
  EXPECT_EQ(router_.stats().frames_demuxed, kFrames + 4 * kBurst);
  EXPECT_EQ(router_.traffic_accounting().at(kExperimentId).egress_bytes,
            (kFrames + 4 * kBurst) * 46);
  EXPECT_EQ(c.allocations, 0u);
  // Two link hops per frame, ingress and egress: one event each.
  EXPECT_EQ(c.events, 2 * kFrames);
}

TEST_F(DataPlaneAllocTest, NeighborToExperimentAllocatesNothingPerFrame) {
  auto warm = frames(false, 4 * kBurst);
  forward(false, warm);
  auto batch = frames(false, kFrames);
  at_experiment_ = {};
  const Counts c = forward(false, batch);
  EXPECT_EQ(at_experiment_.frames, kFrames);
  EXPECT_EQ(at_experiment_.ttl_sum, kFrames * 63);
  EXPECT_EQ(router_.stats().frames_to_experiments, kFrames + 4 * kBurst);
  EXPECT_EQ(c.allocations, 0u);
  EXPECT_EQ(c.events, 2 * kFrames);
}

}  // namespace
}  // namespace peering::vbgp
