// Shared-leaf FIB store tests: the RoutingTable contract exercised through
// FibView (typed over both implementations), copy-on-write isolation between
// views, a randomized differential test of FibView against the legacy
// single-owner RoutingTable, and the shared-vs-flat accounting the Figure 6a
// ablation depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "ip/fib_set.h"
#include "ip/routing_table.h"
#include "netbase/rand.h"

namespace peering::ip {
namespace {

Route route(const std::string& prefix, std::uint32_t nh, int ifidx = 0) {
  return Route{*Ipv4Prefix::parse(prefix), Ipv4Address(nh), ifidx, 0};
}

// ---------------------------------------------------------------------------
// LPM edge cases, typed over both table flavours. A RoutingTable and a
// FibView must be indistinguishable through the shared contract.
// ---------------------------------------------------------------------------

// Wraps FibView so each TableHolder owns its backing set; TableHolder<
// RoutingTable> is the plain table.
template <typename T>
struct TableHolder;

template <>
struct TableHolder<RoutingTable> {
  RoutingTable table;
  RoutingTable& get() { return table; }
  TableHolder fresh() const { return {}; }
};

template <>
struct TableHolder<FibView> {
  std::unique_ptr<FibSet> set = std::make_unique<FibSet>();
  FibView table = set->make_view();
  FibView& get() { return table; }
  TableHolder fresh() const { return {}; }
};

template <typename T>
class LpmContractTest : public ::testing::Test {
 protected:
  TableHolder<T> holder_;
};

using TableTypes = ::testing::Types<RoutingTable, FibView>;
TYPED_TEST_SUITE(LpmContractTest, TableTypes);

TYPED_TEST(LpmContractTest, DefaultRouteIsFallbackForEverything) {
  auto& table = this->holder_.get();
  table.insert(route("0.0.0.0/0", 1));
  table.insert(route("10.0.0.0/8", 2));
  EXPECT_EQ(table.lookup(Ipv4Address(10, 1, 1, 1))->next_hop.value(), 2u);
  EXPECT_EQ(table.lookup(Ipv4Address(203, 0, 113, 9))->next_hop.value(), 1u);
  EXPECT_EQ(table.lookup(Ipv4Address(0, 0, 0, 1))->next_hop.value(), 1u);
}

TYPED_TEST(LpmContractTest, HostRoutesBeatEveryCoveringPrefix) {
  auto& table = this->holder_.get();
  table.insert(route("10.0.0.0/8", 1));
  table.insert(route("10.1.2.3/32", 2));
  EXPECT_EQ(table.lookup(Ipv4Address(10, 1, 2, 3))->next_hop.value(), 2u);
  EXPECT_EQ(table.lookup(Ipv4Address(10, 1, 2, 4))->next_hop.value(), 1u);
  EXPECT_TRUE(table.exact(*Ipv4Prefix::parse("10.1.2.3/32")).has_value());
  EXPECT_FALSE(table.exact(*Ipv4Prefix::parse("10.1.2.4/32")).has_value());
}

TYPED_TEST(LpmContractTest, NestedOverlappingPrefixesResolveByLength) {
  auto& table = this->holder_.get();
  table.insert(route("10.0.0.0/8", 1));
  table.insert(route("10.1.0.0/16", 2));
  table.insert(route("10.1.2.0/24", 3));
  table.insert(route("10.1.2.128/25", 4));
  EXPECT_EQ(table.lookup(Ipv4Address(10, 1, 2, 200))->next_hop.value(), 4u);
  EXPECT_EQ(table.lookup(Ipv4Address(10, 1, 2, 100))->next_hop.value(), 3u);
  EXPECT_EQ(table.lookup(Ipv4Address(10, 1, 3, 1))->next_hop.value(), 2u);
  EXPECT_EQ(table.lookup(Ipv4Address(10, 2, 0, 1))->next_hop.value(), 1u);
}

TYPED_TEST(LpmContractTest, InsertReplacesAndReportsReplacement) {
  auto& table = this->holder_.get();
  EXPECT_FALSE(table.insert(route("192.0.2.0/24", 1)));
  EXPECT_TRUE(table.insert(route("192.0.2.0/24", 9)));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.lookup(Ipv4Address(192, 0, 2, 1))->next_hop.value(), 9u);
}

TYPED_TEST(LpmContractTest, RemoveFallsBackToCoveringPrefix) {
  auto& table = this->holder_.get();
  table.insert(route("10.0.0.0/8", 1));
  table.insert(route("10.1.0.0/16", 2));
  EXPECT_TRUE(table.remove(*Ipv4Prefix::parse("10.1.0.0/16")));
  EXPECT_EQ(table.lookup(Ipv4Address(10, 1, 0, 1))->next_hop.value(), 1u);
  EXPECT_FALSE(table.remove(*Ipv4Prefix::parse("10.1.0.0/16")));
  EXPECT_EQ(table.size(), 1u);
}

TYPED_TEST(LpmContractTest, MovedFromTableIsEmptyAndReusable) {
  auto moved_to = std::move(this->holder_);
  auto& old_table = this->holder_.get();
  EXPECT_EQ(old_table.size(), 0u);
  EXPECT_FALSE(old_table.lookup(Ipv4Address(10, 0, 0, 1)).has_value());

  // The moved-from holder must accept a fresh table and work normally.
  this->holder_ = this->holder_.fresh();
  auto& reused = this->holder_.get();
  reused.insert(route("10.0.0.0/8", 7));
  EXPECT_EQ(reused.size(), 1u);
  EXPECT_EQ(reused.lookup(Ipv4Address(10, 1, 1, 1))->next_hop.value(), 7u);
}

TYPED_TEST(LpmContractTest, ClearEmptiesAndAllowsReuse) {
  auto& table = this->holder_.get();
  table.insert(route("10.0.0.0/8", 1));
  table.insert(route("10.1.0.0/16", 2));
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.lookup(Ipv4Address(10, 1, 1, 1)).has_value());
  table.insert(route("10.2.0.0/16", 3));
  EXPECT_EQ(table.lookup(Ipv4Address(10, 2, 0, 1))->next_hop.value(), 3u);
}

// ---------------------------------------------------------------------------
// FibSet-specific behaviour: view isolation, copy-on-write writes, payload
// interning, release/reuse.
// ---------------------------------------------------------------------------

TEST(FibSet, ViewsAreIsolated) {
  FibSet set;
  FibView a = set.make_view();
  FibView b = set.make_view();
  a.insert(route("10.0.0.0/8", 1));
  b.insert(route("10.0.0.0/8", 2));
  b.insert(route("192.168.0.0/16", 3));
  EXPECT_EQ(a.lookup(Ipv4Address(10, 1, 1, 1))->next_hop.value(), 1u);
  EXPECT_EQ(b.lookup(Ipv4Address(10, 1, 1, 1))->next_hop.value(), 2u);
  EXPECT_FALSE(a.lookup(Ipv4Address(192, 168, 1, 1)).has_value());
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 2u);
  // Removing from one view leaves the other's entry untouched.
  EXPECT_TRUE(a.remove(*Ipv4Prefix::parse("10.0.0.0/8")));
  EXPECT_EQ(b.lookup(Ipv4Address(10, 1, 1, 1))->next_hop.value(), 2u);
}

TEST(FibSet, SharedPrefixUsesOneTrieLeaf) {
  FibSet set;
  std::vector<FibView> views;
  for (int i = 0; i < 8; ++i) views.push_back(set.make_view());
  for (auto& v : views) v.insert(route("203.0.113.0/24", 1));
  EXPECT_EQ(set.unique_prefix_count(), 1u);
  EXPECT_EQ(set.route_count(), 8u);
}

TEST(FibSet, IdenticalPayloadsAreInterned) {
  FibSet set;
  FibView a = set.make_view();
  std::size_t before = set.memory_bytes();
  // 64 routes through the same gateway/interface: one pooled payload.
  for (std::uint32_t i = 0; i < 64; ++i) {
    std::string cidr = "10.";
    cidr += std::to_string(i);
    cidr += ".0.0/16";
    a.insert(route(cidr, 7, 3));
  }
  std::size_t with_same_payload = set.memory_bytes();
  FibSet set2;
  FibView b = set2.make_view();
  // Same shape, but every route gets a distinct payload.
  for (std::uint32_t i = 0; i < 64; ++i) {
    std::string cidr = "10.";
    cidr += std::to_string(i);
    cidr += ".0.0/16";
    b.insert(route(cidr, 100 + i, 3));
  }
  std::size_t with_distinct_payloads = set2.memory_bytes();
  EXPECT_LT(with_same_payload - before, with_distinct_payloads - before);
}

TEST(FibSet, ReleasedViewDropsRoutesAndRecyclesId) {
  FibSet set;
  FibView keeper = set.make_view();
  keeper.insert(route("10.0.0.0/8", 1));
  {
    FibView temp = set.make_view();
    temp.insert(route("10.0.0.0/8", 2));
    temp.insert(route("172.16.0.0/12", 3));
    EXPECT_EQ(set.view_count(), 2u);
  }  // temp released on destruction
  EXPECT_EQ(set.view_count(), 1u);
  EXPECT_EQ(set.route_count(), 1u);
  EXPECT_EQ(set.unique_prefix_count(), 1u);
  // The recycled id starts empty.
  FibView next = set.make_view();
  EXPECT_EQ(next.size(), 0u);
  EXPECT_FALSE(next.lookup(Ipv4Address(10, 1, 1, 1)).has_value());
  EXPECT_EQ(keeper.lookup(Ipv4Address(10, 1, 1, 1))->next_hop.value(), 1u);
}

TEST(FibSet, UnboundViewReadsEmptyAndIgnoresWrites) {
  FibView unbound;
  EXPECT_FALSE(unbound.bound());
  EXPECT_FALSE(unbound.insert(route("10.0.0.0/8", 1)));
  EXPECT_FALSE(unbound.lookup(Ipv4Address(10, 0, 0, 1)).has_value());
  EXPECT_FALSE(unbound.remove(*Ipv4Prefix::parse("10.0.0.0/8")));
  EXPECT_EQ(unbound.size(), 0u);
  unbound.clear();  // no-op, must not crash
}

TEST(FibSet, IndexChunksFollowLongerPrefixes) {
  // A /16 holding a longer prefix gets a chunk, a /24 holding one longer
  // than /24 another; each goes when its last longer prefix leaves every
  // view, and the index goes with the last prefix. Chunks store runs of
  // equal entries, so a sparse one costs far less than 256 flat entries.
  constexpr std::size_t kFlatChunkBytes = 256 * 4;
  FibSet set;
  FibView a = set.make_view();
  FibView b = set.make_view();
  EXPECT_EQ(set.index_bytes(), 0u);  // nothing allocated up front
  a.insert(route("10.1.0.0/16", 1));
  const std::size_t direct_only = set.index_bytes();
  EXPECT_GE(direct_only, (std::size_t{1} << 16) * 4);
  a.insert(route("10.1.7.0/24", 2));
  const std::size_t one_chunk = set.index_bytes();
  EXPECT_GT(one_chunk, direct_only);
  EXPECT_LT(one_chunk - direct_only, kFlatChunkBytes / 2);
  b.insert(route("10.1.7.128/25", 3));
  const std::size_t two_chunks = set.index_bytes();
  EXPECT_GT(two_chunks, one_chunk);
  a.insert(route("10.1.7.128/25", 4));  // another view: no index work
  EXPECT_EQ(set.index_bytes(), two_chunks);

  EXPECT_EQ(a.lookup(Ipv4Address(10, 1, 7, 200))->next_hop.value(), 4u);
  EXPECT_EQ(a.lookup(Ipv4Address(10, 1, 7, 1))->next_hop.value(), 2u);
  EXPECT_EQ(b.lookup(Ipv4Address(10, 1, 7, 1)), std::nullopt);

  a.remove(*Ipv4Prefix::parse("10.1.7.128/25"));
  EXPECT_EQ(set.index_bytes(), two_chunks);  // b still has it
  b.remove(*Ipv4Prefix::parse("10.1.7.128/25"));
  const std::size_t back_to_one = set.index_bytes();
  EXPECT_LT(back_to_one, two_chunks);
  EXPECT_EQ(a.lookup(Ipv4Address(10, 1, 7, 200))->next_hop.value(), 2u);
  a.remove(*Ipv4Prefix::parse("10.1.7.0/24"));
  EXPECT_LT(set.index_bytes(), back_to_one);
  EXPECT_EQ(a.lookup(Ipv4Address(10, 1, 7, 200))->next_hop.value(), 1u);

  // Every other /24 of a /16: 256 runs, a chunk grown to full size.
  for (std::uint32_t i = 0; i < 256; i += 2)
    a.insert(Route{Ipv4Prefix(Ipv4Address((10u << 24) | (1u << 16) | (i << 8)), 24),
                   Ipv4Address(100 + i), 0, 0});
  EXPECT_GE(set.index_bytes(), direct_only + kFlatChunkBytes);
  for (std::uint32_t i = 0; i < 256; ++i) {
    const auto got = a.lookup(Ipv4Address((10u << 24) | (1u << 16) | (i << 8) | 9));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->next_hop.value(), i % 2 == 0 ? 100 + i : 1u) << i;
  }
  a.clear();
  EXPECT_EQ(set.index_bytes(), 0u);
  EXPECT_EQ(a.lookup(Ipv4Address(10, 1, 7, 200)), std::nullopt);
}

// ---------------------------------------------------------------------------
// Differential test: FibViews and legacy RoutingTables fed the identical
// randomized insert/remove/clear/release sequence must answer every lookup
// identically. Four views share one set, so a view's deepest covering
// prefix is often another view's (the index falls back to the walk), and
// foreign prefixes are de-indexed while a view still relies on the covering
// prefixes around them. Lengths span /0-/8 (many direct entries and chunks)
// up to /32 (more than an eighth past /24), and probes aim at prefix and
// /16-chunk edges as well as uniform addresses.
// ---------------------------------------------------------------------------

class FibViewDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FibViewDifferentialTest, MatchesRoutingTable) {
  constexpr std::size_t kViews = 4;
  constexpr std::uint32_t kNextHops = 16;
  constexpr int kInterfaces = 8;
  Rng rng(GetParam());
  FibSet set;
  std::vector<FibView> views;
  for (std::size_t v = 0; v < kViews; ++v) views.push_back(set.make_view());
  std::vector<RoutingTable> legacy(kViews);
  std::vector<std::vector<Ipv4Prefix>> present(kViews);

  // Warm the payload pool (every payload at once) and the view free list,
  // so the set's empty footprint is final before the run: afterwards,
  // emptying every view must give back exactly this many bytes.
  for (std::uint32_t nh = 0; nh < kNextHops; ++nh)
    for (int ifidx = 0; ifidx < kInterfaces; ++ifidx)
      views[0].insert(Route{
          Ipv4Prefix(Ipv4Address((10u << 24) | (nh << 16) |
                                 (static_cast<std::uint32_t>(ifidx) << 8)),
                     24),
          Ipv4Address(1 + nh), ifidx, 0});
  views[kViews - 1] = FibView();
  views[kViews - 1] = set.make_view();
  views[0].clear();
  ASSERT_EQ(set.index_bytes(), 0u);
  const std::size_t empty_bytes = set.memory_bytes();

  auto random_length = [&]() -> int {
    double r = rng.uniform();
    if (r < 0.10) return static_cast<int>(rng.range(0, 8));
    if (r < 0.30) return static_cast<int>(rng.range(25, 32));
    return static_cast<int>(rng.range(9, 24));
  };
  auto random_prefix = [&]() {
    // Half the prefixes crowd four /12s so they nest and share chunks.
    std::uint32_t addr = static_cast<std::uint32_t>(rng.next()) &
                         (rng.chance(0.5) ? 0x0a0fffffu : 0xffffffffu);
    return Ipv4Prefix(Ipv4Address(addr), random_length());
  };
  auto random_route = [&](const Ipv4Prefix& prefix) {
    return Route{prefix,
                 Ipv4Address(1 + static_cast<std::uint32_t>(rng.below(kNextHops))),
                 static_cast<int>(rng.below(kInterfaces)), 0};
  };
  auto insert = [&](std::size_t v, const Route& r) {
    bool replaced_view = views[v].insert(r);
    bool replaced_legacy = legacy[v].insert(r);
    EXPECT_EQ(replaced_view, replaced_legacy);
    if (!replaced_legacy) present[v].push_back(r.prefix);
  };
  auto any_present = [&]() -> std::optional<Ipv4Prefix> {
    std::size_t v = rng.below(kViews);
    if (present[v].empty()) return std::nullopt;
    return present[v][rng.below(present[v].size())];
  };
  auto probe_address = [&]() -> Ipv4Address {
    double r = rng.uniform();
    auto p = any_present();
    if (r < 0.5 || !p) return Ipv4Address(static_cast<std::uint32_t>(rng.next()));
    const std::uint32_t first = p->address().value();
    const std::uint32_t last = first | ~p->mask();
    if (r < 0.8) {
      // The prefix's first or last address, or one past either edge.
      const std::uint32_t edge = rng.chance(0.5) ? first : last;
      const std::uint32_t delta = static_cast<std::uint32_t>(rng.range(0, 2)) - 1;
      return Ipv4Address(edge + delta);
    }
    // Either side of the /16 chunk boundaries around the prefix.
    const std::uint32_t chunk = (rng.chance(0.5) ? first : last) & 0xffff0000u;
    return Ipv4Address(rng.chance(0.5) ? chunk - rng.below(2)
                                       : chunk + 0xffffu + rng.below(2));
  };

  for (int step = 0; step < 4000; ++step) {
    const std::size_t v = rng.below(kViews);
    const double action = rng.uniform();
    if (action < 0.35) {
      // Often a prefix another view holds, or one nested in it.
      Ipv4Prefix prefix = random_prefix();
      auto other = any_present();
      if (other && rng.chance(0.4)) {
        int len = std::min(32, other->length() + static_cast<int>(rng.range(0, 8)));
        prefix = Ipv4Prefix(
            Ipv4Address(other->address().value() |
                        (static_cast<std::uint32_t>(rng.next()) & ~other->mask())),
            len);
      }
      insert(v, random_route(prefix));
    } else if (action < 0.55 && !present[v].empty()) {
      std::size_t idx = rng.below(present[v].size());
      Ipv4Prefix victim = present[v][idx];
      EXPECT_EQ(views[v].remove(victim), legacy[v].remove(victim));
      present[v][idx] = present[v].back();
      present[v].pop_back();
    } else if (action < 0.56 && v != 0) {
      // Drop a whole noise view, by clear() or by release and re-create.
      if (rng.chance(0.5)) {
        views[v].clear();
      } else {
        views[v] = FibView();
        views[v] = set.make_view();
      }
      legacy[v].clear();
      present[v].clear();
    } else {
      Ipv4Address probe = probe_address();
      for (std::size_t w = 0; w < kViews; ++w) {
        auto got = views[w].lookup(probe);
        auto want = legacy[w].lookup(probe);
        ASSERT_EQ(got.has_value(), want.has_value())
            << "view " << w << " probe " << probe.str();
        if (want) {
          EXPECT_EQ(got->prefix, want->prefix) << "probe " << probe.str();
          EXPECT_EQ(got->next_hop, want->next_hop);
          EXPECT_EQ(got->interface, want->interface);
        }
      }
    }
    ASSERT_EQ(views[v].size(), legacy[v].size());
  }

  // Final sweep: exact() must agree on every surviving prefix, and visit()
  // must enumerate identical route sets.
  for (std::size_t v = 0; v < kViews; ++v) {
    for (const auto& p : present[v]) {
      auto got = views[v].exact(p);
      auto want = legacy[v].exact(p);
      ASSERT_TRUE(got.has_value() && want.has_value());
      EXPECT_EQ(got->next_hop, want->next_hop);
    }
    std::map<Ipv4Prefix, Route> seen_view, seen_legacy;
    views[v].visit([&](const Route& r) { seen_view[r.prefix] = r; });
    legacy[v].visit([&](const Route& r) { seen_legacy[r.prefix] = r; });
    EXPECT_EQ(seen_view.size(), seen_legacy.size());
    for (const auto& [p, r] : seen_legacy) {
      ASSERT_TRUE(seen_view.count(p)) << p.str();
      EXPECT_EQ(seen_view[p], r);
    }
  }

  // Emptying every view leaves no chunk, id table or trie node behind.
  for (auto& view : views) view.clear();
  EXPECT_EQ(set.index_bytes(), 0u);
  EXPECT_EQ(set.memory_bytes(), empty_bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FibViewDifferentialTest,
                         ::testing::Values(1, 2, 3, 17, 42, 1234, 99999));

// ---------------------------------------------------------------------------
// Accounting: shared vs flat-equivalent bytes.
// ---------------------------------------------------------------------------

TEST(FibSetAccounting, FlatEquivalentMatchesRealRoutingTable) {
  // flat_equivalent_bytes(view) claims to price the view's contents as a
  // standalone RoutingTable; verify against an actual one.
  Rng rng(7);
  FibSet set;
  FibView view = set.make_view();
  FibView other = set.make_view();  // foreign state to ignore
  RoutingTable standalone;
  for (int i = 0; i < 500; ++i) {
    std::uint8_t len = static_cast<std::uint8_t>(rng.range(8, 28));
    Ipv4Prefix p(Ipv4Address(static_cast<std::uint32_t>(rng.next())), len);
    Route r{p, Ipv4Address(1), 0, 0};
    view.insert(r);
    standalone.insert(r);
    if (rng.chance(0.6))
      other.insert(Route{
          Ipv4Prefix(Ipv4Address(static_cast<std::uint32_t>(rng.next())), 24),
          Ipv4Address(2), 0, 0});
  }
  EXPECT_EQ(set.flat_equivalent_bytes(view.id()), standalone.memory_bytes());
}

TEST(FibSetAccounting, MostlyOverlappingViewsDedupAtLeast4x) {
  // The tentpole target: 20 neighbors with ~95% table overlap must cost at
  // least 4x less shared than flat.
  Rng rng(11);
  FibSet set;
  std::vector<FibView> views;
  for (int v = 0; v < 20; ++v) views.push_back(set.make_view());
  for (std::uint32_t i = 0; i < 2000; ++i) {
    Ipv4Prefix p(Ipv4Address((10u << 24) | (i << 8)), 24);
    for (std::size_t v = 0; v < views.size(); ++v) {
      if (v == 0 || rng.uniform() < 0.95)
        views[v].insert(Route{p, Ipv4Address(100 + static_cast<std::uint32_t>(v)),
                              static_cast<int>(v), 0});
    }
  }
  std::size_t shared = set.memory_bytes();
  std::size_t flat = set.flat_equivalent_bytes();
  EXPECT_GE(static_cast<double>(flat) / static_cast<double>(shared), 4.0)
      << "shared=" << shared << " flat=" << flat;
}

TEST(FibSetAccounting, SharedBytesShrinkWhenViewReleases) {
  FibSet set;
  FibView keeper = set.make_view();
  for (std::uint32_t i = 0; i < 64; ++i) {
    std::string cidr = "10.";
    cidr += std::to_string(i);
    cidr += ".0.0/16";
    keeper.insert(route(cidr, 1));
  }
  std::size_t with_one = set.memory_bytes();
  {
    FibView temp = set.make_view();
    for (std::uint32_t i = 0; i < 64; ++i) {
      std::string cidr = "172.";
      cidr += std::to_string(16 + i % 16);
      cidr += '.';
      cidr += std::to_string(i / 16);
      cidr += ".0/24";
      temp.insert(route(cidr, 2));
    }
    EXPECT_GT(set.memory_bytes(), with_one);
  }
  // Trie nodes for the released view's private prefixes are pruned. (Leaf
  // slot arrays and pool capacity may persist; trie structure dominates.)
  EXPECT_EQ(set.unique_prefix_count(), 64u);
  EXPECT_EQ(set.route_count(), 64u);
}

}  // namespace
}  // namespace peering::ip
