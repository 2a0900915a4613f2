// Concurrency tests for the multicore speaker's shared hot paths: atomic
// obs instruments, the mutexed AttrPool, the exec::Scheduler, and the
// parallel pipeline end-to-end. CI runs this binary under ThreadSanitizer
// (the tsan preset), so every cross-thread access here is exercised with
// happens-before checking — a data race fails the suite even on one core.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bgp/attributes.h"
#include "bgp/speaker.h"
#include "exec/scheduler.h"
#include "ip/fib_set.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "sim/stream.h"

namespace peering {
namespace {

using namespace peering::bgp;

TEST(ObsConcurrency, CountersAreRaceFreeAcrossThreads) {
  obs::Registry registry(true);
  obs::Counter* counter = registry.counter("test_total");
  obs::Gauge* gauge = registry.gauge("test_level");
  obs::Histogram* histogram = registry.histogram("test_dist");

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->inc();
        gauge->add(2);
        histogram->record(static_cast<std::uint64_t>(i % 7));
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(counter->value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(gauge->value(), static_cast<std::int64_t>(kThreads) * kPerThread * 2);
  EXPECT_EQ(histogram->count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsConcurrency, NopInstrumentsAreSafeFromThreads) {
  // The toggle-off path: shared no-op instruments mutated concurrently must
  // stay no-ops without racing.
  obs::Counter* counter = obs::Registry::nop_counter();
  obs::Gauge* gauge = obs::Registry::nop_gauge();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        counter->inc();
        gauge->set(i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter->value(), 0u);
  EXPECT_FALSE(counter->live());
}

PathAttributes attrs_with_path(Asn asn) {
  PathAttributes attrs;
  attrs.origin = Origin::kIgp;
  attrs.as_path = AsPath({asn});
  attrs.next_hop = Ipv4Address(10, 0, 0, 1);
  return attrs;
}

TEST(AttrPoolConcurrency, ConcurrentInternDeduplicates) {
  AttrPool pool;
  pool.set_concurrent(true);

  constexpr int kThreads = 4;
  constexpr int kDistinct = 64;
  std::vector<std::vector<AttrsPtr>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &results, t] {
      for (int round = 0; round < 200; ++round) {
        for (int i = 0; i < kDistinct; ++i) {
          AttrsPtr p =
              pool.intern(attrs_with_path(static_cast<Asn>(65000 + i)));
          if (round == 0 && results[t].size() < kDistinct)
            results[t].push_back(p);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(pool.size(), static_cast<std::size_t>(kDistinct));
  // Identical content interned from any thread yields the same pointer.
  for (int t = 1; t < kThreads; ++t)
    for (int i = 0; i < kDistinct; ++i)
      EXPECT_EQ(results[0][static_cast<std::size_t>(i)].get(),
                results[t][static_cast<std::size_t>(i)].get());
}

TEST(AttrPoolConcurrency, ConcurrentEncodedReportsHitsViaOutParam) {
  AttrPool pool;
  pool.set_concurrent(true);
  AttrsPtr shared = pool.intern(attrs_with_path(65001));
  AttrCodecOptions options;

  // Prime the cache serially so every concurrent call is a hit.
  bool first_hit = true;
  pool.encoded(shared, options, &first_hit);
  EXPECT_FALSE(first_hit);

  std::atomic<int> hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) {
        bool hit = false;
        const Bytes& wire = pool.encoded(shared, options, &hit);
        if (hit) hits.fetch_add(1, std::memory_order_relaxed);
        ASSERT_FALSE(wire.empty());
      }
    });
  }
  for (auto& th : threads) th.join();
  // Per-call attribution must be exact even though the shared stats
  // counters were being advanced by all threads at once.
  EXPECT_EQ(hits.load(), 4 * 5000);
}

TEST(AttrPoolConcurrency, AdoptFromWorkersReturnsPoolPointer) {
  AttrPool pool;
  pool.set_concurrent(true);
  AttrsPtr canonical = pool.intern(attrs_with_path(65002));
  exec::Scheduler sched(3);
  std::vector<AttrsPtr> adopted(64);
  sched.parallel_for(adopted.size(), [&](std::size_t i) {
    // Foreign pointer with identical content: adopt must converge on the
    // pooled instance.
    adopted[i] = pool.adopt(make_attrs(attrs_with_path(65002)));
  });
  for (const AttrsPtr& p : adopted) EXPECT_EQ(p.get(), canonical.get());
  EXPECT_EQ(pool.size(), 1u);
}

// One serial writer grows leaf slot arrays (inserting the same prefixes
// into views 0..N-1 in ascending order, so every power-of-two view id
// triggers a CoW growth) while reader threads hammer LPM lookups across
// all views. The payload pool is fully populated before the readers start
// (every later insert is an intern hit), so the only writer/reader overlap
// is the slot path itself — exactly the acquire/release publication under
// test. TSan verifies the happens-before edges; the assertions verify no
// reader ever materializes a torn route.
TEST(FibSetConcurrency, LookupsRaceSlotGrowthSafely) {
  constexpr std::uint16_t kViews = 64;
  constexpr int kPrefixes = 128;
  ip::FibSet fib;
  std::vector<ip::FibSet::ViewId> views;
  for (std::uint16_t v = 0; v < kViews; ++v) views.push_back(fib.create_view());

  auto prefix_at = [](int i) {
    return Ipv4Prefix(Ipv4Address(10, 20, static_cast<std::uint8_t>(i), 0), 24);
  };
  ip::Route route;
  route.next_hop = Ipv4Address(192, 0, 2, 1);
  route.interface = 3;
  // Populate view 0 serially: trie structure + interned payload exist
  // before any reader runs, so only slot arrays mutate underneath them.
  for (int i = 0; i < kPrefixes; ++i) {
    route.prefix = prefix_at(i);
    fib.insert(views[0], route);
  }

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> hits{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t local = 0;
      // do/while: at least one full sweep even if a single-core scheduler
      // runs the whole writer before this thread first executes.
      do {
        for (int i = 0; i < kPrefixes; ++i) {
          auto got = fib.lookup(views[(i + t) % kViews],
                                Ipv4Address(10, 20, static_cast<std::uint8_t>(i), 9));
          if (got) {
            // A hit must always be the one route ever installed — a torn
            // read would surface as a garbage payload here.
            EXPECT_EQ(got->next_hop, route.next_hop);
            ++local;
          }
        }
      } while (!done.load(std::memory_order_acquire));
      hits.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (std::uint16_t v = 1; v < kViews; ++v) {
    for (int i = 0; i < kPrefixes; ++i) {
      route.prefix = prefix_at(i);
      fib.insert(views[v], route);  // intern hit; grows slots at v=2,4,8,...
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_GT(hits.load(), 0u);  // readers observed installed routes mid-growth

  // After the writer quiesces, every view answers every prefix.
  for (std::uint16_t v = 0; v < kViews; ++v)
    EXPECT_EQ(fib.size(views[v]), static_cast<std::size_t>(kPrefixes));
  fib.collect_retired();
  EXPECT_EQ(fib.route_count(), static_cast<std::size_t>(kViews) * kPrefixes);
}

// Readers race the LPM index's growth: the writer installs prefixes in
// /16s nothing covered before (each first insert allocates and publishes a
// chunk, and the chunk and leaf tables grow under the readers), then /8s
// that cover them (rewriting direct entries and every chunk entry beneath).
// Everything lands in one view, so no reader ever needs the trie-walk
// fallback: lookups touch only index entries, the tables, leaves and slots.
// As in the slot-growth test, every payload is interned before the readers
// start. Every hit must name a route of the plan with the next hop of its
// length, and the prefix must contain the probe.
TEST(FibSetConcurrency, LookupsRaceIndexGrowthSafely) {
  // 64 /16s x 256 prefixes: more leaves than the leaf table's first 16
  // segments hold, and a /24 chunk under every /28.
  constexpr int kSixteens = 64;
  constexpr int kPerSixteen = 256;
  ip::FibSet fib;
  const ip::FibSet::ViewId view = fib.create_view();
  // Next hop 10.0.0.<length>: a hit is checkable without writer state.
  auto route_for = [](const Ipv4Prefix& p) {
    return ip::Route{p,
                     Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(p.length())),
                     0, 0};
  };
  // Unrelated prefixes of the plan's lengths allocate the index and
  // intern every payload before the readers start.
  for (const char* warm : {"192.0.0.0/8", "192.0.2.0/24", "192.0.2.16/28"})
    fib.insert(view, route_for(*Ipv4Prefix::parse(warm)));

  std::vector<Ipv4Prefix> plan;
  for (int s = 0; s < kSixteens; ++s) {
    const std::uint32_t base = (static_cast<std::uint32_t>(20 + s / 16) << 24) |
                               (static_cast<std::uint32_t>(s % 16 * 16) << 16);
    for (int j = 0; j < kPerSixteen; ++j) {
      plan.emplace_back(Ipv4Address(base | (static_cast<std::uint32_t>(j) << 8)),
                        j % 2 == 0 ? 24 : 28);
    }
  }
  for (int s = 0; s < kSixteens / 16; ++s)
    plan.emplace_back(Ipv4Address(static_cast<std::uint32_t>(20 + s) << 24), 8);
  std::vector<Ipv4Prefix> sorted_plan = plan;
  std::sort(sorted_plan.begin(), sorted_plan.end());

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> hits{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t local = 0;
      std::uint32_t x = 0x9e3779b9u * static_cast<std::uint32_t>(t + 1);
      do {
        for (const auto& p : plan) {
          x = x * 1664525u + 1013904223u;
          const Ipv4Address probe(p.address().value() | (x & ~p.mask()));
          auto got = fib.lookup(view, probe);
          if (!got) continue;
          EXPECT_TRUE(got->prefix.contains(probe)) << probe.str();
          EXPECT_TRUE(std::binary_search(sorted_plan.begin(),
                                         sorted_plan.end(), got->prefix))
              << got->prefix.str();
          EXPECT_EQ(got->next_hop, route_for(got->prefix).next_hop);
          ++local;
        }
      } while (!done.load(std::memory_order_acquire));
      hits.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (const auto& p : plan) fib.insert(view, route_for(p));
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_GT(hits.load(), 0u);

  // Quiesced: every planned route is installed and answers for its own
  // first address unless a longer planned prefix does; at least the plan's
  // /16 chunks are accounted.
  for (const auto& p : plan) {
    EXPECT_TRUE(fib.exact(view, p).has_value()) << p.str();
    EXPECT_GE(fib.lookup(view, p.address())->prefix.length(), p.length());
  }
  EXPECT_GE(fib.index_bytes(), static_cast<std::size_t>(kSixteens) * 1024);
  fib.collect_retired();
}

/// Builds a small fan-in topology (3 feeder peers into one speaker under
/// test, one downstream peer), establishes all sessions, then injects
/// `updates_per_peer` UPDATEs per feeder as one batch and drains.
struct PipelineNet {
  sim::EventLoop loop;
  BgpSpeaker speaker;
  std::vector<std::unique_ptr<BgpSpeaker>> feeders;
  std::vector<PeerId> feeder_peers;  // on `speaker`'s side
  BgpSpeaker sink;
  PeerId sink_peer = 0;

  explicit PipelineNet(PipelineConfig pipeline)
      : speaker(&loop, "dut", 47065, Ipv4Address(1, 1, 1, 1), pipeline),
        sink(&loop, "sink", 65099, Ipv4Address(9, 9, 9, 9)) {
    for (int i = 0; i < 3; ++i) {
      Asn asn = static_cast<Asn>(65001 + i);
      std::string feeder_name = "feeder";
      feeder_name += std::to_string(i);
      auto feeder = std::make_unique<BgpSpeaker>(
          &loop, feeder_name, asn,
          Ipv4Address(2, 2, 2, static_cast<std::uint8_t>(1 + i)));
      PeerId dut_side = speaker.add_peer(
          {.name = feeder_name, .peer_asn = asn,
           .local_address = Ipv4Address(10, 0, static_cast<std::uint8_t>(i), 1),
           .peer_address = Ipv4Address(10, 0, static_cast<std::uint8_t>(i), 2)});
      PeerId feeder_side = feeder->add_peer(
          {.name = "dut", .peer_asn = 47065,
           .local_address = Ipv4Address(10, 0, static_cast<std::uint8_t>(i), 2),
           .peer_address = Ipv4Address(10, 0, static_cast<std::uint8_t>(i), 1)});
      auto pair = sim::StreamChannel::make(&loop, Duration::millis(1));
      speaker.connect_peer(dut_side, pair.a);
      feeder->connect_peer(feeder_side, pair.b);
      feeder_peers.push_back(dut_side);
      feeders.push_back(std::move(feeder));
    }
    PeerId dut_sink = speaker.add_peer(
        {.name = "sink", .peer_asn = 65099,
         .local_address = Ipv4Address(10, 9, 0, 1),
         .peer_address = Ipv4Address(10, 9, 0, 2)});
    sink_peer = sink.add_peer({.name = "dut", .peer_asn = 47065,
                               .local_address = Ipv4Address(10, 9, 0, 2),
                               .peer_address = Ipv4Address(10, 9, 0, 1)});
    auto pair = sim::StreamChannel::make(&loop, Duration::millis(1));
    speaker.connect_peer(dut_sink, pair.a);
    sink.connect_peer(sink_peer, pair.b);
    loop.run_for(Duration::seconds(5));
  }

  void inject(int updates_per_peer) {
    for (std::size_t f = 0; f < feeder_peers.size(); ++f) {
      for (int i = 0; i < updates_per_peer; ++i) {
        UpdateMessage update;
        PathAttributes attrs;
        attrs.origin = Origin::kIgp;
        attrs.as_path = AsPath(
            {static_cast<Asn>(65001 + f), static_cast<Asn>(64000 + i % 17)});
        attrs.next_hop = Ipv4Address(10, 0, static_cast<std::uint8_t>(f), 2);
        update.attributes = attrs;
        update.nlri.push_back(
            {0, Ipv4Prefix(Ipv4Address(100, static_cast<std::uint8_t>(i >> 8),
                                       static_cast<std::uint8_t>(i), 0),
                           24)});
        speaker.inject_update(feeder_peers[f], update);
      }
    }
    speaker.drain_pipeline();
    loop.run_for(Duration::seconds(5));
  }

  std::string fingerprint() const {
    std::ostringstream out;
    speaker.loc_rib().visit_all([&](const RibRoute& route) {
      out << route.prefix.str() << '|' << route.peer << '|' << route.path_id
          << '|' << route.attrs->as_path.flatten().size() << '|'
          << route.attrs->next_hop.str() << '\n';
    });
    out << "best:\n";
    speaker.loc_rib().visit_best([&](const RibRoute& route) {
      out << route.prefix.str() << '|' << route.peer << '\n';
    });
    out << "sink:\n";
    sink.loc_rib().visit_all([&](const RibRoute& route) {
      out << route.prefix.str() << '|'
          << route.attrs->as_path.flatten().front() << '\n';
    });
    return out.str();
  }
};

TEST(PipelineConcurrency, ParallelRunMatchesDeterministicReference) {
  // The load-bearing equivalence: a 4-partition run with real worker
  // threads converges to exactly the state the serial deterministic run
  // produces (and under tsan, does so without data races).
  PipelineNet serial(PipelineConfig{.partitions = 1, .workers = 0});
  serial.inject(400);
  PipelineNet parallel(PipelineConfig{.partitions = 4, .workers = 3});
  parallel.inject(400);
  EXPECT_EQ(parallel.speaker.pipeline().partitions, 4u);
  EXPECT_FALSE(parallel.speaker.pipeline().deterministic());
  EXPECT_EQ(serial.fingerprint(), parallel.fingerprint());
}

TEST(PipelineConcurrency, ParallelWithdrawalsMatchDeterministicReference) {
  PipelineNet serial(PipelineConfig{.partitions = 1, .workers = 0});
  PipelineNet parallel(PipelineConfig{.partitions = 4, .workers = 3});
  for (PipelineNet* net : {&serial, &parallel}) {
    net->inject(200);
    // Withdraw every third prefix from feeder 0.
    for (int i = 0; i < 200; i += 3) {
      UpdateMessage update;
      update.withdrawn.push_back(
          {0, Ipv4Prefix(Ipv4Address(100, static_cast<std::uint8_t>(i >> 8),
                                     static_cast<std::uint8_t>(i), 0),
                         24)});
      net->speaker.inject_update(net->feeder_peers[0], update);
    }
    net->speaker.drain_pipeline();
    net->loop.run_for(Duration::seconds(5));
  }
  EXPECT_EQ(serial.fingerprint(), parallel.fingerprint());
}

TEST(PipelineConcurrency, SchedulerSharedCounterVisibleAfterBarrier) {
  // parallel_for's return is the stage barrier: non-atomic writes to
  // disjoint slots plus atomic totals must both be visible.
  exec::Scheduler sched(4);
  std::vector<std::uint64_t> slots(1024, 0);
  std::atomic<std::uint64_t> total{0};
  sched.parallel_for(slots.size(), [&](std::size_t i) {
    slots[i] = i * i;
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) EXPECT_EQ(slots[i], i * i);
}

}  // namespace
}  // namespace peering
