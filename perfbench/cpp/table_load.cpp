// table_load: the initial table sync after a session comes up. One eBGP
// neighbor streams a full table (generate_full_table) in bursts of 32
// UPDATEs into a VRouter with control and data enforcers and 4 experiment
// ADD-PATH sessions; closed loop, one client: the next burst is sent when
// the router has finished the previous one. Speaker shape {4 partitions,
// 3 workers}: the only workload that runs worker threads.
//
// One round = a fresh router + the whole table. Rounds repeat until the
// measured time reaches --seconds; each round's set-up is one setup_s
// sample.
#include "bench/bench_util.h"
#include "faults/invariants.h"
#include "inet/route_feed.h"
#include "ip/fib_set.h"
#include "ip/routing_table.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// UPDATEs per burst. A load has about 60 Adj-RIB-Out rehash spikes whose
/// durations form a geometric ladder (one per ~8% of table growth); at 64
/// UPDATEs per burst they are 1.3% of the bursts, p99 lands on a rung of
/// that ladder, and one host hiccup above it moves p99 a whole rung
/// (10-30%). At 32 they are 0.7%, and p99 sits in the dense tail below.
constexpr std::size_t kBurst = 32;
/// Bursts per rate sample and per quantile window: a table load is about
/// 18 chunks and 9 windows. Burst times grow with the table and the early
/// windows hold most rehash spikes, so the median window is a mid-table
/// one, and a host hiccup moves only the windows it lands in.
constexpr std::size_t kChunk = 512;
constexpr std::size_t kWindow = 1024;
constexpr std::size_t kExperiments = 4;
constexpr bgp::Asn kFeedAsn = 65001;
const Ipv4Address kFeedNextHop(10, 0, 0, 1);
struct Inputs {
  std::vector<inet::FeedRoute> table;
  std::vector<Bytes> wires;   // one UPDATE per route
  std::vector<Bytes> bursts;  // kBurst UPDATEs per stream segment
};

Inputs make_inputs(const Args& args) {
  Inputs in;
  inet::FullTableConfig cfg;
  cfg.route_count = scaled(args, 300'000, 2'000);
  cfg.neighbor_asn = kFeedAsn;
  cfg.next_hop = kFeedNextHop;
  cfg.seed = args.seed;
  in.table = inet::generate_full_table(cfg);
  in.wires = benchutil::encode_feed(in.table, bgp::UpdateCodecOptions{});
  Fingerprint f;
  for (const auto& wire : in.wires) f.mix_bytes(wire);
  for (std::size_t i = 0; i < in.wires.size(); i += kBurst)
    in.bursts.push_back(
        concat(in.wires, i, std::min(in.wires.size(), i + kBurst)));
  report_inputs(f);
  return in;
}

struct World {
  sim::EventLoop loop;  // first: destroyed last, after everything it drives
  enforce::ControlPlaneEnforcer control;
  enforce::DataPlaneEnforcer data;
  std::unique_ptr<vbgp::VRouter> router;
  bgp::PeerId neighbor = 0;
  std::vector<bgp::PeerId> experiments;
  std::unique_ptr<DriverPeer> feed;
  std::vector<std::unique_ptr<DriverPeer>> sinks;

  std::uint64_t exported() const {
    std::uint64_t n = 0;
    for (bgp::PeerId p : experiments)
      n += router->speaker().peer_stats(p).updates_sent;
    return n;
  }
};

std::unique_ptr<World> build_world(Outcome& result) {
  auto w = std::make_unique<World>();
  std::vector<enforce::ExperimentGrant> grants(kExperiments);
  for (std::size_t i = 0; i < kExperiments; ++i) {
    const auto n = static_cast<std::uint8_t>(i);
    grants[i].experiment_id = "x" + std::to_string(i);
    grants[i].allocated_prefixes = {
        Ipv4Prefix(Ipv4Address(184, 164, 224 + n, 0), 24)};
    grants[i].allowed_origin_asns = {61574u + n};
  }
  w->router = make_router(&w->loop, w->control, w->data, grants,
                          {.partitions = 4, .workers = 3}, result);

  w->neighbor = w->router->add_neighbor(
      {.name = "feed", .asn = kFeedAsn,
       .local_address = Ipv4Address(10, 0, 0, 2),
       .remote_address = kFeedNextHop, .interface = -1, .global_id = 1});
  for (std::size_t i = 0; i < kExperiments; ++i) {
    const auto n = static_cast<std::uint8_t>(i);
    w->experiments.push_back(w->router->add_experiment(
        {.experiment_id = grants[i].experiment_id, .asn = 61574u + n,
         .local_address = Ipv4Address(100, 64, n, 1),
         .remote_address = Ipv4Address(100, 64, n, 2),
         .interface = 10 + static_cast<int>(i)}));
  }
  bgp::BgpSpeaker& speaker = w->router->speaker();
  w->feed = attach_driver(&w->loop, speaker, w->neighbor, kFeedAsn,
                          Ipv4Address(1, 1, 1, 1), false, Duration::micros(10));
  for (std::size_t i = 0; i < kExperiments; ++i)
    w->sinks.push_back(attach_driver(
        &w->loop, speaker, w->experiments[i], 61574u + static_cast<bgp::Asn>(i),
        Ipv4Address(9, 9, 9, static_cast<std::uint8_t>(i + 1)), true,
        Duration::micros(10)));
  w->loop.run_for(Duration::seconds(1));
  check_sessions(speaker, "table_load set-up", result);
  return w;
}

/// Streams the whole table, one timed burst at a time.
void load(World& w, const Inputs& in, Phase& phase, SpanLog* spans,
          std::int32_t parent) {
  Meter meter(phase, kChunk, kWindow, [&w] { return w.exported(); });
  for (std::size_t i = 0; i < in.bursts.size(); ++i) {
    const double t0 = wall_now();
    w.feed->send(in.bursts[i]);
    phase.events += w.loop.run_for(Duration::millis(1));
    const double t1 = wall_now();
    meter.burst(t0, t1, std::min(kBurst, in.table.size() - i * kBurst));
    if (spans != nullptr) spans->record("burst", parent, i, t0, t1);
  }
  meter.finish();
}

/// Oracle, outside the timed window: Loc-RIB content, the neighbor's FIB
/// against an ip::RoutingTable reference (InvariantChecker LPM probes),
/// and every experiment's Adj-RIB-Out.
void verify(World& w, const Inputs& in, std::uint64_t seed, Outcome& result) {
  w.loop.run_for(Duration::seconds(1));
  bgp::BgpSpeaker& speaker = w.router->speaker();
  check_sessions(speaker, "table_load", result);

  // eBGP loop detection drops the (rare) generated paths that carry the
  // router's own ASN; everything else must be installed verbatim.
  const bgp::LocRib& rib = speaker.loc_rib();
  const Ipv4Address stored = vbgp::global_pool_ip(1);
  const bgp::Asn own = w.router->config().asn;
  std::size_t expected = 0;
  ip::RoutingTable reference;
  for (const auto& route : in.table) {
    const auto* cands = rib.candidates_ref(route.prefix);
    if (route.attrs.as_path.contains(own)) {
      if (cands != nullptr && !cands->empty())
        result.fail(1, "looped path installed for " + route.prefix.str());
      continue;
    }
    ++expected;
    reference.insert(ip::Route{route.prefix, kFeedNextHop, -1, 0});
    bgp::PathAttributes want = route.attrs;
    want.next_hop = stored;
    if (cands == nullptr || cands->size() != 1 ||
        (*cands)[0].peer != w.neighbor || !(*(*cands)[0].attrs == want))
      result.fail(1, "Loc-RIB route differs for " + route.prefix.str());
  }
  if (rib.prefix_count() != expected)
    result.fail(1, "Loc-RIB holds " + std::to_string(rib.prefix_count()) +
                       " prefixes, expected " + std::to_string(expected));

  vbgp::VirtualNeighbor* nb = w.router->registry().by_peer(w.neighbor);
  ip::FibSet ref_set;
  ip::FibView ref_view = ref_set.make_view();
  reference.visit([&ref_view](const ip::Route& r) { ref_view.insert(r); });
  faults::InvariantReport report;
  faults::InvariantChecker::diff_lpm(nb->fib, ref_view, seed, 20'000,
                                     "neighbor FIB", report);
  if (!report.ok())
    result.fail(report.violations.size(), report.violations.front());

  for (bgp::PeerId exp : w.experiments) {
    const auto out = speaker.adj_rib_out(exp);
    std::size_t wrong_nh = 0;
    for (const auto& e : out) wrong_nh += e.next_hop != nb->virtual_ip;
    if (out.size() != expected || wrong_nh != 0)
      result.fail(1 + wrong_nh, "experiment " + std::to_string(exp) +
                                    " Adj-RIB-Out holds " +
                                    std::to_string(out.size()) + " routes, " +
                                    std::to_string(wrong_nh) +
                                    " with a wrong next-hop");
  }
}

Outcome run_untraced(const Args& args, const Inputs& in) {
  Outcome result;
  Samples setups;
  for (const double until = wall_now() + setup_sample_seconds(args);
       wall_now() < until;) {
    const double t0 = wall_now();
    auto w = build_world(result);
    setups.add(wall_now() - t0);
  }
  // Whole rounds only: stop when another round would overrun --seconds
  // by more than half a round.
  Phase phase;
  double round = 0;
  do {
    const double t0 = wall_now();
    auto w = build_world(result);
    setups.add(wall_now() - t0);
    const double before = phase.wall;
    load(*w, in, phase, nullptr, SpanLog::kNoParent);
    round = phase.wall - before;
    mark_peak_rss(phase);  // one table load's worth, before the oracle's
    verify(*w, in, args.seed, result);
    result.attempted += in.table.size();
  } while (phase.wall + round / 2 < args.seconds && result.failed == 0);
  emit_end_to_end(phase, setups, result);
  return result;
}

Outcome run_traced(const Args& args, const Inputs& in) {
  Outcome result;
  // Untraced baseline over the same fixed work, for trace.overhead_share.
  Phase base;
  {
    auto w = build_world(result);
    load(*w, in, base, nullptr, SpanLog::kNoParent);
  }

  SpanLog spans;
  LayerReport layers;
  Phase phase;
  AllocCount allocs;
  std::size_t views = 1;
  const std::int32_t root = spans.begin("traced_run", SpanLog::kNoParent, 0);
  {
    obs::Registry registry(true);
    obs::Scope scope(&registry);
    auto w = build_world(result);
    allocs = trace_measured(
        registry, *w->router, w->control, w->data,
        [&w] {
          std::uint64_t bytes = 0;
          for (const auto& s : w->sinks) bytes += s->bytes_received();
          return bytes;
        },
        [&](std::int32_t measured) { load(*w, in, phase, &spans, measured); },
        spans, root, layers);
    views = w->router->registry().fib_set().view_count();
    verify(*w, in, args.seed, result);
  }
  result.attempted = in.table.size();

  // Replays of this workload's inputs, one layer at a time.
  const auto wires = sample(in.wires, 50'000);
  const auto routes = sample(in.table, 50'000);
  std::vector<bgp::RibRoute> rib_routes;
  std::vector<ExportShape> exports;
  std::vector<ip::Route> fib_routes;
  for (const auto& r : routes) {
    bgp::PathAttributes stored = r.attrs;
    stored.next_hop = vbgp::global_pool_ip(1);
    rib_routes.push_back({r.prefix, 0, 1, bgp::make_attrs(stored)});
    exports.push_back({rib_routes.back().attrs, r.prefix,
                       Ipv4Address(127, 65, 0, 1), true});
    fib_routes.push_back({r.prefix, kFeedNextHop, -1, 0});
  }
  std::vector<std::size_t> sizes;
  for (const auto& b : sample(in.bursts, 5'000)) sizes.push_back(b.size());

  const ReplayCost decode =
      replay_decode(wires, bgp::UpdateCodecOptions{}, spans, root);
  double candidates = 0;
  const ReplayCost decision =
      replay_decision(rib_routes, &candidates, spans, root);
  const ReplayCost encode = replay_encode(exports, spans, root);
  const ReplayCost fib = replay_fib(fib_routes, views, spans, root);
  const ReplayCost stream = replay_stream(sizes, spans, root);

  layers.set("bgp.decode.ns_per_msg", decode.ns_per_op);
  layers.set("bgp.decode.allocs_per_msg", decode.allocs_per_op);
  layers.set("bgp.decision.ns_per_route", decision.ns_per_op);
  layers.set("bgp.decision.candidates_mean", candidates);
  layers.set("bgp.encode.ns_per_export", encode.ns_per_op);
  layers.set("bgp.encode.allocs_per_export", encode.allocs_per_op);
  layers.set("ip.fib.ns_per_install", fib.ns_per_op);
  layers.set("ip.fib.allocs_per_install", fib.allocs_per_op);
  layers.set("sim.stream.ns_per_send", stream.ns_per_op);

  const double ops = static_cast<double>(phase.ops);
  const double sends = static_cast<double>(in.bursts.size() * (1 + kExperiments));
  fill_phase_layers(phase, static_cast<double>(base.ops) / base.wall, allocs,
                    {{decode, ops},
                     {decision, ops},
                     {encode, layers.get("bgp.updates_out")},
                     {fib, ops},
                     {stream, sends}},
                    layers);
  finish_trace(args, spans, root, layers, result);
  return result;
}

}  // namespace

Outcome run_table_load(const Args& args) {
  const Inputs in = make_inputs(args);
  return args.trace ? run_traced(args, in) : run_untraced(args, in);
}

}  // namespace perfbench
