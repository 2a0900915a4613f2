// churn_fanout: a PoP in steady state, where every Internet change reaches
// every experiment. Set-up loads a full table from one local eBGP neighbor
// plus the same prefixes with other paths over a backbone iBGP ADD-PATH
// session carrying global-pool next-hops (the multi-router path), into a
// VRouter serving 64 experiment sessions with a live monitor session and
// per-session MRAI as in the soak. The measured phase replays a
// generate_churn_schedule stream (beacon waves, flap storms, background
// noise) over the neighbor's wire, each event instant at its sim time:
// open loop in sim time. The schedule is closed (it ends with the table
// restored), so it is replayed in back-to-back cycles until --seconds is
// used; every run then sees the same mix of waves, storms and noise.
// Speaker shape serial {1 partition, 0 workers}.
#include "bench/bench_util.h"
#include "faults/invariants.h"
#include "inet/route_feed.h"
#include "mon/monitor.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kExperiments = 64;
constexpr std::size_t kRemoteNeighbors = 8;
constexpr bgp::Asn kFeedAsn = 65001;
const Ipv4Address kFeedNextHop(10, 0, 0, 1);
const Duration kMrai = Duration::millis(200);
/// The heavy set-up (64 sessions x the whole table) is timed this many
/// times; setup_s is the median.
constexpr std::size_t kSetups = 3;
/// Instants the traced run replays (fixed, so its counts repeat).
constexpr std::size_t kTracedInstants = 40'000;

struct Inputs {
  std::vector<inet::FeedRoute> table;     // the local neighbor's routes
  std::vector<inet::FeedRoute> backbone;  // same prefixes, remote paths
  /// Both tables as the set-up streams them (see segments()).
  std::vector<Bytes> table_segments, backbone_segments;
  inet::ChurnSchedule schedule;
  /// Event index ranges sharing one sim instant.
  std::vector<std::pair<std::size_t, std::size_t>> instants;
  /// The neighbor's wire segment per instant.
  std::vector<Bytes> wires;
  /// Sim time from one cycle's start to the next.
  Duration cycle;
};

/// One UPDATE per route, concatenated into stream segments of 256.
std::vector<Bytes> segments(const std::vector<inet::FeedRoute>& routes,
                            bool add_path) {
  bgp::UpdateCodecOptions options;
  options.add_path = add_path;
  const std::vector<Bytes> wires = benchutil::encode_feed(routes, options);
  std::vector<Bytes> out;
  for (std::size_t i = 0; i < wires.size(); i += 256)
    out.push_back(concat(wires, i, std::min(wires.size(), i + 256)));
  return out;
}

Inputs make_inputs(const Args& args) {
  Inputs in;
  inet::FullTableConfig cfg;
  cfg.route_count = scaled(args, 30'000, 1'000);
  cfg.neighbor_asn = kFeedAsn;
  cfg.next_hop = kFeedNextHop;
  cfg.seed = args.seed;
  in.table = inet::generate_full_table(cfg);

  Fingerprint f;
  in.backbone.reserve(in.table.size());
  for (std::size_t i = 0; i < in.table.size(); ++i) {
    inet::FeedRoute r = in.table[i];
    std::vector<bgp::Asn> path = r.attrs.as_path.flatten();
    path[0] = 64600 + static_cast<bgp::Asn>(i % kRemoteNeighbors);
    r.attrs.as_path = bgp::AsPath(std::move(path));
    r.attrs.next_hop =
        vbgp::global_pool_ip(2 + static_cast<std::uint32_t>(i % kRemoteNeighbors));
    r.attrs.local_pref = 100;
    in.backbone.push_back(std::move(r));
    f.mix_u64(in.table[i].prefix.address().value());
    f.mix_u64(in.table[i].attrs.as_path.origin_asn());
  }
  in.table_segments = segments(in.table, false);
  in.backbone_segments = segments(in.backbone, true);

  inet::ChurnScheduleConfig churn;
  churn.duration = Duration::seconds(150);
  churn.beacon_interval = Duration::seconds(30);
  churn.beacon_set = 64;
  churn.storm_count = 4;
  churn.storm_set = 128;
  churn.background_rate_hz = 50.0;
  churn.seed = args.seed * 7919 + 1;
  in.schedule = inet::generate_churn_schedule(in.table.size(), churn);
  const auto& ev = in.schedule.events;
  for (std::size_t i = 0; i < ev.size();) {
    std::size_t j = i;
    while (j < ev.size() && ev[j].at == ev[i].at) ++j;
    in.instants.emplace_back(i, j);
    i = j;
  }
  for (const auto& e : ev) {
    f.mix_u64(static_cast<std::uint64_t>(e.at.ns()));
    f.mix_u64((std::uint64_t{e.route} << 16) |
              (static_cast<std::uint64_t>(e.kind) << 8) | e.variant);
  }
  std::vector<inet::FeedRoute> routes;
  in.cycle = in.schedule.end + Duration::seconds(1);
  for (std::size_t k = 0; k < in.instants.size(); ++k) {
    routes.clear();
    for (std::size_t i = in.instants[k].first; i < in.instants[k].second; ++i)
      routes.push_back(inet::churn_event_route(in.table, ev[i]));
    in.wires.push_back(
        concat(benchutil::encode_feed(routes, bgp::UpdateCodecOptions{}), 0,
               routes.size()));
  }
  report_inputs(f);
  return in;
}

mon::MonitorSession::Options monitor_options() {
  mon::MonitorSession::Options mo;
  mo.capacity = std::size_t{1} << 24;
  return mo;
}

struct World {
  sim::EventLoop loop;  // first: destroyed last
  enforce::ControlPlaneEnforcer control;
  enforce::DataPlaneEnforcer data;
  std::unique_ptr<vbgp::VRouter> router;
  std::unique_ptr<mon::MonitorSession> monitor;  // detaches before router dies
  bgp::PeerId neighbor = 0;
  bgp::PeerId backbone = 0;
  std::vector<bgp::PeerId> experiments;
  std::unique_ptr<DriverPeer> feed;
  std::unique_ptr<DriverPeer> bb;
  std::vector<std::unique_ptr<DriverPeer>> sinks;
  /// Records dropped by monitor sessions already drained.
  std::uint64_t monitor_dropped = 0;

  std::uint64_t exported() const {
    std::uint64_t n = 0;
    for (bgp::PeerId p : experiments)
      n += router->speaker().peer_stats(p).updates_sent;
    return n;
  }

  /// Hands the monitor's records over, as a collector taking the buffer
  /// would, by replacing the session with a fresh one; records then do
  /// not pile up over the cycles of a run.
  void drain_monitor() {
    monitor_dropped += monitor->dropped();
    monitor.reset();
    monitor = std::make_unique<mon::MonitorSession>(
        &loop, &router->speaker(), monitor_options());
  }
};

/// Streams pre-encoded segments over `driver`, letting the loop run
/// between segments as a paced wire transfer would.
void stream_table(World& w, DriverPeer& driver,
                  const std::vector<Bytes>& segments) {
  for (const Bytes& segment : segments) {
    driver.send(segment);
    w.loop.run_for(Duration::millis(5));
  }
}

/// The router with its neighbor and backbone sessions. With
/// `experiments`, also the 64 experiment sessions and the monitor; the
/// reference world for the oracle has neither.
std::unique_ptr<World> build_world(bool experiments, Outcome& result) {
  auto w = std::make_unique<World>();
  w->router = make_router(&w->loop, w->control, w->data, {}, {}, result);
  bgp::BgpSpeaker& speaker = w->router->speaker();
  if (experiments)
    w->monitor = std::make_unique<mon::MonitorSession>(&w->loop, &speaker,
                                                       monitor_options());

  w->neighbor = w->router->add_neighbor(
      {.name = "feed", .asn = kFeedAsn,
       .local_address = Ipv4Address(10, 0, 0, 2),
       .remote_address = kFeedNextHop, .interface = -1, .global_id = 1});
  w->backbone = w->router->add_backbone_peer(
      {.name = "bb", .local_address = Ipv4Address(10, 100, 0, 1),
       .remote_address = Ipv4Address(10, 100, 0, 2), .interface = -1});
  speaker.set_peer_mrai(w->backbone, kMrai);
  for (std::size_t i = 0; experiments && i < kExperiments; ++i) {
    const auto hi = static_cast<std::uint8_t>(i / 256);
    const auto lo = static_cast<std::uint8_t>(i % 256);
    bgp::PeerId p = w->router->add_experiment(
        {.experiment_id = "x" + std::to_string(i),
         .asn = 61574u + static_cast<bgp::Asn>(i),
         .local_address = Ipv4Address(100, 64 + hi, lo, 1),
         .remote_address = Ipv4Address(100, 64 + hi, lo, 2),
         .interface = 10 + static_cast<int>(i)});
    speaker.set_peer_mrai(p, kMrai);
    w->experiments.push_back(p);
  }

  w->feed = attach_driver(&w->loop, speaker, w->neighbor, kFeedAsn,
                          Ipv4Address(1, 1, 1, 1), false, Duration::micros(10));
  w->bb = attach_driver(&w->loop, speaker, w->backbone,
                        w->router->config().asn,
                        Ipv4Address(10, 255, 0, 2), true, Duration::millis(1));
  for (std::size_t i = 0; i < w->experiments.size(); ++i)
    w->sinks.push_back(attach_driver(
        &w->loop, speaker, w->experiments[i],
        61574u + static_cast<bgp::Asn>(i),
        Ipv4Address(9, 9, static_cast<std::uint8_t>(i / 256),
                    static_cast<std::uint8_t>(i % 256 + 1)),
        true, Duration::micros(10)));
  w->loop.run_for(Duration::seconds(1));
  check_sessions(speaker, "churn_fanout set-up", result);
  if (!w->bb->tx_options().add_path)
    result.fail(1, "ADD-PATH not negotiated on the backbone session");
  return w;
}

std::unique_ptr<World> setup(const Inputs& in, Outcome& result) {
  auto w = build_world(true, result);
  stream_table(*w, *w->feed, in.table_segments);
  stream_table(*w, *w->bb, in.backbone_segments);
  w->loop.run_for(Duration::seconds(2));  // MRAI flushes reach every session
  return w;
}

/// Replays `count` instants, cycle after cycle, one timed burst per
/// instant; stops early once `budget_s` of measured time is used. Between
/// cycles (untimed) the monitor is drained; the first cycle's end marks
/// the peak RSS. Returns the instants replayed.
std::size_t replay(World& w, const Inputs& in, std::size_t count,
                   double budget_s, Phase& phase, SpanLog* spans,
                   std::int32_t parent) {
  const auto& ev = in.schedule.events;
  const std::size_t n = in.instants.size();
  const SimTime start = w.loop.now();
  auto due = [&](std::size_t k) {
    return start + in.cycle * static_cast<std::int64_t>(k / n) +
           ev[in.instants[k % n].first].at;
  };
  if (count > 0) w.loop.run_until(due(0));
  // One chunk and one quantile window per schedule cycle: every chunk
  // then carries the same mix of waves, storms and noise.
  Meter meter(phase, n, n, [&w] { return w.exported(); });
  std::size_t k = 0;
  for (; k < count && phase.wall < budget_s; ++k) {
    const auto [b, e] = in.instants[k % n];
    const double t0 = wall_now();
    w.feed->send(in.wires[k % n]);
    phase.events += w.loop.run_until(due(k + 1));
    const double t1 = wall_now();
    meter.burst(t0, t1, e - b);
    if (spans != nullptr) spans->record("instant", parent, k, t0, t1);
    if ((k + 1) % n == 0) {
      mark_peak_rss(phase);
      w.drain_monitor();
    }
  }
  meter.finish();
  return k;
}

/// Oracle, outside the timed window: the post-churn Loc-RIB must equal a
/// freshly converged reference router fed the table as the replay left it
/// (whole cycles restore it; the last, partial cycle's events apply) via
/// diff_locrib, and the monitor must have kept every record.
void verify(World& w, const Inputs& in, std::size_t instants, Outcome& result) {
  w.loop.run_for(Duration::seconds(2));
  check_sessions(w.router->speaker(), "churn_fanout", result);

  std::vector<inet::FeedRoute> expected = in.table;
  const auto& ev = in.schedule.events;
  const std::size_t partial = instants % in.instants.size();
  const std::size_t events = partial == 0 ? 0 : in.instants[partial - 1].second;
  for (std::size_t i = 0; i < events; ++i)
    expected[ev[i].route] = inet::churn_event_route(in.table, ev[i]);
  std::vector<inet::FeedRoute> announced;
  for (const auto& r : expected)
    if (!r.withdraw) announced.push_back(r);

  Outcome scratch;
  auto ref = build_world(false, scratch);
  stream_table(*ref, *ref->feed, segments(announced, false));
  stream_table(*ref, *ref->bb, in.backbone_segments);
  ref->loop.run_for(Duration::seconds(2));
  if (!scratch.correct) result.fail(1, "reference world failed to converge");

  faults::InvariantReport report;
  faults::InvariantChecker::diff_locrib(w.router->speaker(),
                                        ref->router->speaker(), "post-churn",
                                        report);
  if (!report.ok())
    result.fail(report.violations.size(), report.violations.front());
  const std::uint64_t dropped = w.monitor_dropped + w.monitor->dropped();
  if (dropped != 0) result.fail(dropped, "monitor dropped records");
}

Outcome run_untraced(const Args& args, const Inputs& in) {
  Outcome result;
  Samples setups;
  for (std::size_t k = 1; k < setup_count(args, kSetups); ++k) {
    const double t0 = wall_now();
    auto w = setup(in, result);
    setups.add(wall_now() - t0);
  }
  const double t0 = wall_now();
  auto w = setup(in, result);
  setups.add(wall_now() - t0);

  Phase phase;
  const std::size_t done = replay(*w, in, SIZE_MAX, args.seconds, phase,
                                  nullptr, SpanLog::kNoParent);
  result.attempted = phase.ops;
  emit_end_to_end(phase, setups, result);
  verify(*w, in, done, result);
  return result;
}

Outcome run_traced(const Args& args, const Inputs& in) {
  Outcome result;
  const std::size_t instants = scaled(args, kTracedInstants, 200);
  Phase base;
  {
    auto w = setup(in, result);
    replay(*w, in, instants, 1e9, base, nullptr, SpanLog::kNoParent);
  }

  SpanLog spans;
  LayerReport layers;
  Phase phase;
  AllocCount allocs;
  std::vector<std::size_t> sizes;
  std::size_t done = 0;
  std::size_t views = 1;
  const std::int32_t root = spans.begin("traced_run", SpanLog::kNoParent, 0);
  {
    obs::Registry registry(true);
    obs::Scope scope(&registry);
    auto w = setup(in, result);
    allocs = trace_measured(
        registry, *w->router, w->control, w->data,
        [&w] {
          std::uint64_t bytes = 0;
          for (const auto& s : w->sinks) bytes += s->bytes_received();
          return bytes;
        },
        [&](std::int32_t measured) {
          done = replay(*w, in, instants, 1e9, phase, &spans, measured);
        },
        spans, root, layers);
    // Mean flush size per session, for the stream replay.
    const double flushes = layers.get("bgp.mrai.flushes") *
                           std::max(1.0, layers.get("bgp.mrai.batch_mean"));
    const std::size_t mean =
        flushes > 0 ? static_cast<std::size_t>(
                          layers.get("sim.stream.bytes_out") / flushes)
                    : 64;
    sizes.assign(20'000, std::max<std::size_t>(mean, 19));
    views = w->router->registry().fib_set().view_count();
    verify(*w, in, done, result);
  }
  result.attempted = phase.ops;

  // Replays of this workload's inputs: the churn UPDATEs as they arrive,
  // their routes through a Loc-RIB holding both paths per prefix, one
  // export per (route, experiment), and the FIB writes they cause.
  const auto& ev = in.schedule.events;
  const std::size_t replayed = std::min(done, in.instants.size());
  const std::size_t events =
      replayed == 0 ? 0 : in.instants[replayed - 1].second;
  std::vector<inet::FeedRoute> churned;
  for (std::size_t i = 0; i < events && churned.size() < 50'000; ++i)
    churned.push_back(inet::churn_event_route(in.table, ev[i]));
  const std::vector<Bytes> wires =
      benchutil::encode_feed(churned, bgp::UpdateCodecOptions{});
  std::vector<bgp::RibRoute> rib_routes;
  std::vector<ExportShape> exports;
  std::vector<ip::Route> fib_routes;
  for (std::size_t i = 0; i < in.table.size(); ++i) {
    bgp::PathAttributes bb = in.backbone[i].attrs;
    rib_routes.push_back({in.table[i].prefix, 1, 2, bgp::make_attrs(bb)});
  }
  for (inet::FeedRoute& r : churned) {
    if (r.withdraw) continue;
    r.attrs.next_hop = vbgp::global_pool_ip(1);
    rib_routes.push_back({r.prefix, 0, 1, bgp::make_attrs(r.attrs)});
    fib_routes.push_back({r.prefix, kFeedNextHop, -1, 0});
    if (exports.size() < 100'000)
      for (std::size_t x = 0; x < kExperiments; ++x)
        exports.push_back({rib_routes.back().attrs, r.prefix,
                           Ipv4Address(127, 65, 0, 1), true});
  }
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
  fill_phase_layers(phase, static_cast<double>(base.ops) / base.wall, allocs,
                    {{decode, ops},
                     {decision, ops},
                     {encode, layers.get("bgp.updates_out")},
                     {fib, ops},
                     {stream, layers.get("bgp.mrai.flushes") *
                                  layers.get("bgp.mrai.batch_mean")}},
                    layers);
  finish_trace(args, spans, root, layers, result);
  return result;
}

}  // namespace

Outcome run_churn_fanout(const Args& args) {
  const Inputs in = make_inputs(args);
  return args.trace ? run_traced(args, in) : run_untraced(args, in);
}

}  // namespace perfbench
