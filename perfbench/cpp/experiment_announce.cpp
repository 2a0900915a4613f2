// experiment_announce: the write direction. 32 experiments announce and
// withdraw their granted prefixes toward 32 neighbor sessions (byte-counting
// sinks) with a seeded mix of announce_to / no_announce_to communities,
// prepends, AS-path poisoning and user communities. A designed share of the
// announcements is rejected (foreign prefix, poisoning without the
// capability) or transformed (user communities stripped) by the control-
// plane enforcer; no FIB is installed. Closed loop with the 32 experiments
// as clients: one round = one UPDATE from every experiment, and the next
// round is sent when the router has finished the previous one. Speaker
// shape serial {1 partition, 0 workers}.
#include <optional>
#include <set>

#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kExperiments = 32;
constexpr std::size_t kNeighbors = 32;
constexpr std::size_t kPrefixesPerExperiment = 4;
/// Distinct rounds generated up front; longer runs cycle through them.
constexpr std::size_t kPoolRounds = 8192;
constexpr std::size_t kTracedRounds = 3000;
/// Rounds per rate sample and per quantile window: a run is about 25
/// chunks and 12 windows.
constexpr std::size_t kChunk = 512;
constexpr std::size_t kWindow = 1024;
constexpr bgp::Asn kExperimentAsn = 61574;

enum class Expect : std::uint8_t { kAccept, kTransform, kReject };

struct Announcement {
  std::uint16_t exp = 0;
  /// Index of the experiment's own prefix, or -1 for a foreign prefix.
  int own = -1;
  bool withdraw = false;
  Expect expect = Expect::kAccept;
  std::vector<bgp::Community> control;  // announce_to / no_announce_to
  Ipv4Prefix prefix;
  bgp::AttrsPtr attrs;  // null for withdrawals
};

struct Inputs {
  std::vector<enforce::ExperimentGrant> grants;
  std::vector<Announcement> pool;  // kExperiments per round, in round order
  std::vector<Bytes> wires;        // one UPDATE per pool entry
};

Ipv4Prefix prefix_of(std::size_t exp, std::size_t j) {
  return Ipv4Prefix(Ipv4Address(184, static_cast<std::uint8_t>(164 + exp / 16),
                                static_cast<std::uint8_t>((exp % 16) * 16 + j),
                                0),
                    24);
}

Ipv4Address tunnel_remote(std::size_t exp) {
  return Ipv4Address(100, 64, static_cast<std::uint8_t>(exp), 2);
}

bool has_poisoning(std::size_t exp) { return exp % 4 >= 2; }
bool has_communities(std::size_t exp) { return exp % 2 == 1; }

Inputs make_inputs(const Args& args) {
  Inputs in;
  for (std::size_t i = 0; i < kExperiments; ++i) {
    enforce::ExperimentGrant g;
    g.experiment_id = "x" + std::to_string(i);
    for (std::size_t j = 0; j < kPrefixesPerExperiment; ++j)
      g.allocated_prefixes.push_back(prefix_of(i, j));
    g.allowed_origin_asns = {kExperimentAsn + static_cast<bgp::Asn>(i)};
    if (has_poisoning(i)) {
      g.capabilities.insert(enforce::Capability::kAsPathPoisoning);
      g.max_poisoned_asns = 2;
    }
    if (has_communities(i)) {
      g.capabilities.insert(enforce::Capability::kCommunities);
      g.max_communities = 4;
    }
    // The per-prefix daily budget is not what this workload measures.
    g.max_updates_per_day = 1 << 30;
    in.grants.push_back(std::move(g));
  }

  Rng rng(args.seed * 0x9e3779b9ull + 11);
  bgp::UpdateCodecOptions options;
  options.add_path = true;
  Fingerprint f;
  const std::size_t rounds = scaled(args, kPoolRounds, 64);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < kExperiments; ++i) {
      Announcement a;
      a.exp = static_cast<std::uint16_t>(i);
      const bgp::Asn asn = kExperimentAsn + static_cast<bgp::Asn>(i);
      bgp::UpdateMessage u;
      if (rng.chance(0.15)) {
        a.withdraw = true;
        a.own = static_cast<int>(rng.below(kPrefixesPerExperiment));
        a.prefix = prefix_of(i, static_cast<std::size_t>(a.own));
        u.withdrawn.push_back({1, a.prefix});
      } else {
        const bool foreign = rng.chance(0.06);
        if (foreign) {
          const std::size_t other = (i + 1 + rng.below(kExperiments - 1)) %
                                    kExperiments;
          a.prefix = prefix_of(other, rng.below(kPrefixesPerExperiment));
        } else {
          a.own = static_cast<int>(rng.below(kPrefixesPerExperiment));
          a.prefix = prefix_of(i, static_cast<std::size_t>(a.own));
        }
        const bool poison = rng.chance(0.15);
        const std::size_t prepends = rng.below(3);
        const std::size_t user = rng.chance(0.25) ? 1 + rng.below(2) : 0;
        const std::uint64_t control = rng.below(10);
        const std::size_t targets = 1 + rng.below(3);
        for (std::size_t t = 0; control >= 4 && t < targets; ++t) {
          const auto nb = static_cast<std::uint16_t>(1 + rng.below(kNeighbors));
          a.control.push_back(control < 7 ? vbgp::announce_to(nb)
                                          : vbgp::no_announce_to(nb));
        }

        bgp::PathAttributes attrs;
        std::vector<bgp::Asn> path(prepends + 1, asn);
        if (poison) path.insert(path.begin() + 1, {3356u + static_cast<bgp::Asn>(rng.below(3)), asn});
        attrs.as_path = bgp::AsPath(std::move(path));
        attrs.next_hop = tunnel_remote(i);
        attrs.communities = a.control;
        for (std::size_t c = 0; c < user; ++c)
          attrs.communities.push_back(
              bgp::Community(65000, static_cast<std::uint16_t>(rng.below(100))));
        a.attrs = bgp::make_attrs(attrs);
        u.attributes = attrs;
        u.nlri.push_back({1, a.prefix});

        if (foreign || (poison && !has_poisoning(i)))
          a.expect = Expect::kReject;
        else if (user > 0 && !has_communities(i))
          a.expect = Expect::kTransform;
      }
      in.wires.push_back(bgp::encode_message(u, options));
      f.mix_bytes(in.wires.back());
      in.pool.push_back(std::move(a));
    }
  }
  report_inputs(f);
  return in;
}

struct World {
  sim::EventLoop loop;  // first: destroyed last
  enforce::ControlPlaneEnforcer control;
  enforce::DataPlaneEnforcer data;
  std::unique_ptr<vbgp::VRouter> router;
  std::vector<bgp::PeerId> neighbors;
  std::vector<bgp::PeerId> experiments;
  std::vector<std::unique_ptr<DriverPeer>> sinks;    // neighbors
  std::vector<std::unique_ptr<DriverPeer>> clients;  // experiments

  std::uint64_t exported() const {
    std::uint64_t n = 0;
    for (bgp::PeerId p : neighbors)
      n += router->speaker().peer_stats(p).updates_sent;
    return n;
  }
};

std::unique_ptr<World> build_world(const Inputs& in, Outcome& result) {
  auto w = std::make_unique<World>();
  w->router = make_router(&w->loop, w->control, w->data, in.grants, {},
                          result);
  bgp::BgpSpeaker& speaker = w->router->speaker();
  for (std::size_t n = 0; n < kNeighbors; ++n) {
    const auto b = static_cast<std::uint8_t>(n);
    w->neighbors.push_back(w->router->add_neighbor(
        {.name = "n" + std::to_string(n),
         .asn = 64700 + static_cast<bgp::Asn>(n),
         .local_address = Ipv4Address(10, 1, b, 1),
         .remote_address = Ipv4Address(10, 1, b, 2), .interface = -1,
         .global_id = 1 + static_cast<std::uint32_t>(n)}));
    // The seeded communities address neighbors by local id 1..32.
    if (w->router->registry().by_peer(w->neighbors.back())->local_id != n + 1)
      result.fail(1, "unexpected neighbor local id");
  }
  for (std::size_t i = 0; i < kExperiments; ++i) {
    const auto b = static_cast<std::uint8_t>(i);
    w->experiments.push_back(w->router->add_experiment(
        {.experiment_id = in.grants[i].experiment_id,
         .asn = kExperimentAsn + static_cast<bgp::Asn>(i),
         .local_address = Ipv4Address(100, 64, b, 1),
         .remote_address = tunnel_remote(i),
         .interface = 10 + static_cast<int>(i)}));
  }
  for (std::size_t n = 0; n < kNeighbors; ++n)
    w->sinks.push_back(attach_driver(
        &w->loop, speaker, w->neighbors[n], 64700 + static_cast<bgp::Asn>(n),
        Ipv4Address(10, 1, static_cast<std::uint8_t>(n), 2), false,
        Duration::micros(10)));
  for (std::size_t i = 0; i < kExperiments; ++i)
    w->clients.push_back(attach_driver(
        &w->loop, speaker, w->experiments[i],
        kExperimentAsn + static_cast<bgp::Asn>(i), tunnel_remote(i), true,
        Duration::micros(10)));
  w->loop.run_for(Duration::seconds(1));
  check_sessions(speaker, "experiment_announce set-up", result);
  for (const auto& c : w->clients)
    if (!c->tx_options().add_path) result.fail(1, "ADD-PATH not negotiated");
  return w;
}

/// Runs rounds until `rounds` are done or `budget_s` of measured time is
/// used; returns the rounds run.
std::size_t run_rounds(World& w, const Inputs& in, std::size_t rounds,
                       double budget_s, Phase& phase, SpanLog* spans,
                       std::int32_t parent) {
  const std::size_t pool_rounds = in.pool.size() / kExperiments;
  Meter meter(phase, kChunk, kWindow, [&w] { return w.exported(); });
  std::size_t r = 0;
  for (; r < rounds && phase.wall < budget_s; ++r) {
    const std::size_t base = (r % pool_rounds) * kExperiments;
    const double t0 = wall_now();
    for (std::size_t i = 0; i < kExperiments; ++i)
      w.clients[i]->send(in.wires[base + i]);
    phase.events += w.loop.run_for(Duration::millis(1));
    const double t1 = wall_now();
    meter.burst(t0, t1, kExperiments);
    if (spans != nullptr) spans->record("round", parent, r, t0, t1);
    // The enforcer logs every verdict, so memory grows with the rounds
    // run; the peak RSS is read after a fixed number of them.
    if (r + 1 == kChunk) mark_peak_rss(phase);
  }
  meter.finish();
  return r;
}

/// Oracle, outside the timed window: the enforcer's verdict counts (the
/// set-up announces nothing) and every neighbor's advertised prefix set
/// must equal what the seeded announcement stream implies.
void verify(World& w, const Inputs& in, std::size_t rounds, Outcome& result) {
  w.loop.run_for(Duration::seconds(1));
  check_sessions(w.router->speaker(), "experiment_announce", result);

  const std::size_t pool_rounds = in.pool.size() / kExperiments;
  std::uint64_t want[3] = {0, 0, 0};
  // Installed control communities per (experiment, own prefix).
  std::vector<std::optional<std::vector<bgp::Community>>> state(
      kExperiments * kPrefixesPerExperiment);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < kExperiments; ++i) {
      const Announcement& a = in.pool[(r % pool_rounds) * kExperiments + i];
      if (!a.withdraw) ++want[static_cast<int>(a.expect)];
      if (a.own < 0) continue;  // foreign: rejected, nothing installed
      auto& slot = state[a.exp * kPrefixesPerExperiment +
                         static_cast<std::size_t>(a.own)];
      if (a.withdraw || a.expect == Expect::kReject)
        slot.reset();  // a rejected re-announcement withdraws implicitly
      else
        slot = a.control;
    }
  }
  const std::uint64_t got[3] = {w.control.accepted(), w.control.transformed(),
                                w.control.rejected()};
  const char* names[3] = {"accepted", "transformed", "rejected"};
  for (int v = 0; v < 3; ++v)
    if (got[v] != want[v])
      result.fail(got[v] > want[v] ? got[v] - want[v] : want[v] - got[v],
                  std::string("verdicts ") + names[v] + ": " +
                      std::to_string(got[v]) + ", expected " +
                      std::to_string(want[v]));

  // announce_to whitelists (if any is present the neighbor must be on it);
  // no_announce_to always suppresses.
  auto allowed = [](const std::vector<bgp::Community>& cs, std::uint16_t id) {
    bool whitelist = false, listed = false;
    for (bgp::Community c : cs) {
      if (c == vbgp::no_announce_to(id)) return false;
      if (c.asn() == vbgp::kWhitelistAsn) {
        whitelist = true;
        listed = listed || c == vbgp::announce_to(id);
      }
    }
    return !whitelist || listed;
  };
  for (std::size_t n = 0; n < kNeighbors; ++n) {
    std::set<Ipv4Prefix> expect;
    for (std::size_t s = 0; s < state.size(); ++s)
      if (state[s] && allowed(*state[s], static_cast<std::uint16_t>(n + 1)))
        expect.insert(prefix_of(s / kPrefixesPerExperiment,
                                s % kPrefixesPerExperiment));
    std::set<Ipv4Prefix> advertised;
    std::size_t leaked = 0;  // control communities must never reach a neighbor
    for (const auto& e : w.router->speaker().adj_rib_out(w.neighbors[n])) {
      advertised.insert(e.prefix);
      for (bgp::Community c : e.attrs->communities)
        leaked += vbgp::is_control_community(c);
      leaked += vbgp::has_experiment_marker(*e.attrs, w.router->config().asn);
    }
    if (leaked != 0)
      result.fail(leaked, "neighbor " + std::to_string(n + 1) +
                              " received control communities");
    if (advertised != expect) {
      std::size_t diff = 0;
      for (const auto& p : expect) diff += advertised.count(p) == 0;
      for (const auto& p : advertised) diff += expect.count(p) == 0;
      result.fail(diff, "neighbor " + std::to_string(n + 1) + " holds " +
                            std::to_string(advertised.size()) +
                            " prefixes, expected " +
                            std::to_string(expect.size()));
    }
  }
}

Outcome run_untraced(const Args& args, const Inputs& in) {
  Outcome result;
  Samples setups;
  for (const double until = wall_now() + setup_sample_seconds(args);
       wall_now() < until;) {
    const double t0 = wall_now();
    auto w = build_world(in, result);
    setups.add(wall_now() - t0);
  }
  const double t0 = wall_now();
  auto w = build_world(in, result);
  setups.add(wall_now() - t0);

  Phase phase;
  const std::size_t rounds = run_rounds(
      *w, in, SIZE_MAX, args.seconds, phase, nullptr, SpanLog::kNoParent);
  result.attempted = phase.ops;
  emit_end_to_end(phase, setups, result);
  verify(*w, in, rounds, result);
  return result;
}

Outcome run_traced(const Args& args, const Inputs& in) {
  Outcome result;
  const std::size_t rounds = scaled(args, kTracedRounds, 50);
  Phase base;
  {
    auto w = build_world(in, result);
    run_rounds(*w, in, rounds, 1e9, base, nullptr, SpanLog::kNoParent);
  }

  SpanLog spans;
  LayerReport layers;
  Phase phase;
  AllocCount allocs;
  std::vector<std::size_t> sizes;
  const std::int32_t root = spans.begin("traced_run", SpanLog::kNoParent, 0);
  {
    obs::Registry registry(true);
    obs::Scope scope(&registry);
    auto w = build_world(in, result);
    std::size_t done = 0;
    allocs = trace_measured(
        registry, *w->router, w->control, w->data,
        [&w] {
          std::uint64_t bytes = 0;
          for (const auto& s : w->sinks) bytes += s->bytes_received();
          return bytes;
        },
        [&](std::int32_t measured) {
          done = run_rounds(*w, in, rounds, 1e9, phase, &spans, measured);
        },
        spans, root, layers);
    const double sent = layers.get("bgp.updates_out");
    sizes.assign(20'000, sent > 0 ? static_cast<std::size_t>(
                                        layers.get("sim.stream.bytes_out") / sent)
                                  : 64);
    verify(*w, in, done, result);
  }
  result.attempted = phase.ops;

  // Replays: the experiments' UPDATEs as they arrive, the enforcement
  // check on every announcement, the accepted routes through a Loc-RIB,
  // and one export per (accepted route, neighbor).
  const std::size_t n = std::min(in.pool.size(), rounds * kExperiments);
  std::vector<Bytes> wires(in.wires.begin(), in.wires.begin() + static_cast<std::ptrdiff_t>(n));
  std::vector<enforce::AnnouncementContext> ctxs;
  std::vector<bgp::RibRoute> rib_routes;
  std::vector<ExportShape> exports;
  for (std::size_t k = 0; k < n; ++k) {
    const Announcement& a = in.pool[k];
    if (a.withdraw) continue;
    enforce::AnnouncementContext ctx;
    ctx.experiment_id = in.grants[a.exp].experiment_id;
    ctx.pop_id = "pop1";
    ctx.prefix = a.prefix;
    ctx.attrs = a.attrs;
    ctxs.push_back(std::move(ctx));
    if (a.expect == Expect::kReject) continue;
    rib_routes.push_back({a.prefix, 1,
                          static_cast<bgp::PeerId>(kNeighbors + 1 + a.exp),
                          a.attrs});
    if (exports.size() < 100'000)
      for (std::size_t nb = 0; nb < kNeighbors; ++nb)
        exports.push_back({a.attrs, a.prefix,
                           Ipv4Address(10, 1, static_cast<std::uint8_t>(nb), 1),
                           false});
  }
  const ReplayCost decode = [&] {
    bgp::UpdateCodecOptions o;
    o.add_path = true;
    return replay_decode(wires, o, spans, root);
  }();
  const ReplayCost control = replay_control(in.grants, ctxs, spans, root);
  double candidates = 0;
  const ReplayCost decision =
      replay_decision(rib_routes, &candidates, spans, root);
  const ReplayCost encode = replay_encode(exports, spans, root);
  const ReplayCost stream = replay_stream(sizes, spans, root);

  layers.set("bgp.decode.ns_per_msg", decode.ns_per_op);
  layers.set("bgp.decode.allocs_per_msg", decode.allocs_per_op);
  layers.set("enforce.control.ns_per_check", control.ns_per_op);
  layers.set("bgp.decision.ns_per_route", decision.ns_per_op);
  layers.set("bgp.decision.candidates_mean", candidates);
  layers.set("bgp.encode.ns_per_export", encode.ns_per_op);
  layers.set("bgp.encode.allocs_per_export", encode.allocs_per_op);
  layers.set("sim.stream.ns_per_send", stream.ns_per_op);

  const double ops = static_cast<double>(phase.ops);
  const double checks = layers.get("enforce.control.accepted") +
                        layers.get("enforce.control.transformed") +
                        layers.get("enforce.control.rejected");
  const double sent = layers.get("bgp.updates_out");
  fill_phase_layers(phase, static_cast<double>(base.ops) / base.wall, allocs,
                    {{decode, ops},
                     {control, checks},
                     {decision, ops},
                     {encode, sent},
                     {stream, sent}},
                    layers);
  finish_trace(args, spans, root, layers, result);
  return result;
}

}  // namespace

Outcome run_experiment_announce(const Args& args) {
  const Inputs in = make_inputs(args);
  return args.trace ? run_traced(args, in) : run_untraced(args, in);
}

}  // namespace perfbench
