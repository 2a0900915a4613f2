// forward: the §3.2.2 data plane with BGP idle. Set-up gives 4 neighbors
// full-table FIBs (shared-leaf views of one FibSet, installed through each
// neighbor's FibView) and 8 experiments that each own several prefixes,
// so the packet filter's source check has work to do. The measured phase
// sends minimum-size IPv4 packets (60-byte frames, 64 on the wire with the
// FCS) in paced bursts, open loop in sim time and well below link capacity
// so that a queue drop is a failure:
//  * 3/4 experiment -> Internet: destination-MAC demux, DataPlaneEnforcer,
//    per-neighbor FibView LPM (a seeded share spoofs its source, a seeded
//    share misses every route);
//  * 1/4 neighbor -> experiment: mux LPM and source-MAC rewrite (a seeded
//    share matches no experiment).
// Speaker shape serial {1 partition, 0 workers}.
#include "ether/frame.h"
#include "inet/route_feed.h"
#include "ip/fib_set.h"
#include "ip/ipv4.h"
#include "ip/routing_table.h"
#include "sim/link.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kNeighbors = 4;
constexpr std::size_t kExperiments = 8;
constexpr std::size_t kPrefixesPerExperiment = 6;
constexpr std::size_t kBurst = 32;
constexpr std::size_t kPool = 1 << 16;
constexpr std::size_t kTracedBursts = 20'000;
/// Bursts per rate sample and per quantile window: a run is about 30
/// chunks and 14 windows.
constexpr std::size_t kChunk = 4096;
constexpr std::size_t kWindow = 8192;
constexpr std::size_t kSetups = 9;
const Duration kBurstInterval = Duration::micros(40);
constexpr std::uint64_t kLinkBps = 10'000'000'000ull;

enum class Dir : std::uint8_t { kToInternet, kToExperiment };
/// Where a packet must come out: a neighbor link, an experiment link
/// (delivery, or an ICMP unreachable for a route miss), or nowhere.
struct Egress {
  enum Kind : std::uint8_t { kNone, kNeighbor, kExperiment } kind = kNone;
  std::size_t index = 0;
  bool icmp = false;
};

struct PacketSpec {
  Dir dir = Dir::kToInternet;
  std::size_t exp = 0;  // source (to Internet) or owner (to experiment)
  std::size_t nb = 0;   // chosen neighbor (to Internet) or ingress neighbor
  ip::Ipv4Packet packet;
  Egress egress;
};

Ipv4Prefix exp_prefix(std::size_t exp, std::size_t j) {
  return Ipv4Prefix(
      Ipv4Address(184, 164, static_cast<std::uint8_t>(exp * 8 + j), 0), 24);
}
Ipv4Address nb_addr(std::size_t k) {
  return Ipv4Address(10, 0, static_cast<std::uint8_t>(k), 2);
}
Ipv4Address exp_tunnel(std::size_t i) {
  return Ipv4Address(100, 64, static_cast<std::uint8_t>(i), 2);
}
MacAddress nb_mac(std::size_t k) {
  return MacAddress::from_id(0x200 + static_cast<std::uint32_t>(k));
}
MacAddress exp_mac(std::size_t i) {
  return MacAddress::from_id(0x300 + static_cast<std::uint32_t>(i));
}

struct Inputs {
  std::vector<inet::FeedRoute> table;
  /// Per neighbor: which table routes its FIB holds (a seeded 5% is absent
  /// per neighbor, so the views differ).
  std::vector<std::vector<bool>> present;
  std::vector<enforce::ExperimentGrant> grants;
  std::vector<PacketSpec> pool;
};

Inputs make_inputs(const Args& args) {
  Inputs in;
  inet::FullTableConfig cfg;
  cfg.route_count = scaled(args, 250'000, 2'000);
  cfg.seed = args.seed;
  in.table = inet::generate_full_table(cfg);
  Rng rng(args.seed * 0x2545f4914f6cdd1dull + 3);
  Fingerprint f;
  std::vector<ip::RoutingTable> reference(kNeighbors);
  in.present.assign(kNeighbors, std::vector<bool>(in.table.size(), true));
  for (std::size_t k = 0; k < kNeighbors; ++k) {
    for (std::size_t r = 0; r < in.table.size(); ++r) {
      if (rng.chance(0.05)) {
        in.present[k][r] = false;
        continue;
      }
      reference[k].insert({in.table[r].prefix, nb_addr(k), 0, 0});
      f.mix_u64(in.table[r].prefix.address().value() + k);
    }
  }
  for (std::size_t i = 0; i < kExperiments; ++i) {
    enforce::ExperimentGrant g;
    g.experiment_id = "x" + std::to_string(i);
    for (std::size_t j = 0; j < kPrefixesPerExperiment; ++j)
      g.allocated_prefixes.push_back(exp_prefix(i, j));
    g.allowed_origin_asns = {61574u + static_cast<bgp::Asn>(i)};
    in.grants.push_back(std::move(g));
  }

  auto host_in = [&rng](const Ipv4Prefix& p) {
    const std::uint32_t span = p.length() >= 32 ? 0 : ~p.mask();
    return Ipv4Address(p.address().value() +
                       static_cast<std::uint32_t>(rng.next() & span));
  };
  // A 46-byte IPv4 packet: 20-byte header + 26 bytes of payload.
  const Bytes payload(26, 0x42);
  in.pool.reserve(scaled(args, kPool, 4096));
  for (std::size_t n = 0; n < scaled(args, kPool, 4096); ++n) {
    PacketSpec s;
    s.packet.payload = payload;
    s.packet.identification = static_cast<std::uint16_t>(n);
    if (rng.below(4) != 0) {
      s.dir = Dir::kToInternet;
      s.exp = rng.below(kExperiments);
      s.nb = rng.below(kNeighbors);
      const bool spoof = rng.chance(0.02);
      s.packet.src = spoof ? Ipv4Address(203, 0, 113, static_cast<std::uint8_t>(rng.below(256)))
                           : host_in(exp_prefix(s.exp, rng.below(kPrefixesPerExperiment)));
      if (rng.chance(0.05)) {
        do {
          s.packet.dst = Ipv4Address(static_cast<std::uint32_t>(rng.next()));
        } while (reference[s.nb].lookup(s.packet.dst).has_value());
      } else {
        s.packet.dst = host_in(in.table[rng.below(in.table.size())].prefix);
      }
      if (!spoof) {
        const bool hit = reference[s.nb].lookup(s.packet.dst).has_value();
        s.egress = hit ? Egress{Egress::kNeighbor, s.nb, false}
                       : Egress{Egress::kExperiment, s.exp, true};
      }
    } else {
      s.dir = Dir::kToExperiment;
      s.nb = rng.below(kNeighbors);
      s.exp = rng.below(kExperiments);
      s.packet.src = host_in(in.table[rng.below(in.table.size())].prefix);
      if (rng.chance(0.05)) {
        s.packet.dst = Ipv4Address(198, 18, static_cast<std::uint8_t>(rng.below(256)),
                                   static_cast<std::uint8_t>(rng.below(256)));
      } else {
        s.packet.dst = host_in(exp_prefix(s.exp, rng.below(kPrefixesPerExperiment)));
        s.egress = Egress{Egress::kExperiment, s.exp, false};
      }
    }
    f.mix_u64((std::uint64_t{s.packet.src.value()} << 32) | s.packet.dst.value());
    in.pool.push_back(std::move(s));
  }
  report_inputs(f);
  return in;
}

/// Receives one router egress link: counts frames and bytes, and keeps
/// them only when capturing (the post-phase per-packet check).
struct Sink {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  bool capture = false;
  std::vector<Bytes> captured;
};

struct World {
  sim::EventLoop loop;  // first: destroyed last
  enforce::ControlPlaneEnforcer control;
  enforce::DataPlaneEnforcer data;
  std::unique_ptr<vbgp::VRouter> router;
  std::vector<std::unique_ptr<sim::Link>> nb_links, exp_links;
  std::vector<Sink> nb_sinks, exp_sinks;
  std::vector<int> nb_if, exp_if;
  std::vector<bgp::PeerId> neighbors, experiments;
  std::vector<std::unique_ptr<DriverPeer>> drivers;
  /// Encoded ingress frame per pool packet (built after set-up: it needs
  /// the router's virtual MACs).
  std::vector<Bytes> frames;

  std::uint64_t delivered() const {
    std::uint64_t n = 0;
    for (const auto& s : nb_sinks) n += s.frames;
    for (const auto& s : exp_sinks) n += s.frames;
    return n;
  }
  std::uint64_t link_drops() const {
    std::uint64_t n = 0;
    for (const auto* links : {&nb_links, &exp_links})
      for (const auto& l : *links)
        n += l->a_to_b().frames_dropped() + l->b_to_a().frames_dropped();
    return n;
  }
};

sim::LinkConfig link_config(const std::string& name) {
  sim::LinkConfig c;
  c.latency = Duration::micros(10);
  c.bandwidth_bps = kLinkBps;
  c.name = name;
  return c;
}

std::unique_ptr<World> build_world(const Inputs& in, Outcome& result) {
  auto w = std::make_unique<World>();
  w->router = make_router(&w->loop, w->control, w->data, in.grants, {},
                          result);
  vbgp::VRouter& router = *w->router;

  w->nb_sinks.resize(kNeighbors);
  w->exp_sinks.resize(kExperiments);
  auto wire = [](sim::Link& link, Sink& sink) {
    link.a_to_b().set_receiver([&sink](const Bytes& frame) {
      ++sink.frames;
      sink.bytes += frame.size();
      if (sink.capture) sink.captured.push_back(frame);
    });
  };
  for (std::size_t k = 0; k < kNeighbors; ++k) {
    w->nb_links.push_back(std::make_unique<sim::Link>(
        &w->loop, link_config("n" + std::to_string(k))));
    const auto b = static_cast<std::uint8_t>(k);
    w->nb_if.push_back(router.add_attached_interface(
        "n" + std::to_string(k), MacAddress::from_id(0x100 + b),
        {Ipv4Address(10, 0, b, 1), 24}, *w->nb_links.back(), true, true));
    wire(*w->nb_links.back(), w->nb_sinks[k]);
    w->neighbors.push_back(router.add_neighbor(
        {.name = "n" + std::to_string(k), .asn = 64700u + b,
         .local_address = Ipv4Address(10, 0, b, 1), .remote_address = nb_addr(k),
         .interface = w->nb_if.back(), .global_id = 1u + b}));
    router.registry().learn_real_mac(
        nb_mac(k), router.registry().by_peer(w->neighbors.back())->local_id);
    router.arp_cache(w->nb_if.back()).learn(nb_addr(k), nb_mac(k), w->loop.now());
  }
  for (std::size_t i = 0; i < kExperiments; ++i) {
    w->exp_links.push_back(std::make_unique<sim::Link>(
        &w->loop, link_config("x" + std::to_string(i))));
    const auto b = static_cast<std::uint8_t>(i);
    w->exp_if.push_back(router.add_attached_interface(
        "x" + std::to_string(i), MacAddress::from_id(0x180 + b),
        {Ipv4Address(100, 64, b, 1), 24}, *w->exp_links.back(), true, true));
    wire(*w->exp_links.back(), w->exp_sinks[i]);
    w->experiments.push_back(router.add_experiment(
        {.experiment_id = in.grants[i].experiment_id, .asn = 61574u + b,
         .local_address = Ipv4Address(100, 64, b, 1),
         .remote_address = exp_tunnel(i), .interface = w->exp_if.back()}));
    for (const auto& p : in.grants[i].allocated_prefixes)
      router.add_experiment_route(p, in.grants[i].experiment_id,
                                  w->exp_if.back(), exp_tunnel(i));
    router.arp_cache(w->exp_if.back()).learn(exp_tunnel(i), exp_mac(i),
                                             w->loop.now());
  }

  // Full-table FIBs, written through each neighbor's view of the shared set.
  for (std::size_t k = 0; k < kNeighbors; ++k) {
    ip::FibView& fib = router.registry().by_peer(w->neighbors[k])->fib;
    for (std::size_t r = 0; r < in.table.size(); ++r)
      if (in.present[k][r])
        fib.insert({in.table[r].prefix, nb_addr(k), w->nb_if[k], 0});
  }

  bgp::BgpSpeaker& speaker = router.speaker();
  for (std::size_t k = 0; k < kNeighbors; ++k)
    w->drivers.push_back(attach_driver(&w->loop, speaker, w->neighbors[k],
                                       64700u + static_cast<bgp::Asn>(k),
                                       nb_addr(k), false, Duration::micros(10)));
  for (std::size_t i = 0; i < kExperiments; ++i)
    w->drivers.push_back(attach_driver(
        &w->loop, speaker, w->experiments[i], 61574u + static_cast<bgp::Asn>(i),
        exp_tunnel(i), true, Duration::micros(10)));
  w->loop.run_for(Duration::seconds(1));
  check_sessions(speaker, "forward set-up", result);
  return w;
}

/// Encodes every pool packet as the frame its ingress link carries.
void encode_frames(World& w, const Inputs& in) {
  w.frames.clear();
  w.frames.reserve(in.pool.size());
  for (const auto& s : in.pool) {
    ether::EthernetFrame frame;
    if (s.dir == Dir::kToInternet) {
      frame = ether::make_frame(
          w.router->registry().by_peer(w.neighbors[s.nb])->virtual_mac,
          exp_mac(s.exp), ether::EtherType::kIpv4, s.packet.encode());
    } else {
      frame = ether::make_frame(
          w.router->interface(w.nb_if[s.nb]).mac(), nb_mac(s.nb),
          ether::EtherType::kIpv4, s.packet.encode());
    }
    w.frames.push_back(frame.encode());
  }
}

sim::LinkDirection& ingress(World& w, const PacketSpec& s) {
  return s.dir == Dir::kToInternet ? w.exp_links[s.exp]->b_to_a()
                                   : w.nb_links[s.nb]->b_to_a();
}

/// Sends paced bursts until `bursts` are done or `budget_s` of measured
/// time is used; returns the packets sent.
std::size_t run_bursts(World& w, const Inputs& in, std::size_t bursts,
                       double budget_s, Phase& phase, SpanLog* spans,
                       std::int32_t parent) {
  Meter meter(phase, kChunk, kWindow, [&w] { return w.delivered(); });
  std::size_t sent = 0;
  for (std::size_t b = 0; b < bursts && phase.wall < budget_s; ++b) {
    const SimTime due = w.loop.now() + kBurstInterval;
    const double t0 = wall_now();
    for (std::size_t p = 0; p < kBurst; ++p, ++sent) {
      const std::size_t idx = sent % in.pool.size();
      ingress(w, in.pool[idx]).send(w.frames[idx]);
    }
    phase.events += w.loop.run_until(due);
    const double t1 = wall_now();
    meter.burst(t0, t1, kBurst);
    if (spans != nullptr) spans->record("burst", parent, b, t0, t1);
    if (b + 1 == kChunk) mark_peak_rss(phase);
  }
  meter.finish();
  return sent;
}

/// Oracle, outside the timed window. Every packet's outcome (egress link,
/// ICMP reply, or drop) was fixed against ip::RoutingTable references when
/// the inputs were generated: the per-link frame counts of the phase must
/// equal the sum of those outcomes, no link may have dropped a frame, and
/// a seeded sample of packets is then re-sent one at a time and checked
/// frame by frame (egress link, rewritten MACs, TTL).
void verify(World& w, const Inputs& in, std::size_t sent,
            const std::vector<std::uint64_t>& nb0,
            const std::vector<std::uint64_t>& exp0, std::uint64_t seed,
            Outcome& result) {
  w.loop.run_for(Duration::millis(10));
  check_sessions(w.router->speaker(), "forward", result);
  if (w.link_drops() != 0)
    result.fail(w.link_drops(), "link queues dropped frames");

  std::vector<std::uint64_t> want_nb(kNeighbors, 0), want_exp(kExperiments, 0);
  for (std::size_t n = 0; n < sent; ++n) {
    const Egress& e = in.pool[n % in.pool.size()].egress;
    if (e.kind == Egress::kNeighbor) ++want_nb[e.index];
    if (e.kind == Egress::kExperiment) ++want_exp[e.index];
  }
  for (std::size_t k = 0; k < kNeighbors; ++k) {
    const std::uint64_t got = w.nb_sinks[k].frames - nb0[k];
    if (got != want_nb[k])
      result.fail(got > want_nb[k] ? got - want_nb[k] : want_nb[k] - got,
                  "neighbor link " + std::to_string(k) + " carried " +
                      std::to_string(got) + " frames, expected " +
                      std::to_string(want_nb[k]));
  }
  for (std::size_t i = 0; i < kExperiments; ++i) {
    const std::uint64_t got = w.exp_sinks[i].frames - exp0[i];
    if (got != want_exp[i])
      result.fail(got > want_exp[i] ? got - want_exp[i] : want_exp[i] - got,
                  "experiment link " + std::to_string(i) + " carried " +
                      std::to_string(got) + " frames, expected " +
                      std::to_string(want_exp[i]));
  }

  for (auto& s : w.nb_sinks) s.capture = true;
  for (auto& s : w.exp_sinks) s.capture = true;
  Rng rng(seed + 99);
  for (int n = 0; n < 512; ++n) {
    const std::size_t idx = rng.below(in.pool.size());
    const PacketSpec& s = in.pool[idx];
    for (auto& sink : w.nb_sinks) sink.captured.clear();
    for (auto& sink : w.exp_sinks) sink.captured.clear();
    ingress(w, s).send(w.frames[idx]);
    w.loop.run_for(kBurstInterval);
    std::vector<std::pair<Egress, Bytes>> out;
    for (std::size_t k = 0; k < kNeighbors; ++k)
      for (auto& f : w.nb_sinks[k].captured)
        out.push_back({{Egress::kNeighbor, k, false}, f});
    for (std::size_t i = 0; i < kExperiments; ++i)
      for (auto& f : w.exp_sinks[i].captured)
        out.push_back({{Egress::kExperiment, i, false}, f});
    const std::string what = "packet " + std::to_string(idx) + " (" +
                             s.packet.src.str() + " -> " + s.packet.dst.str() +
                             ")";
    if (s.egress.kind == Egress::kNone) {
      if (!out.empty()) result.fail(1, what + ": expected a drop");
      continue;
    }
    if (out.size() != 1 || out[0].first.kind != s.egress.kind ||
        out[0].first.index != s.egress.index) {
      result.fail(1, what + ": wrong egress");
      continue;
    }
    auto frame = ether::EthernetFrame::decode(out[0].second);
    if (!frame) {
      result.fail(1, what + ": undecodable egress frame");
      continue;
    }
    auto pkt = ip::Ipv4Packet::decode(frame->payload);
    if (!pkt) {
      result.fail(1, what + ": undecodable egress packet");
      continue;
    }
    bool ok = true;
    if (s.egress.icmp) {
      ok = pkt->protocol == static_cast<std::uint8_t>(ip::IpProto::kIcmp) &&
           pkt->dst == s.packet.src && frame->dst == exp_mac(s.exp);
    } else if (s.egress.kind == Egress::kNeighbor) {
      ok = frame->dst == nb_mac(s.nb) && pkt->dst == s.packet.dst &&
           pkt->src == s.packet.src && pkt->ttl == s.packet.ttl - 1;
    } else {
      // Ingress attribution: the source MAC names the delivering neighbor.
      ok = frame->dst == exp_mac(s.exp) &&
           frame->src ==
               w.router->registry().by_peer(w.neighbors[s.nb])->virtual_mac &&
           pkt->dst == s.packet.dst && pkt->ttl == s.packet.ttl - 1;
    }
    if (!ok) result.fail(1, what + ": egress frame content differs");
  }
  for (auto& s : w.nb_sinks) s.capture = false;
  for (auto& s : w.exp_sinks) s.capture = false;
}

std::pair<std::vector<std::uint64_t>, std::vector<std::uint64_t>> counts(
    const World& w) {
  std::pair<std::vector<std::uint64_t>, std::vector<std::uint64_t>> c;
  for (const auto& s : w.nb_sinks) c.first.push_back(s.frames);
  for (const auto& s : w.exp_sinks) c.second.push_back(s.frames);
  return c;
}

Outcome run_untraced(const Args& args, const Inputs& in) {
  Outcome result;
  Samples setups;
  for (std::size_t k = 1; k < setup_count(args, kSetups); ++k) {
    const double t0 = wall_now();
    auto w = build_world(in, result);
    setups.add(wall_now() - t0);
  }
  const double t0 = wall_now();
  auto w = build_world(in, result);
  setups.add(wall_now() - t0);
  encode_frames(*w, in);

  const auto [nb0, exp0] = counts(*w);
  Phase phase;
  const std::size_t sent = run_bursts(*w, in, SIZE_MAX, args.seconds, phase,
                                      nullptr, SpanLog::kNoParent);
  result.attempted = sent;
  emit_end_to_end(phase, setups, result);
  verify(*w, in, sent, nb0, exp0, args.seed, result);
  return result;
}

Outcome run_traced(const Args& args, const Inputs& in) {
  Outcome result;
  const std::size_t bursts = scaled(args, kTracedBursts, 200);
  Phase base;
  {
    auto w = build_world(in, result);
    encode_frames(*w, in);
    run_bursts(*w, in, bursts, 1e9, base, nullptr, SpanLog::kNoParent);
  }

  SpanLog spans;
  LayerReport layers;
  Phase phase;
  AllocCount allocs;
  std::size_t views = 1;
  std::size_t sent = 0;
  const std::int32_t root = spans.begin("traced_run", SpanLog::kNoParent, 0);
  {
    obs::Registry registry(true);
    obs::Scope scope(&registry);
    auto w = build_world(in, result);
    encode_frames(*w, in);
    const auto [nb0, exp0] = counts(*w);
    allocs = trace_measured(
        registry, *w->router, w->control, w->data,
        [&w] {
          std::uint64_t bytes = 0;
          for (const auto* sinks : {&w->nb_sinks, &w->exp_sinks})
            for (const auto& s : *sinks) bytes += s.bytes;
          return bytes;
        },
        [&](std::int32_t measured) {
          sent = run_bursts(*w, in, bursts, 1e9, phase, &spans, measured);
        },
        spans, root, layers);
    layers.set("ether.frames", static_cast<double>(phase.delivered));
    views = w->router->registry().fib_set().view_count();
    verify(*w, in, sent, nb0, exp0, args.seed, result);
  }
  result.attempted = sent;

  // Replays: the source check on every experiment packet, the FIB writes
  // of one neighbor's table at the router's view count, and LPM on the
  // experiment packets' destinations.
  std::vector<std::pair<std::string, Bytes>> checks;
  std::vector<Ipv4Address> dsts;
  for (std::size_t n = 0; n < std::min(sent, in.pool.size()); ++n) {
    const PacketSpec& s = in.pool[n];
    if (s.dir != Dir::kToInternet) continue;
    checks.emplace_back(in.grants[s.exp].experiment_id, s.packet.encode());
    dsts.push_back(s.packet.dst);
  }
  std::vector<ip::Route> routes;
  for (std::size_t r = 0; r < in.table.size(); ++r)
    if (in.present[0][r]) routes.push_back({in.table[r].prefix, nb_addr(0), 0, 0});
  const ReplayCost data = replay_data(in.grants, checks, spans, root);
  const ReplayCost fib = replay_fib(sample(routes, 50'000), views, spans, root);
  double hit_ratio = 0;
  const ReplayCost lpm =
      replay_lpm(routes, kNeighbors, dsts, &hit_ratio, spans, root);

  layers.set("enforce.data.ns_per_packet", data.ns_per_op);
  layers.set("ip.fib.ns_per_install", fib.ns_per_op);
  layers.set("ip.fib.allocs_per_install", fib.allocs_per_op);
  layers.set("ip.lpm.ns_per_lookup", lpm.ns_per_op);
  layers.set("ip.lpm.hit_ratio", hit_ratio);

  // Lookups per sent packet: demuxed packets that passed the filter, plus
  // every packet toward experiments (mux LPM).
  double to_internet = 0, lookups = 0;
  for (std::size_t n = 0; n < sent; ++n) {
    const PacketSpec& s = in.pool[n % in.pool.size()];
    if (s.dir == Dir::kToInternet) {
      ++to_internet;
      lookups += s.egress.kind != Egress::kNone;
    } else {
      ++lookups;
    }
  }
  fill_phase_layers(phase, static_cast<double>(base.ops) / base.wall, allocs,
                    {{data, to_internet}, {lpm, lookups}}, layers);
  finish_trace(args, spans, root, layers, result);
  return result;
}

}  // namespace

Outcome run_forward(const Args& args) {
  const Inputs in = make_inputs(args);
  return args.trace ? run_traced(args, in) : run_untraced(args, in);
}

}  // namespace perfbench
