#include "replay.h"

#include "bgp/attributes.h"
#include "enforce/data_enforcer.h"
#include "ip/fib_set.h"
#include "sim/event_loop.h"
#include "sim/stream.h"

namespace perfbench {
namespace {

/// Times `body` (which performs `ops` operations) as one replay span and
/// counts its allocations.
template <typename Body>
ReplayCost timed(std::string_view name, std::size_t ops, SpanLog& spans,
                 std::int32_t parent, Body&& body) {
  ReplayCost cost;
  cost.ops = ops;
  if (ops == 0) return cost;
  const AllocCount a0 = alloc_snapshot();
  const std::int32_t span = spans.begin(name, parent, 0);
  const double t0 = wall_now();
  body();
  const double t1 = wall_now();
  spans.end(span);
  const AllocCount da = alloc_snapshot() - a0;
  cost.ns_per_op = (t1 - t0) * 1e9 / static_cast<double>(ops);
  cost.allocs_per_op =
      static_cast<double>(da.count) / static_cast<double>(ops);
  return cost;
}

/// Keeps replay results observable so no lookup or decode is elided.
volatile std::uint64_t g_sink = 0;

}  // namespace

ReplayCost replay_decode(const std::vector<Bytes>& wires,
                         const bgp::UpdateCodecOptions& options, SpanLog& spans,
                         std::int32_t parent) {
  return timed("replay.bgp.decode", wires.size(), spans, parent, [&] {
    bgp::MessageDecoder decoder;
    decoder.set_options(options);
    std::uint64_t decoded = 0;
    for (const Bytes& wire : wires) {
      decoder.feed(wire);
      while (true) {
        auto msg = decoder.poll();
        if (!msg.ok() || !msg->has_value()) break;
        ++decoded;
      }
    }
    g_sink = g_sink + decoded;
  });
}

ReplayCost replay_decision(const std::vector<bgp::RibRoute>& routes,
                           double* candidates_mean, SpanLog& spans,
                           std::int32_t parent) {
  bgp::LocRib rib([](bgp::PeerId peer) {
    bgp::PeerDecisionInfo info;
    info.peer_asn = 65000 + peer;
    info.peer_address = Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(peer));
    info.router_id = info.peer_address;
    return info;
  });
  ReplayCost cost =
      timed("replay.bgp.decision", routes.size(), spans, parent, [&] {
        for (const auto& route : routes) rib.update(route);
      });
  *candidates_mean = rib.prefix_count() == 0
                         ? 0.0
                         : static_cast<double>(rib.route_count()) /
                               static_cast<double>(rib.prefix_count());
  return cost;
}

ReplayCost replay_encode(const std::vector<ExportShape>& exports,
                         SpanLog& spans, std::int32_t parent) {
  // The attribute image and next-hop offset come from the pool's encode
  // cache, as in the speaker; the timed part is the per-export splice.
  bgp::AttrPool pool;
  struct Prepared {
    const Bytes* attr_bytes;
    std::size_t nh_offset;
    std::vector<bgp::NlriEntry> nlri;
    Ipv4Address next_hop;
    bgp::UpdateCodecOptions options;
  };
  std::vector<Prepared> prepared;
  prepared.reserve(exports.size());
  for (const auto& e : exports) {
    bgp::AttrsPtr interned = pool.intern(*e.attrs);
    Prepared p;
    p.nh_offset = bgp::kNoNextHopOffset;
    p.attr_bytes = &pool.encoded(interned, bgp::AttrCodecOptions{}, nullptr,
                                 &p.nh_offset);
    p.nlri.push_back({e.add_path ? 1u : 0u, e.prefix});
    p.next_hop = e.next_hop;
    p.options.add_path = e.add_path;
    prepared.push_back(std::move(p));
  }
  return timed("replay.bgp.encode", prepared.size(), spans, parent, [&] {
    Bytes out;
    std::uint64_t bytes = 0;
    for (const auto& p : prepared) {
      out.clear();
      bgp::encode_update_spliced_into(out, *p.attr_bytes, p.nh_offset,
                                      p.next_hop, p.nlri, p.options);
      bytes += out.size();
    }
    g_sink = g_sink + bytes;
  });
}

ReplayCost replay_control(const std::vector<enforce::ExperimentGrant>& grants,
                          const std::vector<enforce::AnnouncementContext>& ctxs,
                          SpanLog& spans, std::int32_t parent) {
  enforce::ControlPlaneEnforcer enforcer;
  enforcer.install_default_rules({47065, 47064});
  for (const auto& g : grants) enforcer.set_grant(g);
  return timed("replay.enforce.control", ctxs.size(), spans, parent, [&] {
    std::uint64_t accepted = 0;
    for (const auto& ctx : ctxs)
      accepted +=
          enforcer.check(ctx).action == enforce::Verdict::Action::kAccept;
    g_sink = g_sink + accepted;
  });
}

ReplayCost replay_data(const std::vector<enforce::ExperimentGrant>& grants,
                       const std::vector<std::pair<std::string, Bytes>>& pkts,
                       SpanLog& spans, std::int32_t parent) {
  enforce::DataPlaneEnforcer enforcer;
  for (const auto& g : grants)
    if (!enforcer.install(g).ok()) return {};
  return timed("replay.enforce.data", pkts.size(), spans, parent, [&] {
    std::uint64_t passed = 0;
    for (const auto& [exp, packet] : pkts)
      passed += enforcer.check(exp, packet, SimTime()) ==
                enforce::FilterAction::kPass;
    g_sink = g_sink + passed;
  });
}

ReplayCost replay_fib(const std::vector<ip::Route>& routes, std::size_t views,
                      SpanLog& spans, std::int32_t parent) {
  ip::FibSet set;
  std::vector<ip::FibView> v;
  for (std::size_t i = 0; i < views; ++i) v.push_back(set.make_view());
  return timed("replay.ip.fib", routes.size() * views * 2, spans, parent, [&] {
    std::uint64_t changed = 0;
    for (auto& view : v)
      for (const auto& r : routes) changed += view.insert(r);
    for (auto& view : v)
      for (const auto& r : routes) changed += view.remove(r.prefix);
    g_sink = g_sink + changed;
  });
}

ReplayCost replay_lpm(const std::vector<ip::Route>& routes, std::size_t views,
                      const std::vector<Ipv4Address>& addrs, double* hit_ratio,
                      SpanLog& spans, std::int32_t parent) {
  ip::FibSet set;
  std::vector<ip::FibView> v;
  for (std::size_t i = 0; i < std::max<std::size_t>(views, 1); ++i)
    v.push_back(set.make_view());
  for (auto& view : v)
    for (const auto& r : routes) view.insert(r);
  std::uint64_t hits = 0;
  ReplayCost cost =
      timed("replay.ip.lpm", addrs.size(), spans, parent, [&] {
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < addrs.size(); ++i) {
          auto r = v[i % v.size()].lookup(addrs[i]);
          if (r) {
            ++hits;
            sum += r->next_hop.value();
          }
        }
        g_sink = g_sink + sum;
      });
  *hit_ratio = addrs.empty() ? 0.0
                             : static_cast<double>(hits) /
                                   static_cast<double>(addrs.size());
  return cost;
}

ReplayCost replay_stream(const std::vector<std::size_t>& sizes, SpanLog& spans,
                         std::int32_t parent) {
  sim::EventLoop loop;
  auto pair = sim::StreamChannel::make(&loop, Duration::micros(10));
  std::uint64_t received = 0;
  pair.b->on_data([&received](const Bytes& d) { received += d.size(); });
  std::vector<Bytes> messages;
  messages.reserve(sizes.size());
  for (std::size_t s : sizes) messages.emplace_back(s, 0x5a);
  return timed("replay.sim.stream", messages.size(), spans, parent, [&] {
    for (std::size_t i = 0; i < messages.size(); ++i) {
      pair.a->send(messages[i]);
      if (i % 64 == 63) loop.run_for(Duration::millis(1));
    }
    loop.run_for(Duration::millis(1));
    g_sink = g_sink + received;
  });
}

}  // namespace perfbench
