// Per-layer replays for the traced run: each times one layer's public
// function over this workload's own inputs, in isolation, and counts the
// allocations it makes. A replay records one span ("replay.<layer>") under
// the traced run's root span.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "bgp/message.h"
#include "bgp/rib.h"
#include "enforce/capabilities.h"
#include "enforce/control_policy.h"
#include "harness.h"
#include "ip/routing_table.h"

namespace perfbench {

struct ReplayCost {
  std::size_t ops = 0;
  double ns_per_op = 0;
  double allocs_per_op = 0;
};

/// MessageDecoder::feed/poll, one wire message at a time.
ReplayCost replay_decode(const std::vector<Bytes>& wires,
                         const bgp::UpdateCodecOptions& options, SpanLog& spans,
                         std::int32_t parent);

/// LocRib::update over `routes` (in order); also reports the mean number
/// of candidates per prefix once loaded.
ReplayCost replay_decision(const std::vector<bgp::RibRoute>& routes,
                           double* candidates_mean, SpanLog& spans,
                           std::int32_t parent);

/// One export: an attribute set's cached wire bytes spliced with a
/// member's next-hop into one UPDATE (encode_update_spliced_into).
struct ExportShape {
  bgp::AttrsPtr attrs;
  Ipv4Prefix prefix;
  Ipv4Address next_hop;
  bool add_path = false;
};
ReplayCost replay_encode(const std::vector<ExportShape>& exports,
                         SpanLog& spans, std::int32_t parent);

/// ControlPlaneEnforcer::check with the workload's grants.
ReplayCost replay_control(const std::vector<enforce::ExperimentGrant>& grants,
                          const std::vector<enforce::AnnouncementContext>& ctxs,
                          SpanLog& spans, std::int32_t parent);

/// DataPlaneEnforcer::check on (experiment id, IPv4 packet bytes) pairs.
ReplayCost replay_data(const std::vector<enforce::ExperimentGrant>& grants,
                       const std::vector<std::pair<std::string, Bytes>>& pkts,
                       SpanLog& spans, std::int32_t parent);

/// FibView::insert then FibView::remove of `routes` into each of `views`
/// sibling views of one FibSet; every insert and remove is one install.
ReplayCost replay_fib(const std::vector<ip::Route>& routes, std::size_t views,
                      SpanLog& spans, std::int32_t parent);

/// FibView::lookup of `addrs` on a view holding `routes` (one of `views`
/// siblings sharing the set). `hit_ratio` receives the share that matched.
ReplayCost replay_lpm(const std::vector<ip::Route>& routes, std::size_t views,
                      const std::vector<Ipv4Address>& addrs, double* hit_ratio,
                      SpanLog& spans, std::int32_t parent);

/// StreamChannel send + delivery of messages of the given sizes.
ReplayCost replay_stream(const std::vector<std::size_t>& sizes, SpanLog& spans,
                         std::int32_t parent);

/// Every `stride`-th element of `v`, at most `cap` of them.
template <typename T>
std::vector<T> sample(const std::vector<T>& v, std::size_t cap) {
  if (v.size() <= cap) return v;
  std::vector<T> out;
  out.reserve(cap);
  const double stride = static_cast<double>(v.size()) / static_cast<double>(cap);
  for (std::size_t i = 0; i < cap; ++i)
    out.push_back(v[static_cast<std::size_t>(static_cast<double>(i) * stride)]);
  return out;
}

}  // namespace perfbench
