#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// ---------------------------------------------------------------------------

void Outcome::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Outcome::fail(std::uint64_t ops, const std::string& why) {
  failed += ops;
  correct = false;
  if (problems.size() < 32) problems.push_back(why);
}

std::string Outcome::json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : metrics) {
    char buf[64];
    // Every digit as measured: %.17g round-trips a double exactly.
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"bgp.decode.ns_per_msg", "ns"},
      {"bgp.decode.allocs_per_msg", "count"},
      {"bgp.update.wall_ns_p50", "ns"},
      {"bgp.update.wall_ns_p99", "ns"},
      {"bgp.decision.wall_ns_p50", "ns"},
      {"bgp.decision.ns_per_route", "ns"},
      {"bgp.decision.candidates_mean", "count"},
      {"bgp.encode.wall_ns_p50", "ns"},
      {"bgp.encode.ns_per_export", "ns"},
      {"bgp.encode.allocs_per_export", "count"},
      {"bgp.encode.cache_hit_ratio", "ratio"},
      {"bgp.attr_pool.intern_hit_ratio", "ratio"},
      {"bgp.attr_pool.sets", "count"},
      {"bgp.groups.count", "count"},
      {"bgp.groups.splices", "count"},
      {"bgp.groups.full_resyncs", "count"},
      {"bgp.groups.log_depth_p99", "count"},
      {"bgp.mrai.flushes", "count"},
      {"bgp.mrai.batch_mean", "count"},
      {"bgp.rib.adj_in_bytes", "bytes"},
      {"bgp.rib.loc_rib_bytes", "bytes"},
      {"bgp.updates_out", "count"},
      {"vbgp.import.nh_rewrites", "count"},
      {"vbgp.import.nh_memo_hit_ratio", "ratio"},
      {"vbgp.fanout.exports", "count"},
      {"vbgp.fib.shared_bytes", "bytes"},
      {"vbgp.fib.flat_bytes", "bytes"},
      {"enforce.control.ns_per_check", "ns"},
      {"enforce.control.accepted", "count"},
      {"enforce.control.transformed", "count"},
      {"enforce.control.rejected", "count"},
      {"enforce.data.ns_per_packet", "ns"},
      {"enforce.data.dropped", "count"},
      {"ip.fib.ns_per_install", "ns"},
      {"ip.fib.allocs_per_install", "count"},
      {"ip.fib.cow_growths", "count"},
      {"ip.lpm.ns_per_lookup", "ns"},
      {"ip.lpm.hit_ratio", "ratio"},
      {"sim.loop.events", "count"},
      {"sim.loop.ns_per_event", "ns"},
      {"sim.stream.ns_per_send", "ns"},
      {"sim.stream.bytes_out", "bytes"},
      {"sim.link.frames_dropped", "count"},
      {"mon.records", "count"},
      {"mon.dropped", "count"},
      {"mon.delivered_share", "ratio"},
      {"ether.frames", "count"},
      {"ether.arp_replies", "count"},
      {"exec.cpu_per_wall", "ratio"},
      {"alloc.per_op", "count"},
      {"alloc.bytes_per_op", "bytes"},
      {"trace.unattributed_share", "ratio"},
      {"trace.overhead_share", "ratio"},
  };
  return kMetrics;
}

void LayerReport::set(const std::string& name, double value) {
  values_[name] = value;
}

double LayerReport::get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void LayerReport::emit(Outcome& out) const {
  for (const auto& [name, unit] : per_layer_metrics())
    out.set(name, get(name), unit);
  for (const auto& [name, value] : values_) {
    bool known = false;
    for (const auto& [n, u] : per_layer_metrics()) known = known || n == name;
    if (!known) out.fail(1, "unknown per-layer metric set: " + name);
  }
}

// ---------------------------------------------------------------------------

std::int64_t SpanLog::now_ns() const {
  return static_cast<std::int64_t>((wall_now() - origin_) * 1e9);
}

std::int32_t SpanLog::begin(std::string_view name, std::int32_t parent,
                            std::uint64_t op) {
  spans_.push_back({std::string(name), now_ns(), 0, parent, op});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::end(std::int32_t span) { spans_[span].end_ns = now_ns(); }

std::int32_t SpanLog::record(std::string_view name, std::int32_t parent,
                             std::uint64_t op, double start_s, double end_s) {
  spans_.push_back({std::string(name),
                    static_cast<std::int64_t>((start_s - origin_) * 1e9),
                    static_cast<std::int64_t>((end_s - origin_) * 1e9), parent,
                    op});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}\n";
  }
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------

FamilyDelta family_delta(const obs::Snapshot& before,
                         const obs::Snapshot& after, std::string_view name) {
  // Signed sums over every label set; instruments only grow, so each
  // after-minus-before difference is non-negative.
  std::int64_t count = 0, sum = 0;
  std::map<std::uint64_t, std::int64_t> buckets;
  FamilyDelta d;
  auto accumulate = [&](const obs::Snapshot& snap, std::int64_t sign) {
    for (const auto& s : snap.series) {
      if (s.name != name) continue;
      if (s.kind != obs::SeriesData::Kind::kHistogram) {
        d.value += sign * s.value;
        continue;
      }
      count += sign * static_cast<std::int64_t>(s.count);
      sum += sign * static_cast<std::int64_t>(s.sum);
      for (const auto& [bound, n] : s.buckets)
        buckets[bound] += sign * static_cast<std::int64_t>(n);
    }
  };
  accumulate(after, 1);
  accumulate(before, -1);
  d.hist.name = std::string(name);
  d.hist.kind = obs::SeriesData::Kind::kHistogram;
  d.hist.count = static_cast<std::uint64_t>(std::max<std::int64_t>(count, 0));
  d.hist.sum = static_cast<std::uint64_t>(std::max<std::int64_t>(sum, 0));
  for (const auto& [bound, n] : buckets)
    if (n > 0) d.hist.buckets.emplace_back(bound, static_cast<std::uint64_t>(n));
  return d;
}

// ---------------------------------------------------------------------------

DriverPeer::DriverPeer(sim::EventLoop* loop,
                       std::shared_ptr<sim::StreamEndpoint> stream,
                       bgp::Asn asn, Ipv4Address router_id, bool addpath)
    : loop_(loop),
      stream_(std::move(stream)),
      asn_(asn),
      router_id_(router_id),
      addpath_(addpath) {
  keepalive_wire_ =
      bgp::encode_message(bgp::KeepaliveMessage{}, bgp::UpdateCodecOptions{});
  stream_->on_data([this](const Bytes& data) { on_bytes(data); });
}

void DriverPeer::on_bytes(const Bytes& data) {
  if (established_) {
    bytes_received_ += data.size();
    return;
  }
  decoder_.feed(data);
  while (!established_) {
    auto result = decoder_.poll();
    if (!result.ok() || !result->has_value()) return;
    if (const auto* remote = std::get_if<bgp::OpenMessage>(&**result)) {
      bgp::OpenMessage open;
      open.asn = asn_;
      open.router_id = router_id_;
      open.add_four_byte_asn(asn_);
      if (addpath_) open.add_addpath_ipv4(bgp::AddPathMode::kBoth);
      stream_->send(bgp::encode_message(open, bgp::UpdateCodecOptions{}));
      stream_->send(keepalive_wire_);
      tx_options_.add_path =
          addpath_ && remote->addpath_ipv4() != bgp::AddPathMode::kNone;
    } else if (std::holds_alternative<bgp::KeepaliveMessage>(**result)) {
      established_ = true;
      schedule_keepalive();
    }
  }
}

void DriverPeer::schedule_keepalive() {
  // Well inside the router's hold time.
  loop_->schedule_after(Duration::seconds(30), [this] {
    if (!stream_->open()) return;
    stream_->send(keepalive_wire_);
    schedule_keepalive();
  });
}

std::unique_ptr<DriverPeer> attach_driver(sim::EventLoop* loop,
                                          bgp::BgpSpeaker& speaker,
                                          bgp::PeerId peer, bgp::Asn asn,
                                          Ipv4Address router_id, bool addpath,
                                          Duration latency) {
  auto streams = sim::StreamChannel::make(loop, latency);
  speaker.connect_peer(peer, streams.a);
  return std::make_unique<DriverPeer>(loop, streams.b, asn, router_id,
                                      addpath);
}

void check_sessions(const bgp::BgpSpeaker& speaker, const std::string& phase,
                    Outcome& result) {
  for (bgp::PeerId peer : speaker.peer_ids()) {
    const auto& stats = speaker.peer_stats(peer);
    if (speaker.session_state(peer) != bgp::SessionState::kEstablished)
      result.fail(1, phase + ": session " + std::to_string(peer) + " is " +
                         bgp::session_state_name(speaker.session_state(peer)));
    if (stats.notifications_sent != 0 || stats.notifications_received != 0)
      result.fail(1, phase + ": NOTIFICATION on session " +
                         std::to_string(peer));
  }
}

Bytes concat(const std::vector<Bytes>& wires, std::size_t begin,
             std::size_t end) {
  std::size_t total = 0;
  for (std::size_t i = begin; i < end; ++i) total += wires[i].size();
  Bytes out;
  out.reserve(total);
  for (std::size_t i = begin; i < end; ++i)
    out.insert(out.end(), wires[i].begin(), wires[i].end());
  return out;
}

void Fingerprint::mix(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

void report_inputs(const Fingerprint& f) {
  std::fprintf(stderr, "perfbench: inputs=%016llx\n",
               static_cast<unsigned long long>(f.value()));
}

double setup_sample_seconds(const Args& args) {
  return 1.0 / static_cast<double>(args.parts);
}

std::size_t setup_count(const Args& args, std::size_t per_run) {
  return std::max<std::size_t>(1, per_run / args.parts);
}

std::size_t scaled(const Args& args, std::size_t n, std::size_t floor) {
  const auto v =
      static_cast<std::size_t>(static_cast<double>(n) * args.scale + 0.5);
  return std::max(floor, v);
}

}  // namespace perfbench
