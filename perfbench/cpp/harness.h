// Shared harness for the repo benchmark: clocks, sample statistics, the
// result document, allocation accounting, benchmark-side spans, and the
// BGP driver peer that feeds or drains a vBGP router over a sim stream.
//
// Measurement rules every workload follows:
//  * inputs are generated from the seed before the set-up clock starts;
//  * sim time advances only in bounded steps (run_for / run_until), never
//    by draining the event loop, which would fast-forward to hold expiry;
//  * inside a timed window receivers count bytes and decode nothing;
//  * oracles run after the timed window, and every mismatch is a failed op.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bgp/message.h"
#include "bgp/speaker.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "sim/stream.h"

namespace perfbench {

using namespace peering;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Multiplies every input size and the traced run's fixed work; the
  /// self-test runs at a small scale.
  double scale = 1.0;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_out;
  /// This process measures one of `parts` shares of a run (run.py starts
  /// one process per share and averages them, so a run samples several
  /// address-space layouts); set-up sampling is divided the same way.
  std::size_t parts = 1;
};

double wall_now();
/// Process CPU time, all threads.
double cpu_now();

/// Samples (times or rates) with nearest-rank quantiles.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t size() const { return values_.size(); }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
};

// ---------------------------------------------------------------------------
// Outcome document

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  /// Oracle findings, printed to stderr (the first few of each kind).
  std::vector<std::string> problems;

  void set(const std::string& name, double value, const std::string& unit);
  void fail(std::uint64_t ops, const std::string& why);
  /// The run's result document, printed as the last stdout line.
  std::string json() const;
};

/// The per-layer metric names and units, in emission order. Every traced
/// run emits all of them; a layer a workload bypasses reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Per-layer values collected by one traced run.
class LayerReport {
 public:
  void set(const std::string& name, double value);
  double get(const std::string& name) const;
  /// Emits every per-layer metric into `out`, unset ones as 0.
  void emit(Outcome& out) const;

 private:
  std::map<std::string, double> values_;
};

// ---------------------------------------------------------------------------
// Allocation accounting (replacement operator new in alloc_count.cpp).

struct AllocCount {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  AllocCount operator-(const AllocCount& o) const {
    return {count - o.count, bytes - o.bytes};
  }
};
/// Counting is off by default so untraced runs pay one relaxed load per
/// allocation and nothing else.
void set_alloc_counting(bool on);
AllocCount alloc_snapshot();

// ---------------------------------------------------------------------------
// Benchmark-side spans: kept in memory, written once at exit as JSONL.

class SpanLog {
 public:
  static constexpr std::int32_t kNoParent = -1;
  /// Opens a span; `op` groups the spans of one measured operation.
  std::int32_t begin(std::string_view name, std::int32_t parent,
                     std::uint64_t op);
  void end(std::int32_t span);
  /// Records a closed span with explicit wall bounds (ns since the log
  /// was created).
  std::int32_t record(std::string_view name, std::int32_t parent,
                      std::uint64_t op, double start_s, double end_s);
  std::size_t size() const { return spans_.size(); }
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = kNoParent;
    std::uint64_t op = 0;
  };
  std::int64_t now_ns() const;
  double origin_ = wall_now();
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// obs registry reading: deltas of one metric family between two snapshots,
// summed over every label set.

struct FamilyDelta {
  std::int64_t value = 0;   // counter / gauge
  obs::SeriesData hist;     // histogram (count/sum/buckets as deltas)
};
FamilyDelta family_delta(const obs::Snapshot& before,
                         const obs::Snapshot& after, std::string_view name);

// ---------------------------------------------------------------------------
// Driver peer

/// Impersonates a BGP neighbor or experiment on a raw stream: answers the
/// router's OPEN, keeps the session alive with periodic KEEPALIVEs, and
/// otherwise only injects pre-encoded UPDATE bytes. Once Established it
/// decodes nothing: inbound bytes are counted, so harness work stays out
/// of every timed window (session health is read from the router side).
class DriverPeer {
 public:
  DriverPeer(sim::EventLoop* loop, std::shared_ptr<sim::StreamEndpoint> stream,
             bgp::Asn asn, Ipv4Address router_id, bool addpath);
  DriverPeer(const DriverPeer&) = delete;
  DriverPeer& operator=(const DriverPeer&) = delete;

  const bgp::UpdateCodecOptions& tx_options() const { return tx_options_; }
  void send(const Bytes& wire) { stream_->send(wire); }
  std::uint64_t bytes_received() const { return bytes_received_; }

 private:
  void on_bytes(const Bytes& data);
  void schedule_keepalive();

  sim::EventLoop* loop_;
  std::shared_ptr<sim::StreamEndpoint> stream_;
  bgp::Asn asn_;
  Ipv4Address router_id_;
  bool addpath_;
  bgp::MessageDecoder decoder_;
  bgp::UpdateCodecOptions tx_options_;
  Bytes keepalive_wire_;
  bool established_ = false;
  std::uint64_t bytes_received_ = 0;
};

/// Connects `peer` on `speaker` to a new DriverPeer over a fresh stream.
std::unique_ptr<DriverPeer> attach_driver(sim::EventLoop* loop,
                                          bgp::BgpSpeaker& speaker,
                                          bgp::PeerId peer, bgp::Asn asn,
                                          Ipv4Address router_id, bool addpath,
                                          Duration latency);

/// Asserts every session of `speaker` is Established and that no
/// NOTIFICATION crossed it; each violation is one failed op.
void check_sessions(const bgp::BgpSpeaker& speaker, const std::string& phase,
                    Outcome& result);

/// Concatenates UPDATE wires [begin, end) into one stream segment.
Bytes concat(const std::vector<Bytes>& wires, std::size_t begin,
             std::size_t end);

/// FNV-1a, for the input fingerprint the self-test compares across seeds.
class Fingerprint {
 public:
  void mix(const void* data, std::size_t n);
  void mix_u64(std::uint64_t v) { mix(&v, sizeof v); }
  void mix_bytes(const Bytes& b) { mix(b.data(), b.size()); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Prints "perfbench: inputs=<hex>" to stderr.
void report_inputs(const Fingerprint& f);

/// Set-ups that take well under a millisecond are repeated for a second
/// per run and setup_s is their median: the host's speed swings over tens
/// of milliseconds, so a short burst of set-ups samples only one state.
/// Returns this process's share of that second.
double setup_sample_seconds(const Args& args);
/// This process's share of `per_run` set-ups, at least one.
std::size_t setup_count(const Args& args, std::size_t per_run);

/// `n` scaled by args.scale, at least `floor`.
std::size_t scaled(const Args& args, std::size_t n, std::size_t floor = 1);

}  // namespace perfbench
