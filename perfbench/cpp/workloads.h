// The four workloads. Each runs either untraced (end-to-end metrics, work
// bounded by --seconds of measured wall time) or traced (per-layer
// metrics, a fixed amount of work so its counts repeat per seed).
#pragma once

#include <functional>

#include "harness.h"
#include "replay.h"
#include "enforce/data_enforcer.h"
#include "vbgp/vrouter.h"

namespace perfbench {

Outcome run_table_load(const Args& args);
Outcome run_churn_fanout(const Args& args);
Outcome run_experiment_announce(const Args& args);
Outcome run_forward(const Args& args);

/// The router under test ("pop1", AS 47065) with the standard control
/// rule chain and the data-plane filters installed, and `grants`
/// registered with both.
std::unique_ptr<vbgp::VRouter> make_router(
    sim::EventLoop* loop, enforce::ControlPlaneEnforcer& control,
    enforce::DataPlaneEnforcer& data,
    const std::vector<enforce::ExperimentGrant>& grants,
    bgp::PipelineConfig pipeline, Outcome& result);

/// Measured-phase totals every workload reports the same way.
struct Phase {
  Samples bursts;          // wall seconds per burst / event instant
  double wall = 0;         // sum of timed bursts
  double cpu = 0;          // process CPU over the measured phase
  std::uint64_t ops = 0;   // inbound UPDATEs or packets
  std::uint64_t delivered = 0;  // UPDATEs or frames delivered downstream
  std::uint64_t events = 0;     // sim events executed
  /// Per-chunk rates (a chunk is a fixed number of consecutive bursts)
  /// and per-window burst-time quantiles (a window is at least 1,000
  /// bursts, so its p99 has ten samples beyond it). The end-to-end values
  /// are their medians, so a transient slowdown of the host moves a few
  /// chunks or windows, not the reported value.
  Samples op_rate, export_rate, cpu_per_op;
  Samples window_p50, window_p99;
  Samples window;  // the open window; it may span several Meters
  /// VmHWM in MB, read by mark_peak_rss after a fixed amount of work, so
  /// that a faster router (more work done in --seconds) does not read as
  /// a bigger one; emit_end_to_end reads it if the run never got there.
  double peak_rss_mb = -1;
};

/// Records the process's peak RSS in `phase` (the first call only).
void mark_peak_rss(Phase& phase);

/// Records a measured phase burst by burst, closing a chunk every `chunk`
/// bursts and a quantile window every `window` bursts; emit_end_to_end
/// closes the last window. `delivered` reads the running downstream count;
/// it and the CPU clock are read only at chunk boundaries.
class Meter {
 public:
  static constexpr std::size_t kMinWindow = 1000;
  Meter(Phase& phase, std::size_t chunk, std::size_t window,
        std::function<std::uint64_t()> delivered);
  /// One timed burst [t0, t1] that carried `ops` operations.
  void burst(double t0, double t1, std::uint64_t ops);
  /// Closes the last chunk (counted if it holds half a chunk of bursts).
  void finish();

 private:
  void open();
  void close();

  Phase& phase_;
  std::size_t chunk_;
  std::function<std::uint64_t()> delivered_;
  std::size_t bursts_ = 0;
  double wall_ = 0;
  std::uint64_t ops_ = 0;
  double cpu0_ = 0;
  std::uint64_t delivered0_ = 0;
  std::size_t window_size_;
};

/// End-to-end metrics from an untraced measured phase.
void emit_end_to_end(Phase& phase, const Samples& setups, Outcome& result);

/// The traced measured phase, the same for every workload: `measure` runs
/// it under a "measured" span (its argument) below `root`, with
/// allocation counting switched on (it stays on for the replays that
/// follow). The router's obs registry, attribute pool and enforcer
/// counters are read before and after, and give its [obs] and [count]
/// per-layer metrics; `bytes_out` reads the downstream byte count, which
/// gives sim.stream.bytes_out. Returns the phase's allocations.
AllocCount trace_measured(obs::Registry& registry, vbgp::VRouter& router,
                          const enforce::ControlPlaneEnforcer& control,
                          const enforce::DataPlaneEnforcer& data,
                          const std::function<std::uint64_t()>& bytes_out,
                          const std::function<void(std::int32_t)>& measure,
                          SpanLog& spans, std::int32_t root,
                          LayerReport& layers);

/// Per-operation costs from the replays, multiplied by how often the
/// traced phase performed each operation, for the time ledger.
struct LedgerEntry {
  ReplayCost cost;
  double ops_in_phase = 0;
};
/// Sets trace.unattributed_share, trace.overhead_share, exec.cpu_per_wall,
/// sim.loop.*, alloc.* from the traced phase.
void fill_phase_layers(const Phase& traced, double untraced_ops_per_s,
                       const AllocCount& allocs,
                       const std::vector<LedgerEntry>& ledger,
                       LayerReport& layers);

/// Closes the root span, writes the spans to --trace-out, and emits every
/// per-layer metric into `result`.
void finish_trace(const Args& args, SpanLog& spans, std::int32_t root,
                  const LayerReport& layers, Outcome& result);

}  // namespace perfbench
