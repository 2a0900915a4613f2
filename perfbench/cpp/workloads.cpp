#include "workloads.h"

#include "bench/bench_util.h"

namespace perfbench {

std::unique_ptr<vbgp::VRouter> make_router(
    sim::EventLoop* loop, enforce::ControlPlaneEnforcer& control,
    enforce::DataPlaneEnforcer& data,
    const std::vector<enforce::ExperimentGrant>& grants,
    bgp::PipelineConfig pipeline, Outcome& result) {
  vbgp::VRouterConfig rc;
  rc.name = "pop1";
  rc.pop_id = "pop1";
  rc.router_id = Ipv4Address(10, 255, 0, 1);
  rc.pipeline = pipeline;
  auto router = std::make_unique<vbgp::VRouter>(loop, rc);
  control.install_default_rules({vbgp::kWhitelistAsn, vbgp::kBlacklistAsn});
  router->set_control_enforcer(&control);
  router->set_data_enforcer(&data);
  for (const auto& g : grants) {
    control.set_grant(g);
    if (!data.install(g).ok()) result.fail(1, "data filter install");
  }
  return router;
}

Meter::Meter(Phase& phase, std::size_t chunk, std::size_t window,
             std::function<std::uint64_t()> delivered)
    : phase_(phase),
      chunk_(chunk),
      delivered_(std::move(delivered)),
      window_size_(window) {
  open();
}

namespace {

void close_window(Phase& phase) {
  if (phase.window.size() >= Meter::kMinWindow) {
    phase.window_p50.add(phase.window.quantile(0.50));
    phase.window_p99.add(phase.window.quantile(0.99));
  }
  phase.window = Samples();
}

}  // namespace

void Meter::open() {
  bursts_ = 0;
  wall_ = 0;
  ops_ = 0;
  cpu0_ = cpu_now();
  delivered0_ = delivered_();
}

void Meter::close() {
  const double cpu = cpu_now() - cpu0_;
  const std::uint64_t delivered = delivered_() - delivered0_;
  phase_.cpu += cpu;
  phase_.delivered += delivered;
  if (bursts_ * 2 >= chunk_ && wall_ > 0 && ops_ > 0) {
    phase_.op_rate.add(static_cast<double>(ops_) / wall_);
    phase_.export_rate.add(static_cast<double>(delivered) / wall_);
    phase_.cpu_per_op.add(cpu / static_cast<double>(ops_));
  }
}

void Meter::burst(double t0, double t1, std::uint64_t ops) {
  phase_.bursts.add(t1 - t0);
  phase_.wall += t1 - t0;
  phase_.ops += ops;
  wall_ += t1 - t0;
  ops_ += ops;
  phase_.window.add(t1 - t0);
  if (phase_.window.size() == window_size_) close_window(phase_);
  if (++bursts_ == chunk_) {
    close();
    open();
  }
}

void Meter::finish() { close(); }

void mark_peak_rss(Phase& phase) {
  if (phase.peak_rss_mb < 0)
    phase.peak_rss_mb =
        static_cast<double>(benchutil::peak_rss_bytes()) / (1024.0 * 1024.0);
}

void emit_end_to_end(Phase& phase, const Samples& setups, Outcome& result) {
  close_window(phase);
  result.set("setup_s", setups.median(), "s");
  result.set("ops_per_s", phase.op_rate.median(), "1/s");
  result.set("exports_per_s", phase.export_rate.median(), "1/s");
  result.set("burst_p50_ms", phase.window_p50.median() * 1e3, "ms");
  result.set("burst_p99_ms", phase.window_p99.median() * 1e3, "ms");
  result.set("cpu_us_per_op", phase.cpu_per_op.median() * 1e6, "us");
  mark_peak_rss(phase);
  result.set("peak_rss_mb", phase.peak_rss_mb, "MB");
  std::fprintf(stderr,
               "perfbench: %zu set-ups, s: q25 %.6f q50 %.6f q75 %.6f\n",
               setups.size(), setups.quantile(0.25), setups.quantile(0.5),
               setups.quantile(0.75));
  std::fprintf(stderr,
               "perfbench: chunk ops/s min %.0f q25 %.0f q50 %.0f q75 %.0f "
               "max %.0f\n",
               phase.op_rate.quantile(0), phase.op_rate.quantile(0.25),
               phase.op_rate.quantile(0.5), phase.op_rate.quantile(0.75),
               phase.op_rate.quantile(1));
  // A percentile is only kept when at least ten samples lie beyond it:
  // windows hold at least Meter::kMinWindow bursts.
  if (phase.window_p99.size() == 0)
    std::fprintf(stderr, "perfbench: warning: no window long enough for a p99\n");
  std::fprintf(stderr,
               "perfbench: %zu bursts in %zu chunks and %zu windows "
               "(run-wide p50 %.4f ms, p99 %.4f ms), %zu setups, %llu ops, "
               "%llu delivered, %.3f s measured\n",
               phase.bursts.size(), phase.op_rate.size(),
               phase.window_p99.size(), phase.bursts.quantile(0.5) * 1e3,
               phase.bursts.quantile(0.99) * 1e3, setups.size(),
               static_cast<unsigned long long>(phase.ops),
               static_cast<unsigned long long>(phase.delivered), phase.wall);
}

namespace {

/// Read from the router and its speaker at the start and end of a traced
/// measured phase.
struct RouterProbe {
  obs::Snapshot snap;
  bgp::AttrPool::Stats pool;
  std::uint64_t accepted = 0, transformed = 0, rejected = 0;
  std::uint64_t data_dropped = 0;
};

RouterProbe probe_router(obs::Registry& registry, vbgp::VRouter& router,
                         const enforce::ControlPlaneEnforcer& control,
                         const enforce::DataPlaneEnforcer& data) {
  RouterProbe p;
  obs::SnapshotOptions opts;
  opts.include_timing = true;
  p.snap = registry.snapshot(SimTime(), opts);
  p.pool = router.speaker().attr_pool().stats();
  p.accepted = control.accepted();
  p.transformed = control.transformed();
  p.rejected = control.rejected();
  p.data_dropped = data.packets_dropped();
  return p;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Fills the [obs] and [count] per-layer metrics of one router.
void fill_router_layers(const RouterProbe& before, const RouterProbe& after,
                        vbgp::VRouter& router, LayerReport& layers) {
  auto delta = [&](std::string_view name) {
    return family_delta(before.snap, after.snap, name);
  };
  auto count = [&](std::string_view name) {
    return static_cast<double>(delta(name).value);
  };
  auto hist_q = [&](std::string_view name, double q) {
    return static_cast<double>(delta(name).hist.quantile(q));
  };

  layers.set("bgp.update.wall_ns_p50", hist_q("bgp_update_processing_wall_ns", 0.5));
  layers.set("bgp.update.wall_ns_p99", hist_q("bgp_update_processing_wall_ns", 0.99));
  layers.set("bgp.decision.wall_ns_p50", hist_q("bgp_pipeline_decision_wall_ns", 0.5));
  layers.set("bgp.encode.wall_ns_p50", hist_q("bgp_pipeline_encode_wall_ns", 0.5));

  const double enc_hits =
      static_cast<double>(after.pool.encode_hits - before.pool.encode_hits);
  const double enc_misses =
      static_cast<double>(after.pool.encode_misses - before.pool.encode_misses);
  layers.set("bgp.encode.cache_hit_ratio",
             ratio(enc_hits, enc_hits + enc_misses));
  const double int_hits =
      static_cast<double>(after.pool.intern_hits - before.pool.intern_hits);
  const double int_misses =
      static_cast<double>(after.pool.intern_misses - before.pool.intern_misses);
  layers.set("bgp.attr_pool.intern_hit_ratio",
             ratio(int_hits, int_hits + int_misses));

  bgp::BgpSpeaker& speaker = router.speaker();
  layers.set("bgp.attr_pool.sets",
             static_cast<double>(speaker.attr_pool().size()));
  layers.set("bgp.groups.count",
             static_cast<double>(speaker.export_group_count()));
  layers.set("bgp.groups.splices", count("bgp_export_group_splices_total"));
  layers.set("bgp.groups.full_resyncs", count("bgp_export_full_resyncs_total"));
  layers.set("bgp.groups.log_depth_p99", hist_q("bgp_export_group_log_depth", 0.99));
  const obs::SeriesData flush = delta("bgp_mrai_flush_batch").hist;
  layers.set("bgp.mrai.flushes", static_cast<double>(flush.count));
  layers.set("bgp.mrai.batch_mean", ratio(static_cast<double>(flush.sum),
                                          static_cast<double>(flush.count)));

  std::size_t adj_in = 0;
  for (bgp::PeerId peer : speaker.peer_ids())
    adj_in += speaker.adj_rib_in(peer).memory_bytes();
  layers.set("bgp.rib.adj_in_bytes", static_cast<double>(adj_in));
  layers.set("bgp.rib.loc_rib_bytes",
             static_cast<double>(speaker.loc_rib().memory_bytes()));
  layers.set("bgp.updates_out", count("bgp_updates_out_total"));

  const double rewrites = count("vbgp_nh_rewrites_total");
  const double memo_hits = count("vbgp_nh_memo_hits_total");
  layers.set("vbgp.import.nh_rewrites", rewrites);
  layers.set("vbgp.import.nh_memo_hit_ratio",
             ratio(memo_hits, memo_hits + rewrites));
  layers.set("vbgp.fanout.exports", count("vbgp_addpath_fanout_exports_total"));
  const vbgp::FibAccounting fa = router.fib_accounting();
  layers.set("vbgp.fib.shared_bytes", static_cast<double>(fa.shared_bytes));
  layers.set("vbgp.fib.flat_bytes", static_cast<double>(fa.flat_bytes));

  layers.set("enforce.control.accepted",
             static_cast<double>(after.accepted - before.accepted));
  layers.set("enforce.control.transformed",
             static_cast<double>(after.transformed - before.transformed));
  layers.set("enforce.control.rejected",
             static_cast<double>(after.rejected - before.rejected));
  layers.set("enforce.data.dropped",
             static_cast<double>(after.data_dropped - before.data_dropped));
  layers.set("ip.fib.cow_growths", count("fib_cow_slot_growth_total"));
  layers.set("sim.link.frames_dropped", count("sim_link_frames_dropped_total"));

  const double records = count("mon_records_total");
  const double dropped = count("mon_records_dropped_total");
  layers.set("mon.records", records);
  layers.set("mon.dropped", dropped);
  layers.set("mon.delivered_share", ratio(records, records + dropped));
  layers.set("ether.arp_replies", count("vbgp_arp_virtual_replies_total"));
}

}  // namespace

AllocCount trace_measured(obs::Registry& registry, vbgp::VRouter& router,
                          const enforce::ControlPlaneEnforcer& control,
                          const enforce::DataPlaneEnforcer& data,
                          const std::function<std::uint64_t()>& bytes_out,
                          const std::function<void(std::int32_t)>& measure,
                          SpanLog& spans, std::int32_t root,
                          LayerReport& layers) {
  const RouterProbe before = probe_router(registry, router, control, data);
  const std::uint64_t bytes0 = bytes_out();
  set_alloc_counting(true);
  const AllocCount a0 = alloc_snapshot();
  const std::int32_t measured = spans.begin("measured", root, 0);
  measure(measured);
  spans.end(measured);
  const AllocCount allocs = alloc_snapshot() - a0;
  const RouterProbe after = probe_router(registry, router, control, data);
  fill_router_layers(before, after, router, layers);
  layers.set("sim.stream.bytes_out",
             static_cast<double>(bytes_out() - bytes0));
  return allocs;
}

void fill_phase_layers(const Phase& traced, double untraced_ops_per_s,
                       const AllocCount& allocs,
                       const std::vector<LedgerEntry>& ledger,
                       LayerReport& layers) {
  const double wall = traced.wall > 0 ? traced.wall : 1e-9;
  const double ops = static_cast<double>(std::max<std::uint64_t>(traced.ops, 1));
  double attributed = 0;
  for (const auto& e : ledger)
    attributed += e.cost.ns_per_op * 1e-9 * e.ops_in_phase;
  layers.set("trace.unattributed_share", 1.0 - attributed / wall);
  const double traced_ops_per_s = static_cast<double>(traced.ops) / wall;
  layers.set("trace.overhead_share",
             untraced_ops_per_s > 0
                 ? 1.0 - traced_ops_per_s / untraced_ops_per_s
                 : 0.0);
  layers.set("exec.cpu_per_wall", traced.cpu / wall);
  layers.set("sim.loop.events", static_cast<double>(traced.events));
  layers.set("sim.loop.ns_per_event",
             traced.events == 0
                 ? 0.0
                 : wall * 1e9 / static_cast<double>(traced.events));
  layers.set("alloc.per_op", static_cast<double>(allocs.count) / ops);
  layers.set("alloc.bytes_per_op", static_cast<double>(allocs.bytes) / ops);
}

void finish_trace(const Args& args, SpanLog& spans, std::int32_t root,
                  const LayerReport& layers, Outcome& result) {
  spans.end(root);
  if (!args.trace_out.empty() && !spans.write(args.trace_out))
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 args.trace_out.c_str());
  layers.emit(result);
}

}  // namespace perfbench
