#include "enforce/data_enforcer.h"

namespace peering::enforce {

DataPlaneEnforcer::DataPlaneEnforcer() {
  obs::Registry* metrics = obs::Registry::global();
  obs_passed_ = metrics->counter("enforce_data_packets_passed_total");
  obs_dropped_ = metrics->counter("enforce_data_packets_dropped_total");
}

Status DataPlaneEnforcer::install(const ExperimentGrant& grant) {
  const bool with_rate = grant.traffic_rate_bps > 0;
  auto filter = with_rate
                    ? build_source_check_and_rate_filter(grant.allocated_prefixes)
                    : build_source_check_filter(grant.allocated_prefixes);
  if (!filter) return filter.error();

  std::vector<TokenBucketConfig> buckets;
  if (with_rate) {
    // Bucket measures bytes: rate_bps / 8 bytes per second, 1s burst.
    double bytes_per_sec = static_cast<double>(grant.traffic_rate_bps) / 8.0;
    buckets.push_back({bytes_per_sec, bytes_per_sec});
  }
  install(grant.experiment_id, std::move(*filter), std::move(buckets));
  return Status::Ok();
}

void DataPlaneEnforcer::install(const std::string& experiment_id,
                                PacketFilter filter,
                                std::vector<TokenBucketConfig> buckets) {
  Entry entry;
  entry.filter = std::make_unique<PacketFilter>(std::move(filter));
  entry.state = std::make_unique<FilterState>(std::move(buckets));
  filters_[experiment_id] = std::move(entry);
}

FilterAction DataPlaneEnforcer::check(const std::string& experiment_id,
                                      std::span<const std::uint8_t> packet,
                                      SimTime now) {
  auto it = filters_.find(experiment_id);
  if (it == filters_.end()) {
    ++dropped_;
    obs_dropped_->inc();
    return FilterAction::kDrop;
  }
  FilterAction action = it->second.filter->run(packet, now, *it->second.state);
  if (action == FilterAction::kPass) {
    ++passed_;
    obs_passed_->inc();
  } else {
    ++dropped_;
    obs_dropped_->inc();
  }
  return action;
}

}  // namespace peering::enforce
