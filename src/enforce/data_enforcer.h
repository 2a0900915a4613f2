// Data-plane enforcement engine: compiles and runs per-experiment packet
// filters (source-address verification + rate limiting) at the vBGP data
// plane. Runs "in an isolated container" in the authors' deployment; here
// it is an object the vBGP router consults for every experiment frame.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "enforce/capabilities.h"
#include "enforce/packet_filter.h"
#include "obs/metrics.h"

namespace peering::enforce {

class DataPlaneEnforcer {
 public:
  DataPlaneEnforcer();

  /// Installs (or replaces) the filter for an experiment, compiled from its
  /// grant: source addresses must fall inside the allocation; when the
  /// grant carries a traffic_rate_bps, bytes are metered against a token
  /// bucket of that rate with a 1-second burst.
  Status install(const ExperimentGrant& grant);

  /// Installs (or replaces) a hand-written filter for an experiment, with
  /// the token buckets its program consumes from.
  void install(const std::string& experiment_id, PacketFilter filter,
               std::vector<TokenBucketConfig> buckets);

  void remove(const std::string& experiment_id) {
    filters_.erase(experiment_id);
  }

  /// Checks one packet from `experiment_id`. Unknown experiments fail
  /// closed (drop).
  FilterAction check(const std::string& experiment_id,
                     std::span<const std::uint8_t> packet, SimTime now);

  std::uint64_t packets_passed() const { return passed_; }
  std::uint64_t packets_dropped() const { return dropped_; }

 private:
  struct Entry {
    std::unique_ptr<PacketFilter> filter;
    std::unique_ptr<FilterState> state;
  };
  std::map<std::string, Entry> filters_;
  std::uint64_t passed_ = 0;
  std::uint64_t dropped_ = 0;
  obs::Counter* obs_passed_;
  obs::Counter* obs_dropped_;
};

}  // namespace peering::enforce
