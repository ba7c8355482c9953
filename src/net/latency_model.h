// Link-latency models for the simulated network.
#pragma once

#include <memory>
#include <vector>

#include "src/crypto/signature.h"
#include "src/sim/time.h"
#include "src/util/check.h"

namespace optilog {

// Maps (sender, receiver) to a one-way delay. Implementations must be
// symmetric for correct replicas; Byzantine perturbation is layered on top
// by the Network's fault model, not here.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  virtual SimTime OneWay(ReplicaId from, ReplicaId to) const = 0;
  SimTime Rtt(ReplicaId a, ReplicaId b) const { return OneWay(a, b) + OneWay(b, a); }
};

// Latencies derived from a city assignment, city-deduplicated: actors far
// outnumber distinct cities (the dataset has 220 locations), so the delay
// table is u×u over unique cities — a few hundred KB that stays
// cache-resident at n = 5000, where a per-actor matrix would be hundreds of
// MB of redundant trig. A lookup, Multicast's per destination included, is
// two indexed loads.
class GeoLatencyModel : public LatencyModel {
 public:
  // Actor i lives in unique city city_index[i]; `city_rtt_ms` is the u×u
  // CityRttTableMs of the unique cities (u = stride), the table a deployment
  // also gives its latency matrix. One-way is half the RTT.
  GeoLatencyModel(std::vector<uint32_t> city_index, const std::vector<double>& city_rtt_ms,
                  size_t stride);

  SimTime OneWay(ReplicaId from, ReplicaId to) const override {
    OL_CHECK(from < city_index_.size() && to < city_index_.size());
    if (from == to) {
      return 0;
    }
    return city_one_way_[city_index_[from] * stride_ + city_index_[to]];
  }

 private:
  std::vector<uint32_t> city_index_;    // actor -> unique city
  std::vector<SimTime> city_one_way_;   // u×u; diagonal = colocated delay
  size_t stride_ = 0;
};

}  // namespace optilog
