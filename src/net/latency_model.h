// Link-latency models for the simulated network.
#pragma once

#include <memory>
#include <vector>

#include "src/crypto/signature.h"
#include "src/net/geo.h"
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

// Latencies derived from a city assignment (replica i lives in cities[i]).
// Internally city-deduplicated: actors far outnumber distinct cities (the
// dataset has 220 locations), so the delay table is u×u over unique cities
// — a few hundred KB that stays cache-resident at n = 5000, where a
// per-actor matrix would be hundreds of MB of redundant trig. A lookup,
// Multicast's per destination included, is two indexed loads.
class GeoLatencyModel : public LatencyModel {
 public:
  explicit GeoLatencyModel(std::vector<City> cities);

  SimTime OneWay(ReplicaId from, ReplicaId to) const override {
    OL_CHECK(from < city_index_.size() && to < city_index_.size());
    if (from == to) {
      return 0;
    }
    return city_one_way_[city_index_[from] * stride_ + city_index_[to]];
  }

  size_t size() const { return cities_.size(); }
  const City& city(ReplicaId id) const { return cities_.at(id); }
  const std::vector<City>& cities() const { return cities_; }

 private:
  std::vector<City> cities_;
  std::vector<uint32_t> city_index_;    // actor -> unique city
  std::vector<SimTime> city_one_way_;   // u×u; diagonal = colocated delay
  size_t stride_ = 0;
};

}  // namespace optilog
