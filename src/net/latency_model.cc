#include "src/net/latency_model.h"

namespace optilog {

GeoLatencyModel::GeoLatencyModel(std::vector<City> cities)
    : cities_(std::move(cities)) {
  CityIndex ci = DedupeCities(cities_);
  city_index_ = std::move(ci.index_of);
  const size_t u = ci.unique.size();
  stride_ = u;
  city_one_way_.assign(u * u, 0);
  for (size_t i = 0; i < u; ++i) {
    for (size_t j = 0; j < u; ++j) {
      // One-way is half the modeled RTT. The diagonal is the colocated
      // (same city, distinct actor) delay; OneWay() special-cases from==to
      // to 0, so the i==j entry is never read for a self-pair.
      city_one_way_[i * u + j] = FromMs(CityRttMs(ci.unique[i], ci.unique[j]) / 2.0);
    }
  }
}

}  // namespace optilog
