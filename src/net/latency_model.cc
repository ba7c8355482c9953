#include "src/net/latency_model.h"

namespace optilog {

GeoLatencyModel::GeoLatencyModel(std::vector<uint32_t> city_index,
                                 const std::vector<double>& city_rtt_ms, size_t stride)
    : city_index_(std::move(city_index)), stride_(stride) {
  OL_CHECK(city_rtt_ms.size() == stride * stride);
  // The diagonal is the colocated (same city, distinct actor) delay;
  // OneWay() special-cases from == to to 0, so it is never read for a
  // self-pair.
  city_one_way_.reserve(city_rtt_ms.size());
  for (const double rtt : city_rtt_ms) {
    city_one_way_.push_back(FromMs(rtt / 2.0));
  }
}

}  // namespace optilog
