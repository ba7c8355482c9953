// Geographic latency dataset.
//
// The paper's network emulator uses 220 WonderProxy city locations with
// intercontinental RTTs of 150-250 ms plus a 1 ms base delay. WonderProxy's
// dataset is proprietary, so we substitute an embedded table of world cities
// with real coordinates and derive RTTs from great-circle distance:
//
//   rtt_ms(a, b) = 1.0 + 0.015 * haversine_km(a, b)
//
// 0.015 ms/km models light in fiber (~200 km/ms one-way) with a 1.5x path
// stretch. This preserves what the evaluation needs: intercontinental RTTs
// in the 150-250 ms band, much smaller intra-continent RTTs, and a
// non-uniform, metric-like latency matrix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace optilog {

enum class Region : uint8_t {
  kEurope,
  kNorthAmerica,
  kSouthAmerica,
  kAsia,
  kAfrica,
  kOceania,
};

struct City {
  std::string name;
  double lat = 0.0;
  double lon = 0.0;
  Region region = Region::kEurope;
};

// Great-circle distance in kilometers.
double HaversineKm(double lat1, double lon1, double lat2, double lon2);

// Round-trip time between two cities in milliseconds (see file comment).
double CityRttMs(const City& a, const City& b);

// Full 220-location dataset (WonderProxy substitute). Deterministic:
// ~130 real cities plus jittered satellite locations to reach 220.
const std::vector<City>& WorldCities();

// City subsets used by the paper's experiments. Counts match §7:
// Europe21 (21 EU cities), NaEu43 (Europe + North America), Global73
// (worldwide), Stellar56 (Stellar validator locations mapped to cities).
std::vector<City> Europe21();
std::vector<City> NaEu43();
std::vector<City> Global73();
std::vector<City> Stellar56();

// First `n` cities drawn round-robin across regions — used for arbitrary-n
// sweeps (Figs. 10, 12, 14 use "randomly distributed across the world").
std::vector<City> GlobalN(size_t n, uint64_t seed = 42);

// CityRttMs between every ordered pair of `cities`, row-major u×u, the
// colocated RTT on the diagonal. The names must be distinct (DedupeCities's
// `unique`): then only the diagonal is a same-name pair, and since
// CityRttMs is bitwise symmetric each unordered pair is computed once.
std::vector<double> CityRttTableMs(const std::vector<City>& cities);

// Deduplicated view of a city assignment. Replica lists are drawn from the
// 220-location dataset with wrap-around (and clients colocate with their
// replica), so an n-actor deployment names at most 220 distinct cities;
// anything quadratic in actors — latency tables, probe matrices — should be
// quadratic in *unique* cities instead and expanded through `index_of`.
struct CityIndex {
  std::vector<City> unique;        // distinct cities, in first-seen order
  std::vector<uint32_t> index_of;  // parallel to the input list
};
CityIndex DedupeCities(const std::vector<City>& cities);

// Geo placement for a client fleet: appends `clients` client locations to
// the replica city list, colocating client i with replica (i % replicas).
// The returned list is what the latency model covers so client <-> replica
// deliveries resolve for ids replicas .. replicas + clients - 1.
std::vector<City> WithColocatedClients(std::vector<City> replicas,
                                       size_t clients);

}  // namespace optilog
