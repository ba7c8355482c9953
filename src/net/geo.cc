#include "src/net/geo.h"

#include <cmath>
#include <unordered_map>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace optilog {
namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kEarthRadiusKm = 6371.0;

// Real-world anchor cities. Coordinates are approximate (city centers,
// +-0.1 degree), which is far below the resolution the latency model needs.
const City kAnchors[] = {
    // Europe (the first 21 form the paper's Europe21 set; Nuremberg is
    // included because Fig. 7's client lives there).
    {"Nuremberg", 49.45, 11.08, Region::kEurope},
    {"London", 51.51, -0.13, Region::kEurope},
    {"Paris", 48.86, 2.35, Region::kEurope},
    {"Berlin", 52.52, 13.41, Region::kEurope},
    {"Madrid", 40.42, -3.70, Region::kEurope},
    {"Rome", 41.89, 12.48, Region::kEurope},
    {"Amsterdam", 52.37, 4.90, Region::kEurope},
    {"Brussels", 50.85, 4.35, Region::kEurope},
    {"Vienna", 48.21, 16.37, Region::kEurope},
    {"Prague", 50.08, 14.44, Region::kEurope},
    {"Warsaw", 52.23, 21.01, Region::kEurope},
    {"Stockholm", 59.33, 18.07, Region::kEurope},
    {"Oslo", 59.91, 10.75, Region::kEurope},
    {"Copenhagen", 55.68, 12.57, Region::kEurope},
    {"Helsinki", 60.17, 24.94, Region::kEurope},
    {"Dublin", 53.35, -6.26, Region::kEurope},
    {"Lisbon", 38.72, -9.14, Region::kEurope},
    {"Zurich", 47.38, 8.54, Region::kEurope},
    {"Athens", 37.98, 23.73, Region::kEurope},
    {"Budapest", 47.50, 19.04, Region::kEurope},
    {"Bucharest", 44.43, 26.10, Region::kEurope},
    {"Milan", 45.46, 9.19, Region::kEurope},
    {"Barcelona", 41.39, 2.17, Region::kEurope},
    {"Munich", 48.14, 11.58, Region::kEurope},
    {"Frankfurt", 50.11, 8.68, Region::kEurope},
    {"Hamburg", 53.55, 9.99, Region::kEurope},
    {"Geneva", 46.20, 6.14, Region::kEurope},
    {"Lyon", 45.76, 4.84, Region::kEurope},
    {"Marseille", 43.30, 5.37, Region::kEurope},
    {"Edinburgh", 55.95, -3.19, Region::kEurope},
    {"Manchester", 53.48, -2.24, Region::kEurope},
    {"Sofia", 42.70, 23.32, Region::kEurope},
    {"Belgrade", 44.79, 20.45, Region::kEurope},
    {"Zagreb", 45.81, 15.98, Region::kEurope},
    {"Kyiv", 50.45, 30.52, Region::kEurope},
    {"Riga", 56.95, 24.11, Region::kEurope},
    {"Vilnius", 54.69, 25.28, Region::kEurope},
    {"Tallinn", 59.44, 24.75, Region::kEurope},
    {"Reykjavik", 64.15, -21.94, Region::kEurope},
    {"Istanbul", 41.01, 28.98, Region::kEurope},
    // North America.
    {"New York", 40.71, -74.01, Region::kNorthAmerica},
    {"Boston", 42.36, -71.06, Region::kNorthAmerica},
    {"Washington", 38.91, -77.04, Region::kNorthAmerica},
    {"Atlanta", 33.75, -84.39, Region::kNorthAmerica},
    {"Miami", 25.76, -80.19, Region::kNorthAmerica},
    {"Chicago", 41.88, -87.63, Region::kNorthAmerica},
    {"Dallas", 32.78, -96.80, Region::kNorthAmerica},
    {"Houston", 29.76, -95.37, Region::kNorthAmerica},
    {"Denver", 39.74, -104.99, Region::kNorthAmerica},
    {"Phoenix", 33.45, -112.07, Region::kNorthAmerica},
    {"Los Angeles", 34.05, -118.24, Region::kNorthAmerica},
    {"San Francisco", 37.77, -122.42, Region::kNorthAmerica},
    {"Seattle", 47.61, -122.33, Region::kNorthAmerica},
    {"Portland", 45.52, -122.68, Region::kNorthAmerica},
    {"San Diego", 32.72, -117.16, Region::kNorthAmerica},
    {"Salt Lake City", 40.76, -111.89, Region::kNorthAmerica},
    {"Minneapolis", 44.98, -93.27, Region::kNorthAmerica},
    {"St. Louis", 38.63, -90.20, Region::kNorthAmerica},
    {"Kansas City", 39.10, -94.58, Region::kNorthAmerica},
    {"Detroit", 42.33, -83.05, Region::kNorthAmerica},
    {"Philadelphia", 39.95, -75.17, Region::kNorthAmerica},
    {"Charlotte", 35.23, -80.84, Region::kNorthAmerica},
    {"Toronto", 43.65, -79.38, Region::kNorthAmerica},
    {"Montreal", 45.50, -73.57, Region::kNorthAmerica},
    {"Vancouver", 49.28, -123.12, Region::kNorthAmerica},
    {"Calgary", 51.05, -114.07, Region::kNorthAmerica},
    {"Ottawa", 45.42, -75.70, Region::kNorthAmerica},
    {"Mexico City", 19.43, -99.13, Region::kNorthAmerica},
    {"Guadalajara", 20.67, -103.35, Region::kNorthAmerica},
    {"Monterrey", 25.69, -100.32, Region::kNorthAmerica},
    // South America.
    {"Sao Paulo", -23.55, -46.63, Region::kSouthAmerica},
    {"Rio de Janeiro", -22.91, -43.17, Region::kSouthAmerica},
    {"Buenos Aires", -34.60, -58.38, Region::kSouthAmerica},
    {"Santiago", -33.45, -70.67, Region::kSouthAmerica},
    {"Lima", -12.05, -77.04, Region::kSouthAmerica},
    {"Bogota", 4.71, -74.07, Region::kSouthAmerica},
    {"Quito", -0.18, -78.47, Region::kSouthAmerica},
    {"Caracas", 10.48, -66.90, Region::kSouthAmerica},
    {"Montevideo", -34.90, -56.16, Region::kSouthAmerica},
    {"Brasilia", -15.79, -47.88, Region::kSouthAmerica},
    // Asia & Middle East.
    {"Tokyo", 35.68, 139.69, Region::kAsia},
    {"Osaka", 34.69, 135.50, Region::kAsia},
    {"Seoul", 37.57, 126.98, Region::kAsia},
    {"Beijing", 39.90, 116.41, Region::kAsia},
    {"Shanghai", 31.23, 121.47, Region::kAsia},
    {"Shenzhen", 22.54, 114.06, Region::kAsia},
    {"Hong Kong", 22.32, 114.17, Region::kAsia},
    {"Taipei", 25.03, 121.57, Region::kAsia},
    {"Singapore", 1.35, 103.82, Region::kAsia},
    {"Kuala Lumpur", 3.14, 101.69, Region::kAsia},
    {"Bangkok", 13.76, 100.50, Region::kAsia},
    {"Jakarta", -6.21, 106.85, Region::kAsia},
    {"Manila", 14.60, 120.98, Region::kAsia},
    {"Ho Chi Minh City", 10.82, 106.63, Region::kAsia},
    {"Hanoi", 21.03, 105.85, Region::kAsia},
    {"Mumbai", 19.08, 72.88, Region::kAsia},
    {"Delhi", 28.70, 77.10, Region::kAsia},
    {"Bangalore", 12.97, 77.59, Region::kAsia},
    {"Chennai", 13.08, 80.27, Region::kAsia},
    {"Hyderabad", 17.39, 78.49, Region::kAsia},
    {"Karachi", 24.86, 67.00, Region::kAsia},
    {"Dhaka", 23.81, 90.41, Region::kAsia},
    {"Tel Aviv", 32.09, 34.78, Region::kAsia},
    {"Dubai", 25.20, 55.27, Region::kAsia},
    {"Riyadh", 24.71, 46.68, Region::kAsia},
    {"Doha", 25.29, 51.53, Region::kAsia},
    {"Almaty", 43.22, 76.85, Region::kAsia},
    {"Tashkent", 41.30, 69.24, Region::kAsia},
    {"Tbilisi", 41.72, 44.79, Region::kAsia},
    // Africa.
    {"Cairo", 30.04, 31.24, Region::kAfrica},
    {"Lagos", 6.52, 3.38, Region::kAfrica},
    {"Nairobi", -1.29, 36.82, Region::kAfrica},
    {"Johannesburg", -26.20, 28.05, Region::kAfrica},
    {"Cape Town", -33.92, 18.42, Region::kAfrica},
    {"Casablanca", 33.57, -7.59, Region::kAfrica},
    {"Accra", 5.60, -0.19, Region::kAfrica},
    {"Addis Ababa", 9.02, 38.75, Region::kAfrica},
    {"Tunis", 36.81, 10.18, Region::kAfrica},
    {"Algiers", 36.75, 3.06, Region::kAfrica},
    // Oceania.
    {"Sydney", -33.87, 151.21, Region::kOceania},
    {"Melbourne", -37.81, 144.96, Region::kOceania},
    {"Brisbane", -27.47, 153.03, Region::kOceania},
    {"Perth", -31.95, 115.86, Region::kOceania},
    {"Adelaide", -34.93, 138.60, Region::kOceania},
    {"Auckland", -36.85, 174.76, Region::kOceania},
    {"Wellington", -41.29, 174.78, Region::kOceania},
};

constexpr size_t kNumAnchors = sizeof(kAnchors) / sizeof(kAnchors[0]);
constexpr size_t kDatasetSize = 220;

// The cosine of a latitude, which HaversineKm needs once per end.
double CosLat(double lat) { return std::cos(lat * kPi / 180.0); }

// HaversineKm given each end's CosLat.
double HaversineKmCos(double lat1, double lon1, double cos1, double lat2, double lon2,
                      double cos2) {
  const double dphi = (lat2 - lat1) * kPi / 180.0;
  const double dlam = (lon2 - lon1) * kPi / 180.0;
  const double sin_dphi = std::sin(dphi / 2);
  const double sin_dlam = std::sin(dlam / 2);
  const double a = sin_dphi * sin_dphi + cos1 * cos2 * sin_dlam * sin_dlam;
  return 2.0 * kEarthRadiusKm * std::asin(std::sqrt(std::min(1.0, a)));
}

// Colocated replicas still pay the 1 ms base (the paper's emulator adds the
// actual 1 ms datacenter delay to every message).
constexpr double kColocatedRttMs = 1.0;

double RttOfKm(double km) { return 1.0 + 0.015 * km; }

}  // namespace

double HaversineKm(double lat1, double lon1, double lat2, double lon2) {
  return HaversineKmCos(lat1, lon1, CosLat(lat1), lat2, lon2, CosLat(lat2));
}

double CityRttMs(const City& a, const City& b) {
  if (a.name == b.name) {
    return kColocatedRttMs;
  }
  return RttOfKm(HaversineKm(a.lat, a.lon, b.lat, b.lon));
}

const std::vector<City>& WorldCities() {
  static const std::vector<City> kCities = [] {
    std::vector<City> cities(kAnchors, kAnchors + kNumAnchors);
    // Fill to 220 locations with satellites jittered around anchors — this
    // mimics WonderProxy's density (many probes clustered near hubs).
    Rng rng(0x77eeddccbbaa0099ULL);
    size_t anchor = 0;
    int generation = 2;
    while (cities.size() < kDatasetSize) {
      const City& base = kAnchors[anchor];
      City satellite = base;
      satellite.name = base.name + "-" + std::to_string(generation);
      satellite.lat += rng.Uniform(-2.5, 2.5);
      satellite.lon += rng.Uniform(-2.5, 2.5);
      satellite.lat = std::min(85.0, std::max(-85.0, satellite.lat));
      cities.push_back(satellite);
      ++anchor;
      if (anchor == kNumAnchors) {
        anchor = 0;
        ++generation;
      }
    }
    return cities;
  }();
  return kCities;
}

namespace {

std::vector<City> FilterRegion(Region region, size_t count) {
  std::vector<City> out;
  for (const City& c : WorldCities()) {
    if (c.region == region) {
      out.push_back(c);
      if (out.size() == count) {
        break;
      }
    }
  }
  OL_CHECK(out.size() == count);
  return out;
}

}  // namespace

std::vector<City> Europe21() { return FilterRegion(Region::kEurope, 21); }

std::vector<City> NaEu43() {
  std::vector<City> out = FilterRegion(Region::kEurope, 22);
  std::vector<City> na = FilterRegion(Region::kNorthAmerica, 21);
  out.insert(out.end(), na.begin(), na.end());
  return out;
}

std::vector<City> Global73() {
  // 73 cities worldwide: spread across all regions, anchors first.
  std::vector<City> out;
  const size_t per_region[] = {24, 18, 7, 14, 5, 5};  // EU, NA, SA, AS, AF, OC
  for (size_t r = 0; r < 6; ++r) {
    std::vector<City> part = FilterRegion(static_cast<Region>(r), per_region[r]);
    out.insert(out.end(), part.begin(), part.end());
  }
  OL_CHECK(out.size() == 73);
  return out;
}

std::vector<City> Stellar56() {
  // Stellar validators are concentrated in the US and Europe with a tail in
  // Asia (stellarbeat.io snapshot the paper used). We reproduce that
  // concentration: 24 NA, 22 EU, 7 Asia, 3 Oceania.
  std::vector<City> out = FilterRegion(Region::kNorthAmerica, 24);
  std::vector<City> eu = FilterRegion(Region::kEurope, 22);
  std::vector<City> as = FilterRegion(Region::kAsia, 7);
  std::vector<City> oc = FilterRegion(Region::kOceania, 3);
  out.insert(out.end(), eu.begin(), eu.end());
  out.insert(out.end(), as.begin(), as.end());
  out.insert(out.end(), oc.begin(), oc.end());
  OL_CHECK(out.size() == 56);
  return out;
}

std::vector<City> GlobalN(size_t n, uint64_t seed) {
  const std::vector<City>& all = WorldCities();
  std::vector<City> out;
  out.reserve(n);
  Rng rng(seed);
  // Sample without replacement first; wrap around (replicas may share a
  // city) if n exceeds the dataset.
  std::vector<size_t> order = rng.SampleIndices(all.size(), all.size());
  for (size_t i = 0; i < n; ++i) {
    out.push_back(all[order[i % all.size()]]);
  }
  return out;
}

std::vector<City> WithColocatedClients(std::vector<City> replicas,
                                       size_t clients) {
  const size_t n = replicas.size();
  replicas.reserve(n + clients);
  for (size_t i = 0; i < clients; ++i) {
    replicas.push_back(replicas[i % n]);
  }
  return replicas;
}

CityIndex DedupeCities(const std::vector<City>& cities) {
  CityIndex out;
  out.index_of.reserve(cities.size());
  std::unordered_map<std::string, uint32_t> by_name;
  by_name.reserve(cities.size());
  for (const City& c : cities) {
    auto [it, inserted] =
        by_name.emplace(c.name, static_cast<uint32_t>(out.unique.size()));
    if (inserted) {
      out.unique.push_back(c);
    }
    out.index_of.push_back(it->second);
  }
  return out;
}

std::vector<double> CityRttTableMs(const std::vector<City>& cities) {
  const size_t u = cities.size();
  std::vector<double> cos_lat(u);
  for (size_t i = 0; i < u; ++i) {
    cos_lat[i] = CosLat(cities[i].lat);
  }
  std::vector<double> table(u * u);
  for (size_t i = 0; i < u; ++i) {
    const City& a = cities[i];
    table[i * u + i] = kColocatedRttMs;
    for (size_t j = i + 1; j < u; ++j) {
      const City& b = cities[j];
      const double rtt =
          RttOfKm(HaversineKmCos(a.lat, a.lon, cos_lat[i], b.lat, b.lon, cos_lat[j]));
      table[i * u + j] = rtt;
      table[j * u + i] = rtt;
    }
  }
  return table;
}

}  // namespace optilog
