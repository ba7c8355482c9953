// Fixtures shared by the unit tests: a hand-set latency model, the
// deployment's geographic one, a signature that does not verify, and a
// trace's canonical bytes.
#pragma once

#include <string>
#include <vector>

#include "src/crypto/signature.h"
#include "src/net/geo.h"
#include "src/net/latency_model.h"
#include "src/obs/trace.h"

namespace optilog {

// Uniform one-way latency (microseconds) between every two of n actors, 0 to
// itself; Set overrides one pair in both directions.
class MatrixLatencyModel : public LatencyModel {
 public:
  MatrixLatencyModel(size_t n, SimTime one_way)
      : one_way_(n, std::vector<SimTime>(n, one_way)) {
    for (size_t i = 0; i < n; ++i) {
      one_way_[i][i] = 0;
    }
  }

  SimTime OneWay(ReplicaId from, ReplicaId to) const override {
    OL_CHECK(from < one_way_.size() && to < one_way_.size());
    return one_way_[from][to];
  }

  void Set(ReplicaId a, ReplicaId b, SimTime one_way) {
    one_way_[a][b] = one_way;
    one_way_[b][a] = one_way;
  }

 private:
  std::vector<std::vector<SimTime>> one_way_;
};

// The latency model a deployment builds for actors placed in `cities`.
inline GeoLatencyModel GeoModel(const std::vector<City>& cities) {
  const CityIndex ci = DedupeCities(cities);
  return GeoLatencyModel(ci.index_of, CityRttTableMs(ci.unique), ci.unique.size());
}

// A signature that claims `signer` but does not verify: a constant pattern
// fails verification with overwhelming probability.
inline Signature ForgedSignature(ReplicaId signer) {
  Signature sig;
  sig.signer = signer;
  sig.bytes.fill(0xde);
  return sig;
}

// A trace as fixed-width little-endian bytes, 48 per record: what the
// determinism tests compare across reruns and thread counts.
inline std::string TraceBytes(const std::vector<TraceRecord>& records) {
  std::string out;
  auto put = [&out](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  for (const TraceRecord& r : records) {
    put(static_cast<uint64_t>(r.t), 8);
    put(r.id, 8);
    put(r.parent, 8);
    put(r.kind, 2);
    put(r.type, 2);
    put(r.actor, 4);
    put(r.a, 8);
    put(r.b, 8);
  }
  return out;
}

}  // namespace optilog
