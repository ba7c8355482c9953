// LatencyMonitor (§4.2.1): folds committed latency vectors into the global
// latency matrix L. Deterministic: identical commit order yields identical
// matrices on every replica.
//
// Symmetry rule from the paper: L[A][B] = L[B][A] = max(Lr(A,B), Lr(B,A)),
// where Lr is the *recorded* one-directional report. Missing reports count
// as unknown; a peer marked unreachable reports infinity.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "src/core/measurement.h"
#include "src/util/check.h"

namespace optilog {

class LatencyMatrix {
 public:
  explicit LatencyMatrix(uint32_t n = 0) { Reset(n); }

  void Reset(uint32_t n) {
    n_ = n;
    recorded_.clear();  // allocated by the first Record
    known_pairs_ = 0;
    city_index_.clear();
    city_rtt_ms_.clear();
    city_stride_ = 0;
    version_ = NextVersion();
  }

  // Complete-probe-round initialization, city-compressed: replica r lives in
  // city index_of[r], and `city_rtt_ms` is a u×u table (u = stride) of
  // known RTTs. Every ordered pair (a != b) becomes known: in both
  // directions, the max rule over its cities' two entries, and 1 ms between
  // colocated replicas (the datacenter base delay). The table is stored with
  // that applied, so a lookup is one indexed load. Equivalent to Reset(n) +
  // n² Record calls but O(u²) storage — at n = 5000 the dense matrix is
  // 200 MB of redundant doubles, the city form a few hundred KB. The first
  // Record converts the matrix to the dense form, every ordered pair filled
  // from its baseline.
  void ResetWithCityBaseline(uint32_t n, std::vector<uint32_t> index_of,
                             std::vector<double> city_rtt_ms, size_t stride) {
    OL_CHECK(index_of.size() == n && city_rtt_ms.size() == stride * stride);
    for (size_t i = 0; i < stride; ++i) {
      city_rtt_ms[i * stride + i] = kColocatedRttMs;
      for (size_t j = i + 1; j < stride; ++j) {
        const double ij = city_rtt_ms[i * stride + j];
        const double ji = city_rtt_ms[j * stride + i];
        OL_CHECK(ij != kUnknown && ji != kUnknown);
        city_rtt_ms[i * stride + j] = ij > ji ? ij : ji;  // as Rtt(a, b) would
        city_rtt_ms[j * stride + i] = ji > ij ? ji : ij;  // and Rtt(b, a)
      }
    }
    n_ = n;
    recorded_.clear();
    known_pairs_ = n < 2 ? 0 : size_t{n} * (n - 1) / 2;  // the baseline knows all
    city_index_ = std::move(index_of);
    city_rtt_ms_ = std::move(city_rtt_ms);
    city_stride_ = stride;
    version_ = NextVersion();
  }

  uint32_t size() const { return n_; }

  // Changes on every Reset and every in-range Record, so a value derived
  // from the matrix can be cached against it. Versions come from one
  // process-wide counter: no two matrix states share one, even two
  // matrices built in turn at one address with the same number of edits.
  // A copy keeps its source's version, and its contents.
  uint64_t version() const { return version_; }

  void Record(ReplicaId reporter, ReplicaId peer, double rtt_ms) {
    if (reporter >= n_ || peer >= n_) {
      return;
    }
    version_ = NextVersion();
    if (recorded_.empty()) {
      Densify();
    }
    // The unordered pair is known while either direction is; only a change
    // of this direction with the other one unknown moves the count.
    if (reporter != peer && RecordedAt(peer, reporter) == kUnknown) {
      known_pairs_ += rtt_ms != kUnknown;
      known_pairs_ -= RecordedAt(reporter, peer) != kUnknown;
    }
    recorded_[Index(reporter, peer)] = rtt_ms;
  }

  // Symmetric matrix entry per the paper's max rule. Unknown pairs return
  // infinity (they cannot be relied on for role assignment).
  double Rtt(ReplicaId a, ReplicaId b) const {
    if (a == b) {
      return 0.0;
    }
    if (a >= n_ || b >= n_ || NothingRecorded()) {
      return std::numeric_limits<double>::infinity();
    }
    if (city_stride_ != 0) {
      return Baseline(a, b);  // the max rule is applied already
    }
    const double ab = RecordedAt(a, b);
    const double ba = RecordedAt(b, a);
    if (ab == kUnknown && ba == kUnknown) {
      return std::numeric_limits<double>::infinity();
    }
    if (ab == kUnknown) {
      return ba;
    }
    if (ba == kUnknown) {
      return ab;
    }
    return ab > ba ? ab : ba;
  }

  bool Known(ReplicaId a, ReplicaId b) const {
    if (a == b) {
      return true;
    }
    if (a >= n_ || b >= n_ || NothingRecorded()) {
      return false;
    }
    if (city_stride_ != 0) {
      return true;  // the baseline covers every pair
    }
    return RecordedAt(a, b) != kUnknown || RecordedAt(b, a) != kUnknown;
  }

  // Fraction of unordered pairs {a, b}, a != b, with at least one report
  // (a city baseline reports every pair); 1.0 = complete. O(1): Record
  // keeps the count of known pairs.
  double Coverage() const {
    if (n_ < 2) {
      return 1.0;
    }
    const size_t total = size_t{n_} * (n_ - 1) / 2;
    return static_cast<double>(known_pairs_) / static_cast<double>(total);
  }

 private:
  static constexpr double kUnknown = -1.0;
  static constexpr double kColocatedRttMs = 1.0;

  static uint64_t NextVersion();

  size_t Index(ReplicaId a, ReplicaId b) const { return size_t{a} * n_ + b; }

  // Dense mode before its storage exists: every pair is unknown.
  bool NothingRecorded() const { return city_stride_ == 0 && recorded_.empty(); }

  // Requires the dense form's storage.
  double RecordedAt(ReplicaId a, ReplicaId b) const {
    return recorded_[Index(a, b)];
  }

  // The first Record's storage: every pair unknown, or, over a city
  // baseline, every pair its baseline value, after which the baseline goes.
  void Densify() {
    recorded_.assign(size_t{n_} * n_, kUnknown);
    if (city_stride_ == 0) {
      return;
    }
    for (ReplicaId a = 0; a < n_; ++a) {
      for (ReplicaId b = 0; b < n_; ++b) {
        recorded_[Index(a, b)] = Baseline(a, b);
      }
    }
    city_index_ = {};
    city_rtt_ms_ = {};
    city_stride_ = 0;
  }

  // City-baseline form: the probe round's RTT between a's and b's cities.
  double Baseline(ReplicaId a, ReplicaId b) const {
    return city_rtt_ms_[city_index_[a] * city_stride_ + city_index_[b]];
  }

  uint32_t n_ = 0;
  // Dense form (incremental monitors, and any matrix after its first
  // Record): every ordered pair, row-major, empty until the first Record.
  std::vector<double> recorded_;
  // City-baseline form (deployments, until a Record): replica -> city, u×u
  // RTTs under the max rule.
  std::vector<uint32_t> city_index_;
  std::vector<double> city_rtt_ms_;
  size_t city_stride_ = 0;
  size_t known_pairs_ = 0;  // unordered pairs with a report in either direction
  uint64_t version_ = 0;
};

class LatencyMonitor {
 public:
  explicit LatencyMonitor(uint32_t n) : matrix_(n) {}

  // Called by the sensor app when a latency vector commits.
  void OnLatencyVector(const LatencyVectorRecord& rec);

  const LatencyMatrix& matrix() const { return matrix_; }
  uint64_t vectors_applied() const { return vectors_applied_; }

 private:
  LatencyMatrix matrix_;
  uint64_t vectors_applied_ = 0;
};

}  // namespace optilog
