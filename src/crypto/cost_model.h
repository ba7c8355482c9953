// Modeled crypto CPU cost, charged as replica busy time.
//
// The simulator's signatures are HMAC stand-ins (signature.h): correct
// byte sizes and verification semantics, but wall-clock-cheap — a modeled
// Ed25519 verify is ~40x the cost of the HMAC that simulates it. Message
// *bytes* are already honest (canonical encodings, src/wire/); this model
// makes the *CPU* honest too. Every sign/verify/hash/QC operation a replica
// performs charges a per-op cost (nanoseconds) against that replica's busy
// horizon in a CpuMeter; the network folds the horizon into departure
// times, so a replica saturated by verification work sends late — the
// compute bottleneck the paper's star-vs-tree comparison rests on.
//
// Costs live in NANOSECONDS while SimTime is microseconds: a single vote
// verification (tens of µs) rounds fine, but per-byte hashing (fractions
// of a ns) and per-share folding would vanish at µs resolution. The meter
// accumulates exactly in ns and rounds up once, at horizon-to-departure
// conversion.
//
// Three ways to get a model:
//   - Ed25519Bls(): literature constants for Ed25519 votes + BLS aggregate
//     certificates. The qc_verify_base/qc_verify_signer split is what makes
//     per-vote vs aggregate-QC verification cross over (~19 votes).
//   - Calibrated(): this repo's own HMAC/SHA-256 primitives, timed once on
//     a reference host and pinned — deterministic across machines.
//   - Measure(): times the primitives on the current host right now (the
//     crypto_bench scenario reports these as advisory metrics).
#pragma once

#include <cstdint>
#include <vector>

#include "src/obs/trace.h"
#include "src/sim/ids.h"
#include "src/sim/time.h"

namespace optilog {

struct CryptoCostModel {
  double sign_ns = 0.0;
  double verify_ns = 0.0;
  double hash_base_ns = 0.0;  // fixed cost per SHA-256 invocation
  double hash_byte_ns = 0.0;  // marginal cost per hashed byte
  // Quorum certificates: folding one share in during aggregation, and the
  // fixed + per-signer split of verifying the finished aggregate. A real
  // BLS aggregate pays its pairings once (large base, tiny per-signer
  // term); per-vote verification pays verify_ns per signer with no base.
  double qc_aggregate_share_ns = 0.0;
  double qc_verify_base_ns = 0.0;
  double qc_verify_signer_ns = 0.0;

  // Literature constants for Ed25519 single signatures and BLS12-381
  // aggregates on a ~3 GHz server core: sign 25 µs, verify 65 µs, SHA-256
  // at ~2 GB/s, two pairings ~1.2 ms. Crossover between k * verify_ns and
  // qc_verify_base_ns + k * qc_verify_signer_ns lands at k = 19.
  static CryptoCostModel Ed25519Bls();

  // This repository's own HMAC/SHA-256 primitives, measured once on a
  // reference host and pinned as constants — same numbers on every machine,
  // so fingerprinted runs can use it.
  static CryptoCostModel Calibrated();

  // Times the primitives on the current host now (~100 ms of benchmarking).
  // Host-dependent by construction: feed it only to advisory metrics, never
  // to fingerprinted runs.
  static CryptoCostModel Measure();
};

// Per-replica CPU accounting: a busy-until horizon (ns) plus op counters.
// Charging extends the horizon from max(horizon, now); ReadyAt converts it
// back to a µs SimTime, rounding up. Replica ids index dense vectors and
// may appear in any order (client ids beyond n just grow the tables).
class CpuMeter {
 public:
  explicit CpuMeter(const CryptoCostModel& model) : model_(model) {}

  const CryptoCostModel& model() const { return model_; }

  // Op discriminators for kCryptoCharge trace records (the `type` field).
  enum CryptoOp : uint16_t {
    kOpSign = 1,
    kOpVerify = 2,
    kOpHash = 3,
    kOpQcAggregate = 4,
    kOpQcVerify = 5,
  };

  // Attaches the flight recorder every charge is reported to. Null
  // disables.
  void SetTrace(TraceRecorder* trace) { trace_ = trace; }

  void ChargeSign(ReplicaId id, SimTime now, uint64_t count = 1) {
    Charge(id, now, model_.sign_ns * static_cast<double>(count), kOpSign);
    signs_ += count;
  }
  void ChargeVerify(ReplicaId id, SimTime now, uint64_t count = 1) {
    Charge(id, now, model_.verify_ns * static_cast<double>(count), kOpVerify);
    verifies_ += count;
  }
  void ChargeHash(ReplicaId id, SimTime now, uint64_t bytes) {
    Charge(id, now,
           model_.hash_base_ns + model_.hash_byte_ns * static_cast<double>(bytes),
           kOpHash);
    ++hashes_;
    hashed_bytes_ += bytes;
  }
  void ChargeQcAggregate(ReplicaId id, SimTime now, uint64_t shares) {
    Charge(id, now, model_.qc_aggregate_share_ns * static_cast<double>(shares),
           kOpQcAggregate);
    qc_aggregated_shares_ += shares;
  }
  void ChargeQcVerify(ReplicaId id, SimTime now, uint64_t signers) {
    Charge(id, now,
           model_.qc_verify_base_ns +
               model_.qc_verify_signer_ns * static_cast<double>(signers),
           kOpQcVerify);
    ++qc_verifies_;
  }

  // Earliest µs instant at or after `now` when `id`'s CPU is free. The send
  // path uses this as the departure base, so crypto backlog delays sends.
  SimTime ReadyAt(ReplicaId id, SimTime now) const {
    if (id >= busy_until_ns_.size()) {
      return now;
    }
    const int64_t horizon = busy_until_ns_[id];
    if (horizon <= now * 1000) {
      return now;
    }
    return (horizon + 999) / 1000;  // ceil ns -> µs
  }

  uint64_t signs() const { return signs_; }
  uint64_t verifies() const { return verifies_; }
  uint64_t hashes() const { return hashes_; }
  uint64_t hashed_bytes() const { return hashed_bytes_; }
  uint64_t qc_aggregated_shares() const { return qc_aggregated_shares_; }
  uint64_t qc_verifies() const { return qc_verifies_; }
  uint64_t busy_ns_total() const { return busy_ns_total_; }
  uint64_t busy_ns_of(ReplicaId id) const {
    return id < busy_ns_.size() ? busy_ns_[id] : 0;
  }
  uint64_t busy_ns_max_replica() const {
    uint64_t best = 0;
    for (uint64_t ns : busy_ns_) {
      best = best > ns ? best : ns;
    }
    return best;
  }

  // Modeled CPU time still owed beyond `now`, summed over replicas — the
  // crypto backlog gauge.
  uint64_t BacklogNsAt(SimTime now) const {
    const int64_t now_ns = now * 1000;
    uint64_t backlog = 0;
    for (int64_t horizon : busy_until_ns_) {
      if (horizon > now_ns) {
        backlog += static_cast<uint64_t>(horizon - now_ns);
      }
    }
    return backlog;
  }

 private:
  void Charge(ReplicaId id, SimTime now, double ns, uint16_t op) {
    if (ns <= 0.0) {
      return;
    }
    if (id >= busy_until_ns_.size()) {
      busy_until_ns_.resize(id + 1, 0);
      busy_ns_.resize(id + 1, 0);
    }
    // Integer ns cost: the double products above are exact for the integer
    // model constants and deterministic (IEEE) for fractional ones.
    const int64_t cost = static_cast<int64_t>(ns + 0.5);
    const int64_t now_ns = now * 1000;
    int64_t& horizon = busy_until_ns_[id];
    horizon = (horizon > now_ns ? horizon : now_ns) + cost;
    busy_ns_[id] += static_cast<uint64_t>(cost);
    busy_ns_total_ += static_cast<uint64_t>(cost);
    if (trace_ != nullptr) {
      trace_->EmitHere(now, TraceKind::kCryptoCharge, op, id,
                       static_cast<uint64_t>(cost), 0);
    }
  }

  TraceRecorder* trace_ = nullptr;
  CryptoCostModel model_;
  std::vector<int64_t> busy_until_ns_;  // busy-until instants, ns
  std::vector<uint64_t> busy_ns_;       // total charged per replica, ns
  uint64_t signs_ = 0;
  uint64_t verifies_ = 0;
  uint64_t hashes_ = 0;
  uint64_t hashed_bytes_ = 0;
  uint64_t qc_aggregated_shares_ = 0;
  uint64_t qc_verifies_ = 0;
  uint64_t busy_ns_total_ = 0;
};

}  // namespace optilog
