// ShardedDeployment: N consensus groups, one simulator, one keyspace.
//
// Built by Deployment::Builder::BuildSharded(). Each shard is a complete
// Deployment — its own Network, FaultModel, KeyStore, engine, and RsmGroup —
// constructed on the Simulator this object owns, and the 2PC coordinators
// and transaction clients schedule on it too. Every event of every group
// therefore drains through one (at, seq) order, and multi-group runs inherit
// the single simulator's byte-identical-at-any---threads guarantee. The
// KeyRouter partitions the u64 KV keyspace; the transaction layer
// (TxnCoordinator per shard + one TxnFleet, sized by WithTxnWorkload, which
// BuildSharded requires) turns the groups into one sharded store with
// cross-shard 2PC transactions.
//
// Id layout (every shard has the same n replicas): per shard network,
// replicas are 0..n-1, coordinator of shard s is n+s, and transaction
// client i is n+shards+i. Coordinators and clients are registered on EVERY
// shard's network under the same id — cross-shard sends are ordinary
// Network::Send calls on the target shard's network. A coordinator is
// colocated with its shard's anchor replica and shares its crash windows.
#pragma once

#include <memory>
#include <vector>

#include "src/api/deployment.h"
#include "src/shard/key_router.h"
#include "src/shard/txn_coordinator.h"
#include "src/shard/txn_fleet.h"

namespace optilog {

class ShardedDeployment {
 public:
  ~ShardedDeployment();

  // --- shards ----------------------------------------------------------------
  uint32_t shards() const { return static_cast<uint32_t>(shards_.size()); }
  Deployment& shard(uint32_t s) { return *shards_.at(s); }
  const KeyRouter& router() const { return router_; }
  uint32_t replicas_per_shard() const { return n_; }
  uint32_t cross_shard_pct() const { return cross_pct_; }
  const TxnWorkloadOptions& txn_options() const { return txn_opts_; }

  // The simulator every shard group, coordinator, and client schedules on.
  Simulator& sim() { return sim_; }

  // --- transaction layer -----------------------------------------------------
  TxnFleet* txn_fleet() { return fleet_.get(); }
  ReplicaId coordinator_id(uint32_t s) const { return n_ + s; }
  const TxnCoordinator& coordinator(uint32_t s) const { return *coordinators_.at(s); }
  // Replica currently serving shard `s` (tree root / PBFT leader).
  ReplicaId Route(uint32_t s) { return shard(s).engine().Leader(); }
  // The reply quorum of shard `s`'s engine (1 for the tree family, f + 1
  // for PBFT): how many replicas must send the same result (ReplyQuorum).
  uint32_t RepliesNeeded(uint32_t s) {
    return shard(s).engine().RepliesNeeded();
  }

  // --- lifecycle -------------------------------------------------------------
  void Start();
  void RunFor(SimTime d) { sim_.RunFor(d); }
  void RunUntil(SimTime t) { sim_.RunUntil(t); }

  // Aggregate metrics: per-shard sums, element-wise throughput, the shared
  // event core, AND-of-shards digest agreement, and the transaction report.
  MetricsReport Metrics();

  // The shared simulator's flight-recorder records in emission (t, id)
  // order; empty without WithTrace / WithGaugeSampling.
  std::vector<TraceRecord> TraceRecords() const;

 private:
  friend class Deployment::Builder;
  ShardedDeployment() = default;

  // Declared first, so destroyed after everything that schedules on it.
  Simulator sim_;
  KeyRouter router_;
  uint32_t n_ = 0;
  uint32_t cross_pct_ = 0;
  TxnWorkloadOptions txn_opts_;
  std::vector<std::unique_ptr<Deployment>> shards_;
  std::vector<std::unique_ptr<TxnCoordinator>> coordinators_;
  std::unique_ptr<TxnFleet> fleet_;
  // Simulator-wide gauges (pending events, pool hit rate), sampled once for
  // the whole deployment; the shards' own samplers leave them out.
  std::unique_ptr<GaugeSampler> gauges_;
};

}  // namespace optilog
