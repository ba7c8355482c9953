// Tree topology for Kauri/OptiTree (§6). Trees have height 3: a root, b
// intermediate nodes, and the remaining replicas as leaves attached to
// intermediates (§7.3: "in all experiments, trees have a height of 3, and
// the configuration size n determines the branching factor
// b = (sqrt(4n-3)-1)/2").
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/measurement.h"

namespace optilog {

// Branch factor for a height-3 tree over n replicas (rounded down when n is
// not of the form 1 + b + b^2; the last intermediate then has fewer leaves).
uint32_t BranchFactorFor(uint32_t n);

class TreeTopology {
 public:
  TreeTopology() = default;

  // Builds the canonical tree: `internals[0]` is the root, the remaining
  // internals are intermediates, and `leaves` are attached round-robin (in
  // order) so each intermediate has at most ceil(|leaves| / b) children.
  static TreeTopology Build(const std::vector<ReplicaId>& internals,
                            const std::vector<ReplicaId>& leaves);

  // Decodes from a RoleConfig parent vector (parent[root] == root).
  static TreeTopology FromConfig(const RoleConfig& config);
  RoleConfig ToConfig() const;

  ReplicaId root() const { return root_; }
  const std::vector<ReplicaId>& intermediates() const { return intermediates_; }
  const std::vector<ReplicaId>& ChildrenOf(ReplicaId id) const;
  ReplicaId ParentOf(ReplicaId id) const;

  bool IsRoot(ReplicaId id) const { return id == root_; }
  bool IsIntermediate(ReplicaId id) const;
  bool IsInternal(ReplicaId id) const { return IsRoot(id) || IsIntermediate(id); }
  bool IsLeaf(ReplicaId id) const { return Contains(id) && !IsInternal(id); }
  bool Contains(ReplicaId id) const { return id < parent_.size() && parent_[id] != kNoReplica; }

  uint32_t size() const { return n_; }

  // All replicas in the tree, ascending.
  std::vector<ReplicaId> Members() const;

  // Internal nodes: root + intermediates.
  std::vector<ReplicaId> Internals() const;

  // Members that are not internal, ascending: one pass over the parent
  // table, since the intermediates are exactly the root's children.
  std::vector<ReplicaId> Leaves() const;

 private:
  ReplicaId root_ = kNoReplica;
  std::vector<ReplicaId> intermediates_;
  std::vector<ReplicaId> parent_;                 // kNoReplica = not a member
  std::vector<std::vector<ReplicaId>> children_;  // indexed by replica id
  uint32_t n_ = 0;
};

}  // namespace optilog
