#include "src/tree/topology.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace optilog {

uint32_t BranchFactorFor(uint32_t n) {
  OL_CHECK(n >= 3);
  const double b = (std::sqrt(4.0 * n - 3.0) - 1.0) / 2.0;
  return static_cast<uint32_t>(b);
}

TreeTopology TreeTopology::Build(const std::vector<ReplicaId>& internals,
                                 const std::vector<ReplicaId>& leaves) {
  OL_CHECK(!internals.empty());
  TreeTopology t;
  t.root_ = internals[0];
  t.intermediates_.assign(internals.begin() + 1, internals.end());
  t.n_ = static_cast<uint32_t>(internals.size() + leaves.size());

  const ReplicaId max_id =
      std::max(std::ranges::max(internals), leaves.empty() ? 0 : std::ranges::max(leaves));
  t.parent_.assign(max_id + 1, kNoReplica);
  t.children_.assign(max_id + 1, {});

  t.parent_[t.root_] = t.root_;
  for (ReplicaId inter : t.intermediates_) {
    t.parent_[inter] = t.root_;
    t.children_[t.root_].push_back(inter);
  }
  for (size_t i = 0; i < leaves.size(); ++i) {
    // Round-robin over the intermediates; a star's leaves hang under the root.
    const ReplicaId parent = t.intermediates_.empty()
                                 ? t.root_
                                 : t.intermediates_[i % t.intermediates_.size()];
    t.parent_[leaves[i]] = parent;
    t.children_[parent].push_back(leaves[i]);
  }
  return t;
}

TreeTopology TreeTopology::FromConfig(const RoleConfig& config) {
  TreeTopology t;
  t.root_ = config.leader;
  const size_t size = config.parent.size();
  t.parent_.assign(size, kNoReplica);
  t.children_.assign(size, {});
  for (ReplicaId id = 0; id < size; ++id) {
    const ReplicaId p = config.parent[id];
    if (p >= size) {  // not a member, or a parent outside the table
      continue;
    }
    ++t.n_;
    t.parent_[id] = p;
    if (id != p) {
      t.children_[p].push_back(id);
    }
  }
  // A height-3 tree's root children all hold internal positions, childless
  // ones included; a star's are leaves.
  if (t.root_ < size && std::ranges::any_of(t.children_[t.root_], [&](ReplicaId id) {
        return !t.children_[id].empty();
      })) {
    t.intermediates_ = t.children_[t.root_];
  }
  return t;
}

RoleConfig TreeTopology::ToConfig() const {
  RoleConfig cfg;
  cfg.leader = root_;
  cfg.parent = parent_;
  return cfg;
}

const std::vector<ReplicaId>& TreeTopology::ChildrenOf(ReplicaId id) const {
  static const std::vector<ReplicaId> kEmpty;
  return id < children_.size() ? children_[id] : kEmpty;
}

ReplicaId TreeTopology::ParentOf(ReplicaId id) const {
  return id < parent_.size() ? parent_[id] : kNoReplica;
}

bool TreeTopology::IsIntermediate(ReplicaId id) const {
  return std::find(intermediates_.begin(), intermediates_.end(), id) !=
         intermediates_.end();
}

std::vector<ReplicaId> TreeTopology::Members() const {
  std::vector<ReplicaId> out;
  for (ReplicaId id = 0; id < parent_.size(); ++id) {
    if (parent_[id] != kNoReplica) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<ReplicaId> TreeTopology::Internals() const {
  std::vector<ReplicaId> out{root_};
  out.insert(out.end(), intermediates_.begin(), intermediates_.end());
  return out;
}

std::vector<ReplicaId> TreeTopology::Leaves() const {
  std::vector<ReplicaId> out;
  for (ReplicaId id = 0; id < parent_.size(); ++id) {
    // The internals: the root and, unless the tree is a star, its children.
    if (parent_[id] != kNoReplica && id != root_ &&
        (intermediates_.empty() || parent_[id] != root_)) {
      out.push_back(id);
    }
  }
  return out;
}

}  // namespace optilog
