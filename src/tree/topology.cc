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

  ReplicaId max_id = 0;
  for (ReplicaId id : internals) {
    max_id = std::max(max_id, id);
  }
  for (ReplicaId id : leaves) {
    max_id = std::max(max_id, id);
  }
  t.parent_.assign(max_id + 1, kNoReplica);
  t.children_.assign(max_id + 1, {});

  t.parent_[t.root_] = t.root_;
  for (ReplicaId inter : t.intermediates_) {
    t.parent_[inter] = t.root_;
    t.children_[t.root_].push_back(inter);
  }
  if (!t.intermediates_.empty()) {
    for (size_t i = 0; i < leaves.size(); ++i) {
      const ReplicaId parent = t.intermediates_[i % t.intermediates_.size()];
      t.parent_[leaves[i]] = parent;
      t.children_[parent].push_back(leaves[i]);
    }
  } else {
    // Star topology: all leaves attach to the root directly.
    for (ReplicaId leaf : leaves) {
      t.parent_[leaf] = t.root_;
      t.children_[t.root_].push_back(leaf);
    }
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
    if (p == kNoReplica) {
      continue;
    }
    ++t.n_;
    t.parent_[id] = p;
    if (id != p) {
      t.children_[p].push_back(id);
    }
  }
  for (ReplicaId id = 0; id < size; ++id) {
    if (t.parent_[id] == t.root_ && id != t.root_ && !t.children_[id].empty()) {
      t.intermediates_.push_back(id);
    }
  }
  // A star has no intermediates; a height-3 tree's root children that
  // happen to be childless still count as intermediates if any sibling has
  // children (they hold an internal *position*).
  if (!t.intermediates_.empty()) {
    t.intermediates_.clear();
    for (ReplicaId id = 0; id < size; ++id) {
      if (id != t.root_ && t.parent_[id] == t.root_) {
        bool any_grandchild = false;
        for (ReplicaId other = 0; other < size; ++other) {
          if (other != t.root_ && t.parent_[other] == t.root_ &&
              !t.children_[other].empty()) {
            any_grandchild = true;
            break;
          }
        }
        if (any_grandchild) {
          t.intermediates_.push_back(id);
        }
      }
    }
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
  std::vector<bool> internal(parent_.size(), false);
  if (root_ < internal.size()) {
    internal[root_] = true;
  }
  for (ReplicaId id : intermediates_) {
    internal[id] = true;
  }
  std::vector<ReplicaId> out;
  for (ReplicaId id = 0; id < parent_.size(); ++id) {
    if (parent_[id] != kNoReplica && !internal[id]) {
      out.push_back(id);
    }
  }
  return out;
}

}  // namespace optilog
