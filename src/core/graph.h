// Undirected suspicion graph G = (V, E) (§4.2.3). Vertices are replica ids;
// an edge (A, B) is a two-way suspicion A <-> B. Insertion order of edges is
// preserved because the monitor discards *old* suspicions first when the
// graph gets too dense (the sliding-window mechanism).
#pragma once

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "src/crypto/signature.h"

namespace optilog {

struct EdgeKey {
  ReplicaId a;
  ReplicaId b;

  static EdgeKey Make(ReplicaId x, ReplicaId y) {
    return x < y ? EdgeKey{x, y} : EdgeKey{y, x};
  }
  bool operator==(const EdgeKey& o) const { return a == o.a && b == o.b; }
  bool operator<(const EdgeKey& o) const {
    return a != o.a ? a < o.a : b < o.b;
  }
};

class SuspicionGraph {
 public:
  // Adds edge (x, y); returns false if it already existed. Self-loops are
  // ignored.
  bool AddEdge(ReplicaId x, ReplicaId y);

  bool RemoveEdge(ReplicaId x, ReplicaId y);
  void RemoveVertex(ReplicaId v);  // drops all incident edges

  bool HasEdge(ReplicaId x, ReplicaId y) const {
    return edges_.count(EdgeKey::Make(x, y)) > 0;
  }

  size_t num_edges() const { return edges_.size(); }

  // Edges in insertion order (oldest first).
  const std::vector<EdgeKey>& ordered_edges() const { return ordered_; }

  // Oldest edge, if any; used by the sliding-window eviction.
  bool OldestEdge(EdgeKey* out) const;

 private:
  std::set<EdgeKey> edges_;
  std::vector<EdgeKey> ordered_;  // insertion order; lazily compacted
};

}  // namespace optilog
