#include "src/core/graph.h"

namespace optilog {

bool SuspicionGraph::AddEdge(ReplicaId x, ReplicaId y) {
  if (x == y) {
    return false;
  }
  const EdgeKey key = EdgeKey::Make(x, y);
  if (!edges_.insert(key).second) {
    return false;
  }
  ordered_.push_back(key);
  return true;
}

bool SuspicionGraph::RemoveEdge(ReplicaId x, ReplicaId y) {
  const EdgeKey key = EdgeKey::Make(x, y);
  if (edges_.erase(key) == 0) {
    return false;
  }
  ordered_.erase(std::find(ordered_.begin(), ordered_.end(), key));
  return true;
}

void SuspicionGraph::RemoveVertex(ReplicaId v) {
  for (auto it = ordered_.begin(); it != ordered_.end();) {
    if (it->a == v || it->b == v) {
      edges_.erase(*it);
      it = ordered_.erase(it);
    } else {
      ++it;
    }
  }
}

bool SuspicionGraph::OldestEdge(EdgeKey* out) const {
  if (ordered_.empty()) {
    return false;
  }
  *out = ordered_.front();
  return true;
}

}  // namespace optilog
