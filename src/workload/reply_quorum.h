// The reply rule every requester applies: workload clients, transaction
// clients and 2PC coordinators (src/shard/). A request completes when
// `need` distinct replicas have sent byte-identical results, and the
// requester uses that result. The quorum size belongs to the engine: 1 for
// the tree root's commit-stamped reply, f + 1 for the PBFT family, so that
// at least one correct replica vouches for the result. A replica counts
// once, with the first reply it sent.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/ids.h"
#include "src/util/bytes.h"

namespace optilog {

class ReplyQuorum {
 public:
  // Counts `from`'s reply. Returns true when it completes the quorum: with
  // it, `need` distinct replicas have sent `result`, which is then the
  // agreed result. Only replies that complete nothing are kept.
  bool Add(ReplicaId from, const Bytes& result, uint32_t need) {
    uint32_t matching = 1;  // this reply
    for (const auto& [sender, kept] : replies_) {
      if (sender == from) {
        return false;
      }
      matching += kept == result ? 1 : 0;
    }
    if (matching >= need) {
      return true;
    }
    replies_.emplace_back(from, result);
    return false;
  }

 private:
  std::vector<std::pair<ReplicaId, Bytes>> replies_;  // one per sender
};

}  // namespace optilog
