#include "src/core/suspicion_monitor.h"

#include <algorithm>

#include "src/util/check.h"

namespace optilog {

SuspicionMonitor::SuspicionMonitor(uint32_t n, uint32_t f,
                                   const MisbehaviorMonitor* misbehavior,
                                   SuspicionMonitorOptions opts)
    : n_(n), f_(f), misbehavior_(misbehavior), opts_(opts) {
  if (opts_.min_candidates == 0) {
    opts_.min_candidates = n_ - f_;
  }
  Recompute();
}

bool SuspicionMonitor::ShouldFilter(const SuspicionRecord& rec) {
  // Causal filtering applies to Slow suspicions; False reciprocations are
  // bookkeeping, not fresh accusations.
  if (rec.type != SuspicionType::kSlow) {
    return false;
  }
  // Rule 2: a leader that raised a suspicion in round i is excused for a
  // delayed proposal timestamp in round i + 1.
  if (rec.phase == PhaseTag::kProposal && rec.round > 0 &&
      leader_raised_.count({rec.round - 1, rec.suspect}) > 0) {
    return true;
  }
  // Rule 1: keep only the earliest protocol phase per round.
  auto [it, inserted] = round_first_phase_.try_emplace(rec.round, rec.phase);
  if (!inserted) {
    if (rec.phase > it->second) {
      return true;  // later phase: causally downstream of the first delay
    }
    it->second = std::min(it->second, rec.phase);
  }
  // Deduplicate the same pair within a round.
  if (!seen_in_round_.insert({rec.round, EdgeKey::Make(rec.suspector, rec.suspect)})
           .second) {
    return true;
  }
  return false;
}

void SuspicionMonitor::OnSuspicion(const SuspicionRecord& rec, bool sig_valid) {
  if (!sig_valid || rec.suspector >= n_ || rec.suspect >= n_ ||
      rec.suspector == rec.suspect) {
    ++filtered_;
    return;
  }
  last_suspicion_view_ = view_;
  if (ShouldFilter(rec)) {
    ++filtered_;
    return;
  }
  ++retained_;
  leader_raised_.insert({rec.round, rec.suspector});

  if (rec.type == SuspicionType::kFalse) {
    // Reciprocation: the pending one-way suspicion (suspect d suspector)
    // becomes a confirmed two-way edge.
    const EdgeKey key = EdgeKey::Make(rec.suspector, rec.suspect);
    bool matched = false;
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->edge == key) {
        it = pending_.erase(it);
        matched = true;
      } else {
        ++it;
      }
    }
    // Unsolicited False: still a mutual-distrust signal; record the edge.
    if (!matched && AddTwoWay(rec.suspector, rec.suspect, view_)) {
      Recompute();
    }
    return;
  }

  // Slow suspicion against a crashed/faulty replica needs no graph edge.
  if (crashed_.count(rec.suspect) > 0 || misbehavior_->IsFaulty(rec.suspect)) {
    return;
  }
  if (AddTwoWay(rec.suspector, rec.suspect, view_)) {
    Recompute();
  }
}

bool SuspicionMonitor::AddTwoWay(ReplicaId a, ReplicaId b, uint64_t current_view) {
  if (!graph_.AddEdge(a, b)) {
    return false;
  }
  // Every new suspicion is provisionally two-way; if the suspect never
  // reciprocates within f + 1 views (the paper's f + 1 leader changes) it is
  // reclassified as crashed.
  pending_.push_back(
      PendingEdge{EdgeKey::Make(a, b), b, current_view + f_ + 1});
  return true;
}

void SuspicionMonitor::DeclareCrashed(ReplicaId id) {
  if (crashed_.insert(id).second) {
    crashed_order_.push_back(id);
  }
  graph_.RemoveVertex(id);
  pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                [id](const PendingEdge& p) {
                                  return p.edge.a == id || p.edge.b == id;
                                }),
                 pending_.end());
}

void SuspicionMonitor::OnView(uint64_t view) {
  if (view <= view_) {
    return;
  }
  view_ = view;

  // Reciprocation timeouts: one-way suspicions become crash verdicts.
  bool changed = false;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (view_ >= it->deadline_view) {
      const ReplicaId suspect = it->suspect;
      const EdgeKey edge = it->edge;
      it = pending_.erase(it);
      graph_.RemoveEdge(edge.a, edge.b);
      DeclareCrashed(suspect);
      changed = true;
    } else {
      ++it;
    }
  }

  // Stability window: decay one old suspicion per quiet view.
  if (view_ - last_suspicion_view_ >= opts_.stability_window) {
    EdgeKey oldest;
    if (graph_.OldestEdge(&oldest)) {
      graph_.RemoveEdge(oldest.a, oldest.b);
      changed = true;
    } else if (!crashed_order_.empty()) {
      const ReplicaId revived = crashed_order_.front();
      crashed_order_.erase(crashed_order_.begin());
      crashed_.erase(revived);
      changed = true;
    }
  }

  if (changed) {
    Recompute();
  }
}

std::vector<ReplicaId> SuspicionMonitor::LiveVertices() const {
  std::vector<ReplicaId> live;
  live.reserve(n_);
  for (ReplicaId id = 0; id < n_; ++id) {
    if (crashed_.count(id) == 0 && !misbehavior_->IsFaulty(id)) {
      live.push_back(id);
    }
  }
  return live;
}

void SuspicionMonitor::Recompute() {
  const std::vector<ReplicaId> prev_candidates = current_.candidates;
  const uint32_t prev_u = current_.u;

  for (;;) {
    const std::vector<ReplicaId> live = LiveVertices();
    if (opts_.policy == CandidatePolicy::kMaxIndependentSet) {
      ComputeMisCandidates(live);
    } else {
      ComputeTreeCandidates(live);
    }
    if (current_.candidates.size() >= opts_.min_candidates ||
        graph_.num_edges() == 0) {
      break;
    }
    // Too many suspicions (§4.2.3): G no longer leaves enough candidates;
    // discard old suspicions in log order until it does.
    DropOldestSuspicion();
  }

  if (current_.candidates != prev_candidates || current_.u != prev_u) {
    ++current_.epoch;
  }
}

void SuspicionMonitor::DropOldestSuspicion() {
  EdgeKey oldest;
  if (graph_.OldestEdge(&oldest)) {
    graph_.RemoveEdge(oldest.a, oldest.b);
    pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                  [&](const PendingEdge& p) { return p.edge == oldest; }),
                   pending_.end());
    return;
  }
  if (!crashed_order_.empty()) {
    const ReplicaId revived = crashed_order_.front();
    crashed_order_.erase(crashed_order_.begin());
    crashed_.erase(revived);
  }
}

void SuspicionMonitor::ComputeMisCandidates(const std::vector<ReplicaId>& live) {
  current_.candidates = MaximumIndependentSet(graph_, live, opts_.mis);
  current_.u = static_cast<uint32_t>(live.size() - current_.candidates.size());
}

void SuspicionMonitor::ComputeTreeCandidates(const std::vector<ReplicaId>& live) {
  const std::set<ReplicaId> live_set(live.begin(), live.end());

  // E_d: greedy maximal matching over edges in insertion order, then
  // augmenting swaps (drop one matched edge for two new ones) to fixpoint —
  // the "remove one edge and add two new ones" maintenance of §6.4.
  std::vector<EdgeKey> live_edges;
  for (const EdgeKey& e : graph_.ordered_edges()) {
    if (live_set.count(e.a) > 0 && live_set.count(e.b) > 0) {
      live_edges.push_back(e);
    }
  }

  std::set<ReplicaId> matched;
  e_d_.clear();
  auto greedy = [&] {
    for (const EdgeKey& e : live_edges) {
      if (matched.count(e.a) == 0 && matched.count(e.b) == 0) {
        e_d_.push_back(e);
        matched.insert(e.a);
        matched.insert(e.b);
      }
    }
  };
  greedy();
  for (bool improved = true; improved;) {
    improved = false;
    for (size_t i = 0; i < e_d_.size(); ++i) {
      const EdgeKey cur = e_d_[i];
      // Find free u adjacent to cur.a and free v adjacent to cur.b, u != v.
      for (const EdgeKey& e1 : live_edges) {
        ReplicaId u = kNoReplica;
        if (e1.a == cur.a && matched.count(e1.b) == 0) {
          u = e1.b;
        } else if (e1.b == cur.a && matched.count(e1.a) == 0) {
          u = e1.a;
        }
        if (u == kNoReplica) {
          continue;
        }
        for (const EdgeKey& e2 : live_edges) {
          ReplicaId v = kNoReplica;
          if (e2.a == cur.b && matched.count(e2.b) == 0) {
            v = e2.b;
          } else if (e2.b == cur.b && matched.count(e2.a) == 0) {
            v = e2.a;
          }
          if (v == kNoReplica || v == u) {
            continue;
          }
          // Swap: remove (a, b); add (u, a) and (b, v).
          e_d_[i] = EdgeKey::Make(u, cur.a);
          e_d_.push_back(EdgeKey::Make(cur.b, v));
          matched.insert(u);
          matched.insert(v);
          improved = true;
          break;
        }
        if (improved) {
          break;
        }
      }
      if (improved) {
        break;
      }
    }
    if (improved) {
      greedy();  // keep E_d maximal after the swap
    }
  }

  // T: free vertices forming a triangle with an edge of E_d.
  t_set_.clear();
  for (ReplicaId v : live) {
    if (matched.count(v) > 0) {
      continue;
    }
    for (const EdgeKey& e : e_d_) {
      if (graph_.HasEdge(v, e.a) && graph_.HasEdge(v, e.b)) {
        t_set_.push_back(v);
        break;
      }
    }
  }

  const std::set<ReplicaId> t_lookup(t_set_.begin(), t_set_.end());
  current_.candidates.clear();
  for (ReplicaId v : live) {
    if (matched.count(v) == 0 && t_lookup.count(v) == 0) {
      current_.candidates.push_back(v);
    }
  }
  current_.u = static_cast<uint32_t>(e_d_.size() + t_set_.size());
}

}  // namespace optilog
