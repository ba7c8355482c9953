#include "src/workload/request_queue.h"

#include <algorithm>

namespace optilog {

RequestQueue::Admit RequestQueue::Push(const RequestRef& req, SimTime now) {
  ClientWindow& w = windows_[{req.client, req.shard}];
  const uint64_t id = req.request_id;
  auto pos = w.ids.end();  // an id above every windowed one appends
  if (w.head < w.ids.size() && id <= w.ids.back()) {
    pos = std::lower_bound(w.ids.begin() + w.head, w.ids.end(), id);
  }
  if (id < w.floor || (pos != w.ids.end() && *pos == id)) {
    ++duplicates_;
    return Admit::kDuplicate;
  }
  if (queue_.size() >= policy_.max_queue) {
    ++dropped_;
    return Admit::kDropped;
  }
  w.ids.insert(pos, id);
  // Keep the window bounded: requests commit roughly FIFO per client, so the
  // smallest ids are the ones whose retries can no longer be in flight.
  if (w.ids.size() - w.head > kWindowSize) {
    w.floor = w.ids[w.head] + 1;
    if (++w.head == kWindowSize) {
      w.ids.erase(w.ids.begin(), w.ids.begin() + kWindowSize);
      w.head = 0;
    }
  }
  queue_.push_back(Entry{req, now});
  ++accepted_;
  peak_depth_ = std::max(peak_depth_, queue_.size());
  return Admit::kAccepted;
}

void RequestQueue::Requeue(std::vector<RequestRef> batch, SimTime now) {
  for (size_t i = batch.size(); i > 0; --i) {
    queue_.push_front(Entry{std::move(batch[i - 1]), now});
  }
  peak_depth_ = std::max(peak_depth_, queue_.size());
}

std::vector<RequestRef> RequestQueue::PopBatch(SimTime now,
                                               BatchTrigger trigger) {
  std::vector<RequestRef> batch;
  const size_t take =
      std::min<size_t>(queue_.size(), policy_.max_batch);
  batch.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(queue_.front().req));
    queue_.pop_front();
  }
  if (take > 0) {
    switch (trigger) {
      case BatchTrigger::kSize:
        ++batches_size_triggered_;
        break;
      case BatchTrigger::kDeadline:
        ++batches_deadline_triggered_;
        break;
      case BatchTrigger::kIdle:
        ++batches_idle_triggered_;
        break;
    }
  }
  (void)now;
  return batch;
}

}  // namespace optilog
