#include "src/rsm/log.h"

#include "src/util/check.h"

namespace optilog {

void Log::Append(LogEntry entry, ChainStep* step) {
  entry.index = next_index();
  if (entry.kind == EntryKind::kCommandBatch) {
    total_commands_ += entry.batch_size;
  }

  if (step != nullptr && step->index == entry.index && step->from == head_) {
    head_ = step->to;
  } else {
    // Chain input: head | index | kind | proposer | batch_size | payload
    // blob. The payload is streamed into the hash, not copied behind the
    // fixed fields.
    Bytes fixed;
    fixed.reserve(head_.size() + 21);
    ByteWriter w(&fixed);
    w.Raw(head_.data(), head_.size());
    w.U64(entry.index);
    w.U8(static_cast<uint8_t>(entry.kind));
    w.U32(entry.proposer);
    w.U32(entry.batch_size);
    w.U32(static_cast<uint32_t>(entry.payload.size()));
    Sha256 sha;
    sha.Update(fixed);
    sha.Update(entry.payload);
    const Digest from = head_;
    head_ = sha.Finish();
    if (step != nullptr) {
      *step = ChainStep{from, entry.index, head_};
    }
  }

  entries_.push_back(std::move(entry));
  heads_.push_back(head_);
  if (entries_.size() > peak_size_) {
    peak_size_ = entries_.size();
  }
  if (listeners_.empty()) {
    return;
  }
  // Notify from a local copy: a listener may append again (e.g. a sensor
  // reciprocating a committed suspicion), reallocating entries_ mid-loop.
  const LogEntry appended = entries_.back();
  for (size_t i = 0; i < listeners_.size(); ++i) {
    listeners_[i](appended);
  }
}

const LogEntry& Log::EntryAt(uint64_t log_index) const {
  OL_CHECK_MSG(Has(log_index), "log index truncated or not yet appended");
  return entries_[static_cast<size_t>(log_index - base_index_)];
}

const Digest& Log::HeadAt(uint64_t log_index) const {
  OL_CHECK_MSG(Has(log_index), "log index truncated or not yet appended");
  return heads_[static_cast<size_t>(log_index - base_index_)];
}

void Log::TruncateTo(uint64_t first_kept) {
  OL_CHECK_MSG(first_kept <= next_index(), "cannot truncate past the frontier");
  if (first_kept <= base_index_) {
    return;  // nothing new to drop
  }
  const size_t drop = static_cast<size_t>(first_kept - base_index_);
  base_head_ = heads_[drop - 1];
  entries_.erase(entries_.begin(), entries_.begin() + static_cast<long>(drop));
  heads_.erase(heads_.begin(), heads_.begin() + static_cast<long>(drop));
  base_index_ = first_kept;
  ++truncations_;
}

void Log::ResetToBase(uint64_t base_index, const Digest& base_head) {
  entries_.clear();
  heads_.clear();
  base_index_ = base_index;
  base_head_ = base_head;
  head_ = base_head;
  total_commands_ = 0;
  peak_size_ = 0;
  truncations_ = 0;
}

}  // namespace optilog
