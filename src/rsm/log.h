// The append-only log at the heart of OptiLog (§1, §4).
//
// Consensus decides a total order of entries; each entry is either a batch
// of client commands or an OptiLog measurement. Every replica holds its own
// Log instance, and the protocol appends entries in commit order — so all
// correct replicas observe identical logs, which is the property that makes
// monitor state deterministic (§4.1). The log keeps a running SHA-256 chain
// over entries; tests compare chain heads across replicas to prove
// determinism.
//
// Checkpointing (src/statemachine/) bounds the log's memory: TruncateTo
// drops an already-snapshotted prefix and records the truncation point as
// `base_index`/`base_head`. The chain head is computed incrementally at
// append time, so it is invariant to where (or whether) the prefix was
// truncated — equal heads keep implying equal full histories. Entries are
// addressed by their immutable log index through EntryAt; raw slot access
// does not exist, so no caller can silently read a truncated position.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/crypto/signature.h"
#include "src/sim/time.h"
#include "src/util/bytes.h"

namespace optilog {

enum class EntryKind : uint8_t {
  kCommandBatch = 0,   // client commands (encoded state-machine operations)
  kMeasurement = 1,    // OptiLog sensor record (core/measurement.h encoding)
};

struct LogEntry {
  uint64_t index = 0;
  EntryKind kind = EntryKind::kCommandBatch;
  ReplicaId proposer = kNoReplica;
  // When this replica committed the entry. Deliberately NOT part of the
  // chain hash: PBFT replicas commit the same entry at different instants.
  SimTime committed_at = 0;
  uint32_t batch_size = 0;  // number of client commands (command batches)
  Bytes payload;            // encoded ops (commands) / encoding (measurements)
};

// One chain link, memoized: appending an entry at `index` onto head `from`
// gives head `to`. Replicas appending one committed entry share a step, so
// it is hashed once. A log takes the step only at its own head and index,
// so a diverged replica keeps its own chain. A step holds for one entry's
// content (kind, proposer, batch size, payload) only.
struct ChainStep {
  Digest from{};
  uint64_t index = ~uint64_t{0};  // none recorded yet
  Digest to{};
};

class Log {
 public:
  using CommitListener = std::function<void(const LogEntry&)>;

  // Appends in commit order (the entry's index is assigned here); notifies
  // listeners synchronously, in registration order, so downstream monitors
  // see entries identically ordered on every replica. With `step`, takes
  // the memoized chain link when it starts at this log's head and index,
  // and otherwise hashes and records the link it computed there.
  void Append(LogEntry entry, ChainStep* step = nullptr);

  void AddListener(CommitListener listener) {
    listeners_.push_back(std::move(listener));
  }

  // In-memory entries (after truncation); next_index() - base_index().
  size_t size() const { return entries_.size(); }
  // Index the next appended entry will get; also the applied frontier of a
  // state machine that executes every entry.
  uint64_t next_index() const { return base_index_ + entries_.size(); }
  // First log index still held in memory.
  uint64_t base_index() const { return base_index_; }
  bool Has(uint64_t log_index) const {
    return log_index >= base_index_ && log_index < next_index();
  }
  // Entry at an absolute log index; aborts on a truncated or future slot.
  const LogEntry& EntryAt(uint64_t log_index) const;

  // SHA-256 chain head over all entries ever appended (truncation does not
  // rewind it); equal heads imply equal logs with overwhelming probability.
  const Digest& head() const { return head_; }
  // Chain head immediately after EntryAt(log_index) was appended — what a
  // state-transfer donor quotes so the recovering replica can verify its
  // replayed suffix chunk by chunk.
  const Digest& HeadAt(uint64_t log_index) const;
  // Chain head at the truncation point (all-zeros before any truncation /
  // restore).
  const Digest& base_head() const { return base_head_; }

  // Drops all entries with index < first_kept. The caller must have
  // snapshotted the prefix (see src/statemachine/replica_rsm.h); the chain
  // head and all future appends are unaffected.
  void TruncateTo(uint64_t first_kept);

  // Restarts the log at `base_index` with `base_head` as the chain head —
  // how a recovering replica adopts a transferred snapshot's position before
  // replaying the suffix. Discards all current entries and counters.
  void ResetToBase(uint64_t base_index, const Digest& base_head);

  uint64_t total_commands() const { return total_commands_; }
  // High-water mark of in-memory entries — the number truncation bounds.
  size_t peak_size() const { return peak_size_; }
  uint64_t truncations() const { return truncations_; }

 private:
  std::vector<LogEntry> entries_;
  // Chain head after entries_[i]; parallel to entries_, truncated with them.
  std::vector<Digest> heads_;
  std::vector<CommitListener> listeners_;
  uint64_t base_index_ = 0;
  Digest base_head_{};
  Digest head_{};
  uint64_t total_commands_ = 0;
  size_t peak_size_ = 0;
  uint64_t truncations_ = 0;
};

// Commits an encoded measurement: the one step every sensor emission takes
// onto the bus.
inline void AppendMeasurement(Log& log, SimTime now, Bytes payload) {
  LogEntry e;
  e.kind = EntryKind::kMeasurement;
  e.committed_at = now;
  e.payload = std::move(payload);
  log.Append(std::move(e));
}

}  // namespace optilog
