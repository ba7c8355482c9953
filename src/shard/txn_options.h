// Knobs for the cross-shard transaction workload (src/shard/txn_fleet.*).
//
// Kept dependency-light (time only) so Deployment::Builder can hold it by
// value — WithTxnWorkload is Clone-safe like every other builder knob —
// without pulling the shard subsystem into src/api/ headers.
#pragma once

#include <cstdint>

#include "src/sim/time.h"

namespace optilog {

struct TxnWorkloadOptions {
  // Transaction clients per shard (total fleet = clients_per_shard *
  // shards). BuildSharded requires at least one; 0 means WithTxnWorkload was
  // never called.
  uint32_t clients_per_shard = 0;
  uint32_t keys_per_txn = 2;
  // Private keys per (client, shard) bucket; like the single-group
  // workload, private key ranges are what make the model oracle exact.
  uint32_t keys_per_client_shard = 8;
  uint32_t get_pct = 25;  // reads
  uint32_t put_pct = 50;  // blind writes; the remainder are read-modify-adds
  // Contention: this percentage of transactions swap their first op onto a
  // shared hot key (drawn from `hot_keys`), which is what makes prepare
  // locks actually conflict. Hot-key results are not oracle-checked (the
  // keys are shared), and a single-shard draw only uses hot keys living on
  // its own shard, so a 0% cross-shard point stays purely single-shard.
  uint32_t hot_pct = 0;
  uint32_t hot_keys = 8;
  SimTime think_time = 0;         // closed loop: pause after each completion
  SimTime retry_timeout = 400 * kMsec;  // unanswered attempt: re-send
  // Stop issuing new transactions at this time (0 = never): lets tests
  // drain in-flight 2PC state to empty before digest comparison.
  SimTime stop_at = 0;
  uint64_t seed = 1;
};

}  // namespace optilog
