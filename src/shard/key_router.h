// KeyRouter: the partition function of the sharded KV keyspace.
//
// Every client, coordinator, and test agrees on ShardOf(key) — the router
// is pure arithmetic, shared by value, and never consulted by the shards
// themselves (a shard's state machine applies whatever its log commits).
// Keys are scattered with a splitmix64 finalizer so any key distribution
// balances across shards.
#pragma once

#include <cstdint>

namespace optilog {

class KeyRouter {
 public:
  KeyRouter() = default;
  explicit KeyRouter(uint32_t shards) : shards_(shards) {}

  uint32_t shards() const { return shards_; }

  uint32_t ShardOf(uint64_t key) const {
    if (shards_ <= 1) {
      return 0;
    }
    // splitmix64 finalizer: full-avalanche mix before the modulo.
    uint64_t x = key + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<uint32_t>(x % shards_);
  }

 private:
  uint32_t shards_ = 1;
};

}  // namespace optilog
