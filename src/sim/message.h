// Base type for simulated protocol messages, the intrusive refcounted
// pointer that shares them, and the size-classed pool they are carved from.
//
// Messages are immutable once sent; the network hands the same MessagePtr to
// every multicast recipient. Each protocol defines its own subclasses and
// downcasts on a type tag. Every subclass implements EncodeTo() — the
// canonical wire encoding — and WireSize() is NON-virtual: it runs EncodeTo
// over a counting ByteWriter once and caches the result, so the bytes the
// network charges for bandwidth are exactly the bytes a decoder would read
// (src/wire/codec.h holds the (family, type) -> decoder registry).
//
// Threading contract: the refcount is deliberately NON-atomic. A message is
// confined to the simulator (deployment) that created it for its whole life
// — construction, every Send/Multicast fan-out, delivery, and destruction
// all happen on the one thread driving that simulator. Sweep-level
// parallelism (src/runner/) runs whole deployments on different threads and
// never shares a message between them, so plain increments are safe and TSan
// stays quiet. Anything that would move a message across simulators must
// copy the payload instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/bytes.h"

namespace optilog {

class MessagePool;

// Message namespace discriminator: protocol-scoped type tags (int type())
// are only unique within a family — the statemachine and shard layers both
// start at 40. The (family, type) pair keys the decode registry and rides
// the wire as a 2-byte frame header (src/wire/codec.h).
enum class MsgFamily : uint8_t {
  kHotStuff = 1,  // Propose / Vote / Aggregate (src/hotstuff/)
  kPbft = 2,      // PrePrepare / Write / Accept (src/pbft/)
  kWorkload = 3,  // ClientRequest / ClientReply (src/workload/)
  kState = 4,     // state-transfer fetch/chunk messages (src/statemachine/)
  kShard = 5,     // TxnRequest / TxnReply (src/shard/)
};

class Message {
 public:
  Message() = default;
  // Copies are fresh objects: the refcount / pool identity of the source
  // never transfers (a forwarded ProposeMsg is a new allocation). The
  // wire-size cache stays behind too: the copy may be mutated before send.
  Message(const Message&) {}
  Message& operator=(const Message&) { return *this; }
  virtual ~Message() = default;

  // Protocol-scoped discriminator; protocols define their own enums.
  virtual int type() const = 0;

  // Which registry namespace type() lives in.
  virtual MsgFamily family() const = 0;

  // Canonical wire encoding of the message body. The (family, type) frame
  // header is out-of-band (written by EncodeMessage / read by
  // DecodeMessage), so flags folded into the type tag — forwarded,
  // accept — never repeat inside the body.
  virtual void EncodeTo(ByteWriter& w) const = 0;

  // Serialized body size in bytes, computed from the actual encoding (one
  // counting-mode EncodeTo pass, cached — messages are immutable once
  // sent). Deliberately non-virtual: subclasses cannot declare a size
  // different from what they encode.
  size_t WireSize() const {
    if (wire_size_ == 0) {
      ByteWriter counter(nullptr);
      EncodeTo(counter);
      wire_size_ = static_cast<uint32_t>(counter.size());
    }
    return wire_size_;
  }

  // Live references (for tests asserting fan-out sharing).
  uint32_t ref_count() const { return refs_; }

 private:
  template <typename T>
  friend class IntrusivePtr;
  friend class MessagePool;
  friend class Simulator;  // bulk multicast: one AddRef(n-1) per fan-out

  void AddRef(uint32_t k = 1) const { refs_ += k; }
  void Release() const;  // defined after MessagePool

  // Mutable: refcounting happens through const Message (MessagePtr aliases
  // an immutable message). Single-threaded by the confinement contract.
  mutable uint32_t refs_ = 0;
  // Pool that owns the storage, or nullptr for plain heap (MakeMessage
  // fallback used by tests and cold paths). Set by MessagePool::Make after
  // construction; never copied.
  MessagePool* pool_ = nullptr;
  uint32_t size_class_ = 0;
  // WireSize() memo; 0 = not yet computed (no message encodes to zero
  // bytes). Sits in what was base-class tail padding, so no subclass
  // layout — and hence no MessagePool size class — moves.
  mutable uint32_t wire_size_ = 0;
};

// Intrusive smart pointer over Message subclasses: copy bumps the embedded
// refcount, destruction releases it — no control block, no atomics. The raw
// Adopt/Detach seam exists for the simulator's bulk multicast path, which
// moves one logical reference per slab slot without touching the count per
// recipient.
template <typename T>
class IntrusivePtr {
 public:
  IntrusivePtr() = default;
  IntrusivePtr(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  explicit IntrusivePtr(T* p) : p_(p) {
    if (p_ != nullptr) {
      p_->AddRef();
    }
  }

  IntrusivePtr(const IntrusivePtr& o) : p_(o.p_) {
    if (p_ != nullptr) {
      p_->AddRef();
    }
  }
  IntrusivePtr(IntrusivePtr&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }

  // Converting copy/move (e.g. IntrusivePtr<VoteMsg> -> MessagePtr).
  template <typename U,
            typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  IntrusivePtr(const IntrusivePtr<U>& o)  // NOLINT(google-explicit-constructor)
      : p_(o.get()) {
    if (p_ != nullptr) {
      p_->AddRef();
    }
  }
  template <typename U,
            typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  IntrusivePtr(IntrusivePtr<U>&& o) noexcept  // NOLINT(google-explicit-constructor)
      : p_(o.Detach()) {}

  IntrusivePtr& operator=(const IntrusivePtr& o) {
    IntrusivePtr(o).swap(*this);
    return *this;
  }
  IntrusivePtr& operator=(IntrusivePtr&& o) noexcept {
    IntrusivePtr(std::move(o)).swap(*this);
    return *this;
  }
  IntrusivePtr& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  ~IntrusivePtr() {
    if (p_ != nullptr) {
      p_->Release();
    }
  }

  // Wraps an already-counted reference without bumping the count.
  static IntrusivePtr Adopt(T* p) {
    IntrusivePtr r;
    r.p_ = p;
    return r;
  }
  // Surrenders the reference without releasing it (inverse of Adopt).
  T* Detach() {
    T* p = p_;
    p_ = nullptr;
    return p;
  }

  void reset() {
    if (p_ != nullptr) {
      p_->Release();
      p_ = nullptr;
    }
  }
  void swap(IntrusivePtr& o) noexcept { std::swap(p_, o.p_); }

  T* get() const { return p_; }
  T& operator*() const { return *p_; }
  T* operator->() const { return p_; }
  explicit operator bool() const { return p_ != nullptr; }

  friend bool operator==(const IntrusivePtr& a, const IntrusivePtr& b) {
    return a.p_ == b.p_;
  }
  friend bool operator!=(const IntrusivePtr& a, const IntrusivePtr& b) {
    return a.p_ != b.p_;
  }
  friend bool operator==(const IntrusivePtr& a, std::nullptr_t) {
    return a.p_ == nullptr;
  }
  friend bool operator!=(const IntrusivePtr& a, std::nullptr_t) {
    return a.p_ != nullptr;
  }

 private:
  T* p_ = nullptr;
};

using MessagePtr = IntrusivePtr<const Message>;

// Per-deployment free-list pool of message storage, size-classed in 64-byte
// steps. Owned by the Simulator (so it outlives every pending slab slot that
// holds a MessagePtr) and shared by everything scheduling on it. A Make hit
// pops a recycled block of the right class; a miss (cold start, or a new
// high-water mark of live messages) takes one operator new that later
// recycles forever. Single-threaded by the Message confinement contract.
class MessagePool {
 public:
  MessagePool() = default;
  MessagePool(const MessagePool&) = delete;
  MessagePool& operator=(const MessagePool&) = delete;
  ~MessagePool() {
    for (auto& cls : free_) {
      for (void* block : cls.blocks) {
        ::operator delete(block);
      }
    }
  }

  template <typename T, typename... Args>
  IntrusivePtr<T> Make(Args&&... args) {
    static_assert(std::is_base_of_v<Message, T>);
    constexpr uint32_t cls = ClassOf(sizeof(T));
    void* block;
    if (cls < kNumClasses && !free_[cls].blocks.empty()) {
      block = free_[cls].blocks.back();
      free_[cls].blocks.pop_back();
      ++hits_;
    } else {
      block = ::operator new(cls < kNumClasses ? BlockSize(cls) : sizeof(T));
      ++misses_;
    }
    T* p = new (block) T(std::forward<Args>(args)...);
    // Oversize messages (beyond the largest class) are heap one-offs: the
    // Release path sees pool_ == nullptr and plain-deletes them.
    if (cls < kNumClasses) {
      p->pool_ = this;
      p->size_class_ = cls;
    }
    return IntrusivePtr<T>(p);
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  friend class Message;

  static constexpr uint32_t kNumClasses = 8;  // 64, 128, ..., 512 bytes
  static constexpr size_t BlockSize(uint32_t cls) { return (cls + 1) * 64; }
  static constexpr uint32_t ClassOf(size_t size) {
    return static_cast<uint32_t>((size + 63) / 64) - 1;
  }

  void Recycle(const Message* m) {
    const uint32_t cls = m->size_class_;
    void* block = const_cast<void*>(static_cast<const void*>(m));
    const_cast<Message*>(m)->~Message();
    free_[cls].blocks.push_back(block);
  }

  struct FreeList {
    std::vector<void*> blocks;
  };
  FreeList free_[kNumClasses];
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

inline void Message::Release() const {
  if (--refs_ == 0) {
    if (pool_ != nullptr) {
      pool_->Recycle(this);
    } else {
      delete this;
    }
  }
}

// Plain-heap construction for call sites without a pool in reach (unit
// tests, one-off scenario hooks). Interchangeable with MessagePool::Make.
template <typename T, typename... Args>
IntrusivePtr<T> MakeMessage(Args&&... args) {
  return IntrusivePtr<T>(new T(std::forward<Args>(args)...));
}

}  // namespace optilog
