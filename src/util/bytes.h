// Byte-buffer serialization used for wire-size accounting (Fig. 13) and for
// hashing protocol messages. Encoding is little-endian and length-prefixed;
// there is no versioning because both ends are this codebase.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/util/check.h"

namespace optilog {

using Bytes = std::vector<uint8_t>;

// Appends fixed-width little-endian integers and length-prefixed blobs.
//
// A null `out` puts the writer in counting mode: nothing is stored, but
// size() still advances byte-for-byte. Message::WireSize() runs the same
// EncodeTo over a counting writer, so declared and serialized sizes cannot
// diverge.
class ByteWriter {
 public:
  explicit ByteWriter(Bytes* out) : out_(out) {}

  void U8(uint8_t v) {
    if (out_ != nullptr) {
      out_->push_back(v);
    }
    ++counted_;
  }

  void U16(uint16_t v) { AppendLe(v); }
  void U32(uint32_t v) { AppendLe(v); }
  void U64(uint64_t v) { AppendLe(v); }
  void I64(int64_t v) { AppendLe(static_cast<uint64_t>(v)); }

  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }

  // Raw bytes without a length prefix (fixed-width fields: digests,
  // signature bytes).
  void Raw(const uint8_t* data, size_t len) {
    if (out_ != nullptr) {
      Append(data, len);
    }
    counted_ += len;
  }

  // `len` zero bytes: synthetic payload whose length the decoder derives
  // from header fields (e.g. batch_size * cmd_bytes). O(1) in counting
  // mode, which keeps WireSize() cheap for large modeled payloads.
  void ZeroPad(size_t len) {
    if (out_ != nullptr) {
      out_->insert(out_->end(), len, 0);
    }
    counted_ += len;
  }

  void Blob(const uint8_t* data, size_t len) {
    U32(static_cast<uint32_t>(len));
    Raw(data, len);
  }
  void Blob(const Bytes& data) { Blob(data.data(), data.size()); }
  void Str(const std::string& s) {
    Blob(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  // Bytes written through this writer (== out->size() for a writer that
  // started on an empty buffer; counting-mode writers only have this).
  size_t size() const { return counted_; }

 private:
  // One append per value, not a push_back per byte: one capacity check and
  // at most one regrowth per field.
  template <typename T>
  void AppendLe(T v) {
    if (out_ != nullptr) {
      uint8_t le[sizeof(T)] = {};
      for (size_t i = 0; i < sizeof(T); ++i) {
        le[i] = static_cast<uint8_t>(v >> (8 * i));
      }
      Append(le, sizeof(T));
    }
    counted_ += sizeof(T);
  }

  // A resize and a copy, not a range insert at end(): GCC 12 at -O3 cannot
  // tell that such an insert moves no tail and warns on its inlined copies
  // (-Wstringop-overflow, -Warray-bounds), though none can overflow.
  void Append(const uint8_t* data, size_t len) {
    if (len == 0) {
      return;  // `data` may be null (an empty blob's)
    }
    const size_t at = out_->size();
    out_->resize(at + len);
    std::memcpy(out_->data() + at, data, len);
  }

  Bytes* out_;
  size_t counted_ = 0;
};

// Reads back what ByteWriter wrote. Truncated input does not abort: reads
// past the end yield zeros and clear ok(), which callers must check before
// trusting the decoded value — Byzantine proposers can commit arbitrary
// byte strings.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& in) : in_(in) {}

  // False once any read ran past the end of the input.
  bool ok() const { return ok_; }

  uint8_t U8() {
    if (pos_ >= in_.size()) {
      ok_ = false;
      return 0;
    }
    return in_[pos_++];
  }
  uint16_t U16() { return ReadLe<uint16_t>(); }
  uint32_t U32() { return ReadLe<uint32_t>(); }
  uint64_t U64() { return ReadLe<uint64_t>(); }
  int64_t I64() { return static_cast<int64_t>(ReadLe<uint64_t>()); }

  double F64() {
    const uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  // Fixed-width field without a length prefix (digests, signature bytes).
  // On truncation clears ok() and leaves `dst` zero-filled.
  void Raw(uint8_t* dst, size_t len) {
    if (pos_ + len > in_.size()) {
      ok_ = false;
      pos_ = in_.size();
      std::memset(dst, 0, len);
      return;
    }
    std::memcpy(dst, in_.data() + pos_, len);
    pos_ += len;
  }

  // Discards `len` bytes (synthetic zero payloads whose length the header
  // determines). Clears ok() on truncation.
  void Skip(size_t len) {
    if (len > in_.size() - pos_) {
      ok_ = false;
      pos_ = in_.size();
      return;
    }
    pos_ += len;
  }

  Bytes Blob() {
    const uint32_t len = U32();
    if (!ok_ || pos_ + len > in_.size()) {
      ok_ = false;
      return Bytes{};
    }
    Bytes out(in_.begin() + static_cast<long>(pos_),
              in_.begin() + static_cast<long>(pos_ + len));
    pos_ += len;
    return out;
  }
  std::string Str() {
    const Bytes b = Blob();
    return std::string(b.begin(), b.end());
  }

  bool Done() const { return pos_ == in_.size(); }
  size_t remaining() const { return in_.size() - pos_; }

 private:
  template <typename T>
  T ReadLe() {
    if (pos_ + sizeof(T) > in_.size()) {
      ok_ = false;
      pos_ = in_.size();
      return 0;
    }
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(in_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  const Bytes& in_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace optilog
