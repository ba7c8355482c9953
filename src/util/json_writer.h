// Minimal streaming JSON writer for bench/runner output.
//
// Determinism is the design constraint: the scenario runner's contract is
// that identical seeds produce byte-identical result JSON at any thread
// count (DESIGN.md, "Scenario runner"), so every value must format the same
// way on every run and every toolchain. Numbers go through std::to_chars
// (shortest round-trip form, locale-independent); keys are emitted in the
// order the caller writes them; no whitespace is inserted.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/check.h"

namespace optilog {

class JsonWriter {
 public:
  JsonWriter& BeginObject() {
    Comma();
    out_.push_back('{');
    fresh_.push_back(true);
    return *this;
  }
  JsonWriter& EndObject() {
    OL_CHECK(!fresh_.empty());
    fresh_.pop_back();
    out_.push_back('}');
    return *this;
  }
  JsonWriter& BeginArray() {
    Comma();
    out_.push_back('[');
    fresh_.push_back(true);
    return *this;
  }
  JsonWriter& EndArray() {
    OL_CHECK(!fresh_.empty());
    fresh_.pop_back();
    out_.push_back(']');
    return *this;
  }

  JsonWriter& Key(std::string_view k) {
    Comma();
    Quote(k);
    out_.push_back(':');
    pending_key_ = true;
    return *this;
  }

  JsonWriter& String(std::string_view v) {
    Comma();
    Quote(v);
    return *this;
  }
  JsonWriter& Int(int64_t v) { return Number(v); }
  JsonWriter& Uint(uint64_t v) { return Number(v); }
  JsonWriter& Double(double v) {
    OL_CHECK_MSG(std::isfinite(v), "JSON has no inf/nan");
    Comma();
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out_.append(buf, static_cast<size_t>(res.ptr - buf));
    return *this;
  }
  JsonWriter& Bool(bool v) {
    Comma();
    out_.append(v ? "true" : "false");
    return *this;
  }

  // The finished document. Callers are expected to have closed every
  // object/array they opened.
  const std::string& str() const {
    OL_CHECK(fresh_.empty());
    return out_;
  }

 private:
  template <typename T>
  JsonWriter& Number(T v) {
    Comma();
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out_.append(buf, static_cast<size_t>(res.ptr - buf));
    return *this;
  }

  // Inserts the separating comma for the second and later elements of the
  // enclosing container; a value directly following its key never takes one.
  void Comma() {
    if (pending_key_) {
      pending_key_ = false;
      return;
    }
    if (!fresh_.empty()) {
      if (!fresh_.back()) {
        out_.push_back(',');
      }
      fresh_.back() = false;
    }
  }

  void Quote(std::string_view s) {
    out_.push_back('"');
    for (char c : s) {
      switch (c) {
        case '"':
          out_.append("\\\"");
          break;
        case '\\':
          out_.append("\\\\");
          break;
        case '\n':
          out_.append("\\n");
          break;
        case '\r':
          out_.append("\\r");
          break;
        case '\t':
          out_.append("\\t");
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_.append(buf);
          } else {
            out_.push_back(c);
          }
      }
    }
    out_.push_back('"');
  }

  std::string out_;
  std::vector<bool> fresh_;  // per open container: no element written yet
  bool pending_key_ = false;
};

}  // namespace optilog
