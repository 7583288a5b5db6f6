// The one byte encoding of scalars, strings and `qc::Value`s: QCP/1 frame
// payloads and CDC records (src/server/protocol.h) and the GPS cache's spill
// payloads and durable tags (src/middleware/result_value.h) are all written
// by WireWriter and read back by WireReader. docs/SERVING.md ("Primitive
// encodings") is the normative spec:
//
//   u8/u16/u32/u64  little-endian, fixed width
//   i64             u64 two's-complement
//   f64             IEEE-754 bits as u64
//   string          u32 byte length + bytes (no terminator; may contain NUL)
//   value           u8 type tag (0=NULL, 1=INT, 2=DOUBLE, 3=STRING) followed
//                   by nothing / i64 / f64 / string
//   params          u16 count + that many values
//
// @thread_safety Instances are not shared across threads.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/value.h"

namespace qc {

/// Append-only little-endian payload builder.
class WireWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);
  void Str(std::string_view s);  // u32 length + bytes
  void Val(const Value& v);      // u8 type tag + payload
  /// u16 count + values; throws ProtocolError above 65535 values.
  void Params(const std::vector<Value>& params);

  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked little-endian payload reader. Every method throws
/// ProtocolError on underflow or a malformed tag.
class WireReader {
 public:
  explicit WireReader(std::string_view bytes) : bytes_(bytes) {}

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64();
  std::string Str();
  Value Val();
  std::vector<Value> Params();

  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }
  /// Call when a payload must have been fully consumed; trailing garbage is
  /// an error (catches mis-framed input early).
  void ExpectEnd() const;

 private:
  std::string_view Take(size_t n);
  std::string_view bytes_;
  size_t pos_ = 0;
};

}  // namespace qc
