#include "common/wire.h"

#include <cstring>

namespace qc {

namespace {

// Value type tags (spec: docs/SERVING.md "Primitive encodings").
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagInt = 1;
constexpr uint8_t kTagDouble = 2;
constexpr uint8_t kTagString = 3;

}  // namespace

void WireWriter::U16(uint16_t v) {
  out_.push_back(static_cast<char>(v & 0xff));
  out_.push_back(static_cast<char>((v >> 8) & 0xff));
}

void WireWriter::U32(uint32_t v) {
  U16(static_cast<uint16_t>(v & 0xffff));
  U16(static_cast<uint16_t>(v >> 16));
}

void WireWriter::U64(uint64_t v) {
  U32(static_cast<uint32_t>(v & 0xffffffffu));
  U32(static_cast<uint32_t>(v >> 32));
}

void WireWriter::F64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void WireWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  out_.append(s.data(), s.size());
}

void WireWriter::Val(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      U8(kTagNull);
      break;
    case ValueType::kInt:
      U8(kTagInt);
      I64(v.as_int());
      break;
    case ValueType::kDouble:
      U8(kTagDouble);
      F64(v.as_double());
      break;
    case ValueType::kString:
      U8(kTagString);
      Str(v.as_string());
      break;
  }
}

void WireWriter::Params(const std::vector<Value>& params) {
  if (params.size() > 0xffff) throw ProtocolError("too many parameters");
  U16(static_cast<uint16_t>(params.size()));
  for (const Value& p : params) Val(p);
}

std::string_view WireReader::Take(size_t n) {
  if (bytes_.size() - pos_ < n) throw ProtocolError("payload truncated");
  std::string_view out = bytes_.substr(pos_, n);
  pos_ += n;
  return out;
}

uint8_t WireReader::U8() { return static_cast<uint8_t>(Take(1)[0]); }

uint16_t WireReader::U16() {
  const auto* p = reinterpret_cast<const uint8_t*>(Take(2).data());
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t WireReader::U32() {
  const auto* p = reinterpret_cast<const uint8_t*>(Take(4).data());
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t WireReader::U64() {
  const uint64_t lo = U32();
  const uint64_t hi = U32();
  return lo | (hi << 32);
}

double WireReader::F64() {
  const uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::Str() {
  const uint32_t len = U32();
  return std::string(Take(len));
}

Value WireReader::Val() {
  switch (U8()) {
    case kTagNull: return Value::Null();
    case kTagInt: return Value(I64());
    case kTagDouble: return Value(F64());
    case kTagString: return Value(Str());
    default: throw ProtocolError("unknown value type tag");
  }
}

std::vector<Value> WireReader::Params() {
  const uint16_t n = U16();
  std::vector<Value> params;
  params.reserve(n);
  for (uint16_t i = 0; i < n; ++i) params.push_back(Val());
  return params;
}

void WireReader::ExpectEnd() const {
  if (pos_ != bytes_.size()) throw ProtocolError("trailing bytes in payload");
}

}  // namespace qc
