// Self-describing on-disk format for GPS-cache spill files.
//
// Each DiskStore entry is one file holding one record:
//
//   offset  size  field
//   0       4     magic "QCSP"
//   4       4     format version (currently 2)
//   8       4     key length
//   12      4     durable-tag length
//   16      8     payload length
//   24      8     absolute expiration, wall-clock microseconds since the
//                 Unix epoch (-1 = never expires)
//   32      4     CRC-32 over key + tag + payload
//   36      ...   key bytes, tag bytes, payload bytes (concatenated)
//
// The header makes every spill file independently recoverable after an
// unclean shutdown: a directory scan can rebuild the index (key, size),
// re-arm expiration (wall-clock, so it survives process restarts), and
// hand the durable tag — an opaque annotation the middleware uses to
// re-register the entry's ODG dependencies — back to higher layers. The
// CRC turns torn writes and bit rot into a detectable decode failure
// instead of garbage served to a client. Integers are host-endian: spill
// files are a local cache tier, not an interchange format.
//
// @thread_safety Pure functions; safe from any thread.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace qc::cache {

inline constexpr char kSpillMagic[4] = {'Q', 'C', 'S', 'P'};
// Version 2: the middleware's payloads and durable tags use the QCP/1 value
// encoding (common/wire.h); version-1 files carried a retired text format
// and fail DecodeSpillRecord, so recovery quarantines them.
inline constexpr uint32_t kSpillVersion = 2;
inline constexpr size_t kSpillHeaderBytes = 36;

/// Expiration sentinel: the entry never expires.
inline constexpr int64_t kNoExpiry = -1;

struct SpillRecord {
  std::string key;
  /// Opaque higher-layer annotation persisted with the value (the
  /// middleware stores the statement's canonical SQL + parameters here so
  /// DUP registration can be rebuilt on recovery). May be empty.
  std::string durable_tag;
  int64_t expires_at_micros = kNoExpiry;
  std::string payload;
};

/// Serialize a record (header + CRC + body) into one byte string.
std::string EncodeSpillRecord(std::string_view key, std::string_view durable_tag,
                              int64_t expires_at_micros, std::string_view payload);

/// Total file size EncodeSpillRecord would produce; the DiskStore accounts
/// budgets against this, not the bare payload.
inline size_t SpillRecordBytes(size_t key_bytes, size_t tag_bytes, size_t payload_bytes) {
  return kSpillHeaderBytes + key_bytes + tag_bytes + payload_bytes;
}

/// Parse and verify one record. Returns false — without throwing — on any
/// structural problem: bad magic, unknown version, lengths inconsistent
/// with the buffer, or CRC mismatch.
bool DecodeSpillRecord(std::string_view bytes, SpillRecord* out);

}  // namespace qc::cache
