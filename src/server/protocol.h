// QCP/1 — the qcached wire protocol (docs/SERVING.md is the normative
// spec; this header is its implementation and must stay byte-for-byte in
// agreement).
//
// Every frame is a fixed 12-byte little-endian header followed by `length`
// payload bytes:
//
//   offset  size  field
//   0       4     length      payload bytes after the header (u32)
//   4       1     version     protocol version, currently 1
//   5       1     opcode      Opcode below
//   6       2     flags       reserved, must be 0
//   8       4     request_id  client-chosen, echoed verbatim in responses
//
// A connection starts with a HELLO / HELLO_OK exchange that carries the
// protocol magic and negotiates the version; every later frame repeats the
// negotiated version in its header. Scalars, strings and values use the
// shared encoding in common/wire.h.
//
// @thread_safety Free functions only; everything here is pure and
// reentrant.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/wire.h"
#include "sql/result.h"
#include "storage/events.h"

namespace qc::server {

// The scalar/string/value codec lives in common/wire.h (spill payloads and
// durable tags share it); re-exported here as part of the QCP/1 surface.
using qc::WireReader;
using qc::WireWriter;

/// Protocol magic carried in the HELLO payload: "QCP1" read as a
/// little-endian u32.
inline constexpr uint32_t kProtocolMagic = 0x31504351;  // 'Q''C''P''1'

/// The one protocol version this build speaks.
inline constexpr uint8_t kProtocolVersion = 1;

/// Fixed frame header size in bytes.
inline constexpr size_t kFrameHeaderSize = 12;

/// Default ceiling on a single frame's payload; both sides refuse larger
/// frames with kErrTooLarge instead of buffering them.
inline constexpr uint32_t kDefaultMaxFrameBytes = 16u * 1024 * 1024;

/// Frame opcodes. Requests have the high bit clear, responses set.
enum class Opcode : uint8_t {
  // Requests.
  kHello = 0x01,      // magic + supported version range
  kQuery = 0x02,      // dynamic SQL (SELECT or DML) + params
  kPrepare = 0x03,    // SQL text -> session statement id
  kExecute = 0x04,    // statement id + params
  kStats = 0x05,      // engine/cache/DUP/server counters
  kDrain = 0x06,      // begin graceful drain (admin)
  kPing = 0x07,       // liveness probe
  kCloseStmt = 0x08,  // deallocate a session statement id
  kSubscribe = 0x09,  // join the CDC invalidation stream (docs/CLUSTER.md)
  kQuerySeq = 0x0A,   // SELECT that also reports the observed CDC sequence

  // Responses.
  kHelloOk = 0x81,     // negotiated version + server banner
  kResultSet = 0x82,   // SELECT result (QUERY / EXECUTE)
  kDmlOk = 0x83,       // DML result: affected row count
  kPrepared = 0x84,    // statement id + parameter count
  kStatsResult = 0x85, // counter list
  kDrainAck = 0x86,    // drain accepted
  kPong = 0x87,        // PING response
  kStmtClosed = 0x88,  // CLOSE_STMT response
  kSubscribed = 0x89,  // SUBSCRIBE accepted: current committed sequence
  kCdcEvent = 0x8A,    // server push: one serialized CDC record (request_id 0)
  kResultSetSeq = 0x8B,// QUERY_SEQ result: u64 observed seq + RESULT_SET payload
  kBusy = 0xBE,        // load shed: retry later (same payload shape as kError)
  kError = 0xEF,       // typed error
};

const char* OpcodeName(Opcode op);

/// Typed error codes carried by kError / kBusy payloads.
enum class ErrorCode : uint16_t {
  kParse = 1,               // SQL failed to parse
  kBind = 2,                // SQL failed to bind (unknown table/column, ...)
  kUnknownStatement = 3,    // EXECUTE/CLOSE_STMT with an unknown statement id
  kBadParams = 4,           // wrong parameter count for the statement
  kMalformedFrame = 5,      // undecodable payload, bad flags, missing HELLO
  kUnsupportedVersion = 6,  // HELLO version range does not include ours
  kDraining = 7,            // server is draining; no new work accepted
  kBusy = 8,                // global in-flight cap reached (kBusy frames)
  kTooLarge = 9,            // frame payload exceeds the negotiated maximum
  kStorage = 10,            // storage-layer error during execution
  kInternal = 11,           // anything else; message has details
};

const char* ErrorCodeName(ErrorCode code);

struct FrameHeader {
  uint32_t length = 0;
  uint8_t version = kProtocolVersion;
  Opcode opcode = Opcode::kPing;
  uint16_t flags = 0;
  uint32_t request_id = 0;
};

/// Serialize `header` into exactly kFrameHeaderSize bytes appended to `out`.
void EncodeFrameHeader(const FrameHeader& header, std::string& out);

/// Decode a header from exactly kFrameHeaderSize bytes. Throws
/// ProtocolError if fewer bytes are supplied; the opcode byte is preserved
/// verbatim (unknown opcodes are the dispatcher's problem, not a decode
/// failure).
FrameHeader DecodeFrameHeader(std::string_view bytes);

// --- Payload encodings shared by client and server -------------------------

/// RESULT_SET payload: u8 cache_hit, then the result body sql::EncodeResult
/// writes (u16 column_count, column names, u32 row_count, row-major values).
void EncodeResultSet(const sql::ResultSet& result, bool cache_hit, WireWriter& w);

struct DecodedResult {
  sql::ResultSet result;
  bool cache_hit = false;
};
DecodedResult DecodeResultSet(WireReader& r);

/// STATS_RESULT payload: u32 entry_count, then per entry a string key, a
/// u8 kind (0 = u64, 1 = f64) and 8 value bytes. Keys are dotted:
/// "engine.executions", "cache.hits", "dup.invalidations", "server.…".
struct StatsEntry {
  std::string key;
  uint8_t kind = 0;  // 0 = u64, 1 = f64
  uint64_t u64 = 0;
  double f64 = 0.0;
};
void EncodeStats(const std::vector<StatsEntry>& entries, WireWriter& w);
std::vector<StatsEntry> DecodeStats(WireReader& r);

/// One CDC stream record: a committed storage::UpdateBatch plus the
/// monotonically increasing stream sequence number the publishing node
/// assigned to it (docs/CLUSTER.md, "The CDC stream"). Unlike UpdateBatch
/// this is an owning copy — batches are views valid only inside the
/// database observer call, so the publisher copies before the statement
/// returns.
///
/// CDC_EVENT payload layout:
///   u64 seq, string table, u32 event_count, then per event:
///     u8  kind            (0 = UPDATE, 1 = INSERT, 2 = DELETE)
///     u64 row_id
///     u16 change_count, per change: u32 column, Value old, Value new
///     u32 before_count + Values (full before-image; empty for INSERT)
///     u32 after_count + Values  (full after-image; empty for DELETE)
struct CdcRecord {
  uint64_t seq = 0;
  std::string table;
  std::vector<storage::UpdateEvent> events;

  /// View of the owned events in the shape DupEngine::OnBatch consumes.
  storage::UpdateBatch AsBatch() const { return {table, events.data(), events.size()}; }
};

void EncodeCdcRecord(const CdcRecord& record, WireWriter& w);
CdcRecord DecodeCdcRecord(WireReader& r);

/// SUBSCRIBE payload: u64 last_seen_seq (0 on a fresh subscription). The
/// SUBSCRIBED response carries u64 current committed sequence; a subscriber
/// whose last_seen_seq lags it missed invalidations and must flush its
/// cache before admitting new fills (docs/CLUSTER.md, "Resubscribe gaps").

/// ERROR / BUSY payload: u16 ErrorCode + string message.
void EncodeError(ErrorCode code, std::string_view message, WireWriter& w);
struct DecodedError {
  ErrorCode code;
  std::string message;
};
DecodedError DecodeError(WireReader& r);

/// Build one complete frame (header + payload) ready to write to a socket.
std::string BuildFrame(Opcode opcode, uint32_t request_id, std::string_view payload,
                       uint8_t version = kProtocolVersion);

}  // namespace qc::server
