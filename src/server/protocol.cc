#include "server/protocol.h"

#include <algorithm>

namespace qc::server {

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kHello: return "HELLO";
    case Opcode::kQuery: return "QUERY";
    case Opcode::kPrepare: return "PREPARE";
    case Opcode::kExecute: return "EXECUTE";
    case Opcode::kStats: return "STATS";
    case Opcode::kDrain: return "DRAIN";
    case Opcode::kPing: return "PING";
    case Opcode::kCloseStmt: return "CLOSE_STMT";
    case Opcode::kSubscribe: return "SUBSCRIBE";
    case Opcode::kQuerySeq: return "QUERY_SEQ";
    case Opcode::kHelloOk: return "HELLO_OK";
    case Opcode::kResultSet: return "RESULT_SET";
    case Opcode::kDmlOk: return "DML_OK";
    case Opcode::kPrepared: return "PREPARED";
    case Opcode::kStatsResult: return "STATS_RESULT";
    case Opcode::kDrainAck: return "DRAIN_ACK";
    case Opcode::kPong: return "PONG";
    case Opcode::kStmtClosed: return "STMT_CLOSED";
    case Opcode::kSubscribed: return "SUBSCRIBED";
    case Opcode::kCdcEvent: return "CDC_EVENT";
    case Opcode::kResultSetSeq: return "RESULT_SET_SEQ";
    case Opcode::kBusy: return "BUSY";
    case Opcode::kError: return "ERROR";
  }
  return "UNKNOWN";
}

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kParse: return "PARSE";
    case ErrorCode::kBind: return "BIND";
    case ErrorCode::kUnknownStatement: return "UNKNOWN_STATEMENT";
    case ErrorCode::kBadParams: return "BAD_PARAMS";
    case ErrorCode::kMalformedFrame: return "MALFORMED_FRAME";
    case ErrorCode::kUnsupportedVersion: return "UNSUPPORTED_VERSION";
    case ErrorCode::kDraining: return "DRAINING";
    case ErrorCode::kBusy: return "BUSY";
    case ErrorCode::kTooLarge: return "TOO_LARGE";
    case ErrorCode::kStorage: return "STORAGE";
    case ErrorCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

void EncodeFrameHeader(const FrameHeader& header, std::string& out) {
  const auto put32 = [&out](uint32_t v) {
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
    out.push_back(static_cast<char>((v >> 16) & 0xff));
    out.push_back(static_cast<char>((v >> 24) & 0xff));
  };
  put32(header.length);
  out.push_back(static_cast<char>(header.version));
  out.push_back(static_cast<char>(header.opcode));
  out.push_back(static_cast<char>(header.flags & 0xff));
  out.push_back(static_cast<char>((header.flags >> 8) & 0xff));
  put32(header.request_id);
}

FrameHeader DecodeFrameHeader(std::string_view bytes) {
  if (bytes.size() < kFrameHeaderSize) {
    throw ProtocolError("frame header truncated");
  }
  const auto* p = reinterpret_cast<const uint8_t*>(bytes.data());
  const auto get32 = [p](size_t at) {
    return static_cast<uint32_t>(p[at]) | (static_cast<uint32_t>(p[at + 1]) << 8) |
           (static_cast<uint32_t>(p[at + 2]) << 16) | (static_cast<uint32_t>(p[at + 3]) << 24);
  };
  FrameHeader h;
  h.length = get32(0);
  h.version = p[4];
  h.opcode = static_cast<Opcode>(p[5]);
  h.flags = static_cast<uint16_t>(p[6] | (p[7] << 8));
  h.request_id = get32(8);
  return h;
}

void EncodeResultSet(const sql::ResultSet& result, bool cache_hit, WireWriter& w) {
  w.U8(cache_hit ? 1 : 0);
  sql::EncodeResult(result, w);
}

DecodedResult DecodeResultSet(WireReader& r) {
  const bool cache_hit = r.U8() != 0;
  return {sql::DecodeResult(r), cache_hit};
}

void EncodeStats(const std::vector<StatsEntry>& entries, WireWriter& w) {
  w.U32(static_cast<uint32_t>(entries.size()));
  for (const StatsEntry& e : entries) {
    w.Str(e.key);
    w.U8(e.kind);
    if (e.kind == 0) {
      w.U64(e.u64);
    } else {
      w.F64(e.f64);
    }
  }
}

std::vector<StatsEntry> DecodeStats(WireReader& r) {
  const uint32_t n = r.U32();
  std::vector<StatsEntry> entries;
  entries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    StatsEntry e;
    e.key = r.Str();
    e.kind = r.U8();
    if (e.kind == 0) {
      e.u64 = r.U64();
    } else if (e.kind == 1) {
      e.f64 = r.F64();
    } else {
      throw ProtocolError("unknown stats entry kind");
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

namespace {

// Event-kind tags on the wire (CDC_EVENT; spec: docs/CLUSTER.md).
constexpr uint8_t kKindUpdate = 0;
constexpr uint8_t kKindInsert = 1;
constexpr uint8_t kKindDelete = 2;

uint8_t KindTag(storage::UpdateEvent::Kind kind) {
  switch (kind) {
    case storage::UpdateEvent::Kind::kUpdate: return kKindUpdate;
    case storage::UpdateEvent::Kind::kInsert: return kKindInsert;
    case storage::UpdateEvent::Kind::kDelete: return kKindDelete;
  }
  throw ProtocolError("unrepresentable event kind");
}

storage::UpdateEvent::Kind KindFromTag(uint8_t tag) {
  switch (tag) {
    case kKindUpdate: return storage::UpdateEvent::Kind::kUpdate;
    case kKindInsert: return storage::UpdateEvent::Kind::kInsert;
    case kKindDelete: return storage::UpdateEvent::Kind::kDelete;
    default: throw ProtocolError("unknown CDC event kind tag");
  }
}

}  // namespace

void EncodeCdcRecord(const CdcRecord& record, WireWriter& w) {
  w.U64(record.seq);
  w.Str(record.table);
  w.U32(static_cast<uint32_t>(record.events.size()));
  for (const storage::UpdateEvent& event : record.events) {
    w.U8(KindTag(event.kind));
    w.U64(event.row);
    if (event.changes.size() > 0xffff) throw ProtocolError("too many attribute changes");
    w.U16(static_cast<uint16_t>(event.changes.size()));
    for (const storage::AttributeChange& change : event.changes) {
      w.U32(change.column);
      w.Val(change.old_value);
      w.Val(change.new_value);
    }
    w.U32(static_cast<uint32_t>(event.before.size()));
    for (const Value& v : event.before) w.Val(v);
    w.U32(static_cast<uint32_t>(event.after.size()));
    for (const Value& v : event.after) w.Val(v);
  }
}

CdcRecord DecodeCdcRecord(WireReader& r) {
  CdcRecord record;
  record.seq = r.U64();
  record.table = r.Str();
  const uint32_t nevents = r.U32();
  record.events.reserve(std::min<uint32_t>(nevents, 4096));
  for (uint32_t i = 0; i < nevents; ++i) {
    storage::UpdateEvent event;
    event.kind = KindFromTag(r.U8());
    event.table = record.table;
    event.row = r.U64();
    const uint16_t nchanges = r.U16();
    event.changes.reserve(nchanges);
    for (uint16_t c = 0; c < nchanges; ++c) {
      storage::AttributeChange change;
      change.column = r.U32();
      change.old_value = r.Val();
      change.new_value = r.Val();
      event.changes.push_back(std::move(change));
    }
    const uint32_t nbefore = r.U32();
    event.before.reserve(std::min<uint32_t>(nbefore, 4096));
    for (uint32_t c = 0; c < nbefore; ++c) event.before.push_back(r.Val());
    const uint32_t nafter = r.U32();
    event.after.reserve(std::min<uint32_t>(nafter, 4096));
    for (uint32_t c = 0; c < nafter; ++c) event.after.push_back(r.Val());
    record.events.push_back(std::move(event));
  }
  return record;
}

void EncodeError(ErrorCode code, std::string_view message, WireWriter& w) {
  w.U16(static_cast<uint16_t>(code));
  w.Str(message);
}

DecodedError DecodeError(WireReader& r) {
  DecodedError e;
  e.code = static_cast<ErrorCode>(r.U16());
  e.message = r.Str();
  return e;
}

std::string BuildFrame(Opcode opcode, uint32_t request_id, std::string_view payload,
                       uint8_t version) {
  FrameHeader h;
  h.length = static_cast<uint32_t>(payload.size());
  h.version = version;
  h.opcode = opcode;
  h.request_id = request_id;
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  EncodeFrameHeader(h, out);
  out.append(payload.data(), payload.size());
  return out;
}

}  // namespace qc::server
