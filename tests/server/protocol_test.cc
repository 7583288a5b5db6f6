// QCP/1 encoding round-trips and malformed-input rejection
// (docs/SERVING.md is the spec; these tests pin the byte layout).
#include "server/protocol.h"

#include <gtest/gtest.h>

#include <limits>

namespace qc::server {
namespace {

TEST(FrameHeader, RoundTripsAllFields) {
  FrameHeader h;
  h.length = 0xdeadbeef;
  h.version = 7;
  h.opcode = Opcode::kStatsResult;
  h.flags = 0x1234;
  h.request_id = 0xcafef00d;
  std::string bytes;
  EncodeFrameHeader(h, bytes);
  ASSERT_EQ(bytes.size(), kFrameHeaderSize);

  const FrameHeader d = DecodeFrameHeader(bytes);
  EXPECT_EQ(d.length, h.length);
  EXPECT_EQ(d.version, h.version);
  EXPECT_EQ(d.opcode, h.opcode);
  EXPECT_EQ(d.flags, h.flags);
  EXPECT_EQ(d.request_id, h.request_id);
}

TEST(FrameHeader, ByteLayoutIsLittleEndianAndFixed) {
  // The exact layout promised by docs/SERVING.md: length u32 LE, version,
  // opcode, flags u16 LE, request_id u32 LE.
  FrameHeader h;
  h.length = 0x04030201;
  h.version = 1;
  h.opcode = Opcode::kQuery;  // 0x02
  h.flags = 0x0605;
  h.request_id = 0x0a090807;
  std::string bytes;
  EncodeFrameHeader(h, bytes);
  const uint8_t expected[kFrameHeaderSize] = {0x01, 0x02, 0x03, 0x04, 0x01, 0x02,
                                              0x05, 0x06, 0x07, 0x08, 0x09, 0x0a};
  ASSERT_EQ(bytes.size(), sizeof(expected));
  for (size_t i = 0; i < sizeof(expected); ++i) {
    EXPECT_EQ(static_cast<uint8_t>(bytes[i]), expected[i]) << "byte " << i;
  }
}

TEST(FrameHeader, TruncatedHeaderThrows) {
  EXPECT_THROW(DecodeFrameHeader(std::string(kFrameHeaderSize - 1, '\0')), ProtocolError);
}

TEST(Wire, ScalarsRoundTrip) {
  WireWriter w;
  w.U8(0xab);
  w.U16(0xbeef);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefull);
  w.I64(-42);
  w.F64(3.25);
  w.Str("hello");
  w.Str("");
  w.Str(std::string("nul\0byte", 8));

  WireReader r(w.bytes());
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U16(), 0xbeef);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_EQ(r.F64(), 3.25);
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.Str(), "");
  EXPECT_EQ(r.Str(), std::string("nul\0byte", 8));
  EXPECT_TRUE(r.AtEnd());
}

TEST(Wire, ValuesRoundTrip) {
  const std::vector<Value> values = {
      Value::Null(),
      Value(int64_t{0}),
      Value(int64_t{-123456789}),
      Value(std::numeric_limits<int64_t>::min()),
      Value(std::numeric_limits<int64_t>::max()),
      Value(0.0),
      Value(-1.5e300),
      Value(""),
      Value("it's quoted"),
      Value(std::string(100000, 'x')),
  };
  WireWriter w;
  w.Params(values);
  WireReader r(w.bytes());
  const std::vector<Value> decoded = r.Params();
  r.ExpectEnd();
  ASSERT_EQ(decoded.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(decoded[i].type(), values[i].type()) << i;
    EXPECT_EQ(decoded[i], values[i]) << i;
  }
}

TEST(Wire, ResultSetRoundTrips) {
  sql::ResultSet rs({"ID", "NAME", "SCORE"});
  rs.AddRow({Value(1), Value("alpha"), Value(1.5)});
  rs.AddRow({Value(2), Value::Null(), Value(-2.0)});

  WireWriter w;
  EncodeResultSet(rs, /*cache_hit=*/true, w);
  WireReader r(w.bytes());
  const DecodedResult decoded = DecodeResultSet(r);
  r.ExpectEnd();

  EXPECT_TRUE(decoded.cache_hit);
  EXPECT_EQ(decoded.result.columns(), rs.columns());
  ASSERT_EQ(decoded.result.row_count(), 2u);
  EXPECT_TRUE(decoded.result.Equals(rs));
}

TEST(Wire, ResultSetByteLayoutIsFixed) {
  // The exact RESULT_SET layout promised by docs/SERVING.md: u8 cache_hit,
  // u16 column_count, column-name strings (u32 length + bytes), u32
  // row_count, then row-major values (u8 tag + i64 / f64 bits / string).
  // Written out by hand so encoder and decoder cannot drift together.
  sql::ResultSet rs({"ID", "S"});
  rs.AddRow({Value(int64_t{-2}), Value("ab")});
  rs.AddRow({Value::Null(), Value(1.5)});
  WireWriter w;
  EncodeResultSet(rs, /*cache_hit=*/true, w);
  const uint8_t expected[] = {
      0x01,                                            // cache_hit
      0x02, 0x00,                                      // column_count 2
      0x02, 0x00, 0x00, 0x00, 'I', 'D',                // "ID"
      0x01, 0x00, 0x00, 0x00, 'S',                     // "S"
      0x02, 0x00, 0x00, 0x00,                          // row_count 2
      0x01, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // INT -2
      0x03, 0x02, 0x00, 0x00, 0x00, 'a', 'b',          // STRING "ab"
      0x00,                                            // NULL
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f,  // DOUBLE 1.5
  };
  ASSERT_EQ(w.bytes().size(), sizeof(expected));
  for (size_t i = 0; i < sizeof(expected); ++i) {
    EXPECT_EQ(static_cast<uint8_t>(w.bytes()[i]), expected[i]) << "byte " << i;
  }
  WireReader r(std::string_view(reinterpret_cast<const char*>(expected), sizeof(expected)));
  const DecodedResult decoded = DecodeResultSet(r);
  r.ExpectEnd();
  EXPECT_TRUE(decoded.cache_hit);
  EXPECT_TRUE(decoded.result.Equals(rs));
}

TEST(Wire, OverstatedRowCountThrows) {
  // A hostile payload claiming 2^32-1 rows must be refused before the
  // decoder allocates for them: with zero columns no bytes would ever run
  // out, and with columns every value needs at least its tag byte.
  WireWriter zero_columns;
  zero_columns.U8(0);            // cache_hit
  zero_columns.U16(0);           // no columns
  zero_columns.U32(0xffffffffu); // rows
  WireReader r(zero_columns.bytes());
  EXPECT_THROW(DecodeResultSet(r), ProtocolError);

  WireWriter one_column;
  one_column.U8(0);
  one_column.U16(1);
  one_column.Str("X");
  one_column.U32(0xffffffffu);
  one_column.Val(Value(1));
  WireReader r2(one_column.bytes());
  EXPECT_THROW(DecodeResultSet(r2), ProtocolError);
}

TEST(Wire, EmptyResultSetRoundTrips) {
  sql::ResultSet rs({"COUNT"});
  WireWriter w;
  EncodeResultSet(rs, /*cache_hit=*/false, w);
  WireReader r(w.bytes());
  const DecodedResult decoded = DecodeResultSet(r);
  EXPECT_FALSE(decoded.cache_hit);
  EXPECT_EQ(decoded.result.row_count(), 0u);
  EXPECT_EQ(decoded.result.columns().size(), 1u);
}

TEST(Wire, StatsRoundTrip) {
  std::vector<StatsEntry> entries;
  StatsEntry a;
  a.key = "cache.hits";
  a.kind = 0;
  a.u64 = 0xffffffffffffffffull;
  StatsEntry b;
  b.key = "engine.hit_rate";
  b.kind = 1;
  b.f64 = 0.9375;
  entries.push_back(a);
  entries.push_back(b);

  WireWriter w;
  EncodeStats(entries, w);
  WireReader r(w.bytes());
  const auto decoded = DecodeStats(r);
  r.ExpectEnd();
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].key, "cache.hits");
  EXPECT_EQ(decoded[0].u64, a.u64);
  EXPECT_EQ(decoded[1].key, "engine.hit_rate");
  EXPECT_EQ(decoded[1].f64, b.f64);
}

TEST(Wire, ErrorRoundTrip) {
  WireWriter w;
  EncodeError(ErrorCode::kDraining, "server is draining", w);
  WireReader r(w.bytes());
  const DecodedError e = DecodeError(r);
  EXPECT_EQ(e.code, ErrorCode::kDraining);
  EXPECT_EQ(e.message, "server is draining");
}

TEST(Wire, UnderflowThrows) {
  WireWriter w;
  w.U16(7);
  WireReader r(w.bytes());
  EXPECT_EQ(r.U16(), 7);
  EXPECT_THROW(r.U32(), ProtocolError);
}

TEST(Wire, TruncatedStringThrows) {
  WireWriter w;
  w.U32(100);  // claims 100 bytes, supplies none
  WireReader r(w.bytes());
  EXPECT_THROW(r.Str(), ProtocolError);
}

TEST(Wire, UnknownValueTagThrows) {
  WireWriter w;
  w.U8(9);
  WireReader r(w.bytes());
  EXPECT_THROW(r.Val(), ProtocolError);
}

TEST(Wire, TrailingBytesDetected) {
  WireWriter w;
  w.U8(1);
  w.U8(2);
  WireReader r(w.bytes());
  r.U8();
  EXPECT_THROW(r.ExpectEnd(), ProtocolError);
  r.U8();
  EXPECT_NO_THROW(r.ExpectEnd());
}

TEST(Wire, BuildFramePrependsHeader) {
  const std::string frame = BuildFrame(Opcode::kPing, 42, "abc");
  ASSERT_EQ(frame.size(), kFrameHeaderSize + 3);
  const FrameHeader h = DecodeFrameHeader(frame);
  EXPECT_EQ(h.length, 3u);
  EXPECT_EQ(h.opcode, Opcode::kPing);
  EXPECT_EQ(h.request_id, 42u);
  EXPECT_EQ(frame.substr(kFrameHeaderSize), "abc");
}

TEST(Names, OpcodeAndErrorCodeNames) {
  EXPECT_STREQ(OpcodeName(Opcode::kQuery), "QUERY");
  EXPECT_STREQ(OpcodeName(Opcode::kBusy), "BUSY");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kUnsupportedVersion), "UNSUPPORTED_VERSION");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kBusy), "BUSY");
}

TEST(Names, CdcOpcodeNames) {
  EXPECT_STREQ(OpcodeName(Opcode::kSubscribe), "SUBSCRIBE");
  EXPECT_STREQ(OpcodeName(Opcode::kQuerySeq), "QUERY_SEQ");
  EXPECT_STREQ(OpcodeName(Opcode::kSubscribed), "SUBSCRIBED");
  EXPECT_STREQ(OpcodeName(Opcode::kCdcEvent), "CDC_EVENT");
  EXPECT_STREQ(OpcodeName(Opcode::kResultSetSeq), "RESULT_SET_SEQ");
}

// --- CDC record wire format (docs/CLUSTER.md, "The CDC stream") ------------

namespace cdc {

/// A record exercising every event kind and every value type, including
/// the asymmetric image rules (INSERT has no before, DELETE no after).
CdcRecord SampleRecord() {
  CdcRecord record;
  record.seq = 0xfeedfacecafebeefull;
  record.table = "ITEMS";

  storage::UpdateEvent update;
  update.kind = storage::UpdateEvent::Kind::kUpdate;
  update.table = "ITEMS";
  update.row = 41;
  update.changes.push_back({2, Value(10), Value::Null()});
  update.changes.push_back({1, Value("old"), Value(std::string("nul\0byte", 8))});
  update.before = {Value(41), Value("old"), Value(10)};
  update.after = {Value(41), Value(std::string("nul\0byte", 8)), Value::Null()};

  storage::UpdateEvent insert;
  insert.kind = storage::UpdateEvent::Kind::kInsert;
  insert.table = "ITEMS";
  insert.row = 42;
  insert.after = {Value(42), Value(""), Value(-1.5)};

  storage::UpdateEvent del;
  del.kind = storage::UpdateEvent::Kind::kDelete;
  del.table = "ITEMS";
  del.row = std::numeric_limits<uint64_t>::max();
  del.before = {Value(std::numeric_limits<int64_t>::min()), Value("gone"), Value(0.0)};

  record.events = {update, insert, del};
  return record;
}

void ExpectRowsEqual(const storage::Row& a, const storage::Row& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type(), b[i].type()) << i;
    EXPECT_EQ(a[i], b[i]) << i;
  }
}

}  // namespace cdc

TEST(Cdc, RecordRoundTripsAllEventKinds) {
  const CdcRecord record = cdc::SampleRecord();
  WireWriter w;
  EncodeCdcRecord(record, w);
  WireReader r(w.bytes());
  const CdcRecord decoded = DecodeCdcRecord(r);
  r.ExpectEnd();

  EXPECT_EQ(decoded.seq, record.seq);
  EXPECT_EQ(decoded.table, record.table);
  ASSERT_EQ(decoded.events.size(), record.events.size());
  for (size_t i = 0; i < record.events.size(); ++i) {
    const storage::UpdateEvent& in = record.events[i];
    const storage::UpdateEvent& out = decoded.events[i];
    EXPECT_EQ(out.kind, in.kind) << i;
    EXPECT_EQ(out.row, in.row) << i;
    ASSERT_EQ(out.changes.size(), in.changes.size()) << i;
    for (size_t c = 0; c < in.changes.size(); ++c) {
      EXPECT_EQ(out.changes[c].column, in.changes[c].column);
      EXPECT_EQ(out.changes[c].old_value, in.changes[c].old_value);
      EXPECT_EQ(out.changes[c].new_value, in.changes[c].new_value);
    }
    cdc::ExpectRowsEqual(out.before, in.before);
    cdc::ExpectRowsEqual(out.after, in.after);
  }
  // The decoded record reassembles into the exact batch shape the DUP
  // engine consumes.
  const storage::UpdateBatch batch = decoded.AsBatch();
  EXPECT_EQ(batch.table, "ITEMS");
  EXPECT_EQ(batch.count, 3u);
}

TEST(Cdc, EmptyRecordRoundTrips) {
  CdcRecord record;
  record.seq = 1;
  record.table = "T";
  WireWriter w;
  EncodeCdcRecord(record, w);
  WireReader r(w.bytes());
  const CdcRecord decoded = DecodeCdcRecord(r);
  EXPECT_EQ(decoded.seq, 1u);
  EXPECT_EQ(decoded.table, "T");
  EXPECT_TRUE(decoded.events.empty());
  EXPECT_TRUE(decoded.AsBatch().empty());
}

TEST(Cdc, EventTableNameIsRestoredFromRecord) {
  // The wire format carries the table once per record, not per event; the
  // decoder must re-stamp it so OnBatch sees consistent events.
  const CdcRecord record = cdc::SampleRecord();
  WireWriter w;
  EncodeCdcRecord(record, w);
  WireReader r(w.bytes());
  const CdcRecord decoded = DecodeCdcRecord(r);
  for (const storage::UpdateEvent& event : decoded.events) {
    EXPECT_EQ(event.table, decoded.table);
  }
}

TEST(Cdc, EveryTruncationPrefixThrowsNeverCrashes) {
  // Fuzz-ish robustness: a CDC frame cut at ANY byte boundary must surface
  // as ProtocolError — never a crash, hang, or silently short record.
  const CdcRecord record = cdc::SampleRecord();
  WireWriter w;
  EncodeCdcRecord(record, w);
  const std::string& bytes = w.bytes();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WireReader r(std::string_view(bytes).substr(0, cut));
    EXPECT_THROW(
        {
          const CdcRecord d = DecodeCdcRecord(r);
          r.ExpectEnd();
          (void)d;
        },
        ProtocolError)
        << "prefix length " << cut;
  }
}

TEST(Cdc, BadEventKindTagThrows) {
  WireWriter w;
  w.U64(7);     // seq
  w.Str("T");   // table
  w.U32(1);     // one event
  w.U8(3);      // kind tag out of range (valid: 0, 1, 2)
  WireReader r(w.bytes());
  EXPECT_THROW(DecodeCdcRecord(r), ProtocolError);
}

TEST(Cdc, TrailingBytesAfterRecordDetected) {
  CdcRecord record;
  record.seq = 9;
  record.table = "T";
  WireWriter w;
  EncodeCdcRecord(record, w);
  w.U8(0xcc);  // stray byte after a well-formed record
  WireReader r(w.bytes());
  const CdcRecord decoded = DecodeCdcRecord(r);
  EXPECT_EQ(decoded.seq, 9u);
  EXPECT_THROW(r.ExpectEnd(), ProtocolError);
}

TEST(Cdc, OverstatedEventCountThrows) {
  // A hostile frame claiming 2^32-1 events must fail on underflow while
  // decoding, not attempt a giant allocation loop to completion.
  WireWriter w;
  w.U64(1);
  w.Str("T");
  w.U32(0xffffffffu);
  WireReader r(w.bytes());
  EXPECT_THROW(DecodeCdcRecord(r), ProtocolError);
}

}  // namespace
}  // namespace qc::server
