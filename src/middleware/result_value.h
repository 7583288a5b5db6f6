// Adapts sql::ResultSet to the GPS cache's CacheValue interface. Spill
// payloads and durable tags use the QCP/1 value encoding (common/wire.h,
// docs/SERVING.md), so a result is laid out in bytes one way everywhere.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cache/value.h"
#include "sql/result.h"

namespace qc::middleware {

class ResultValue : public cache::CacheValue {
 public:
  explicit ResultValue(sql::ResultPtr result) : result_(std::move(result)) {}

  const sql::ResultPtr& result() const { return result_; }

  size_t ByteSize() const override { return result_->ByteSize(); }
  /// The result body of sql::EncodeResult: the RESULT_SET payload
  /// without its cache_hit byte.
  std::string Serialize() const override;

  /// Inverse of Serialize(). Throws ProtocolError on malformed input or
  /// trailing bytes (the GPS cache catches it, quarantines the spill file
  /// and serves a miss).
  static cache::CacheValuePtr Deserialize(std::string_view bytes);

 private:
  sql::ResultPtr result_;
};

/// Durable tag persisted with each cached query result (the GPS cache's
/// spill files carry it through crashes): the statement's canonical SQL
/// plus its typed parameter values, enough to rebuild the entry's DUP
/// registration on warm restart. Encoded as a string (the SQL) followed by
/// params (common/wire.h); throws ProtocolError above 65535 parameters.
std::string EncodeQueryTag(const std::string& canonical_sql, const std::vector<Value>& params);

/// Inverse of EncodeQueryTag. Throws ProtocolError on malformed input or
/// trailing bytes (the warm-restart path catches it and falls back to
/// conservative re-registration from the fingerprint).
void DecodeQueryTag(std::string_view tag, std::string* canonical_sql,
                    std::vector<Value>* params);

}  // namespace qc::middleware
