// Query results: a named-column table of values. This is the "object"
// that the GPS cache stores and the ODG hangs dependencies on.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/value.h"
#include "common/wire.h"
#include "storage/events.h"

namespace qc::sql {

class ResultSet {
 public:
  ResultSet() = default;
  explicit ResultSet(std::vector<std::string> columns) : columns_(std::move(columns)) {}

  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<storage::Row>& rows() const { return rows_; }
  size_t row_count() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  void AddRow(storage::Row row) { rows_.push_back(std::move(row)); }

  /// Single-cell convenience for aggregate results (COUNT/SUM queries).
  const Value& ScalarAt(size_t row, size_t col) const { return rows_.at(row).at(col); }

  /// Sort rows lexicographically. Our SQL subset has no ORDER BY, so row
  /// order is an evaluation artifact; normalized form makes results
  /// comparable (used by the correctness property tests and by Equals).
  void Normalize();

  /// Order-insensitive comparison (both sides are normalized copies).
  bool Equals(const ResultSet& other) const;

  /// Stable sort by the given (output column index, descending) keys —
  /// ORDER BY support.
  void SortByKeys(const std::vector<std::pair<size_t, bool>>& keys);

  /// Keep at most `n` rows — LIMIT support.
  void Truncate(size_t n);

  /// Approximate in-memory footprint, used for cache byte budgets.
  size_t ByteSize() const;

  std::string ToString(size_t max_rows = 20) const;

 private:
  std::vector<std::string> columns_;
  std::vector<storage::Row> rows_;
};

using ResultPtr = std::shared_ptr<const ResultSet>;

/// The one byte layout of a result set, shared by the QCP/1 RESULT_SET
/// payload (after its cache_hit byte) and the GPS cache's spill payloads:
/// u16 column_count, column-name strings, u32 row_count, then row-major
/// values (common/wire.h). Encoding throws ProtocolError above 65535
/// columns.
void EncodeResult(const ResultSet& result, WireWriter& w);

/// Inverse of EncodeResult. Throws ProtocolError on malformed input,
/// including a row count the remaining bytes cannot hold (every value
/// takes at least its tag byte, so rows need columns and bytes): a hostile
/// count fails before anything is allocated for it.
ResultSet DecodeResult(WireReader& r);

}  // namespace qc::sql
