#include "sql/result.h"

#include <algorithm>
#include <sstream>

namespace qc::sql {

namespace {

bool RowLess(const storage::Row& a, const storage::Row& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    auto c = a[i].compare(b[i]);
    if (c != std::strong_ordering::equal) return c == std::strong_ordering::less;
  }
  return a.size() < b.size();
}

}  // namespace

void ResultSet::Normalize() { std::sort(rows_.begin(), rows_.end(), RowLess); }

bool ResultSet::Equals(const ResultSet& other) const {
  if (columns_ != other.columns_) return false;
  if (rows_.size() != other.rows_.size()) return false;
  std::vector<storage::Row> a = rows_, b = other.rows_;
  std::sort(a.begin(), a.end(), RowLess);
  std::sort(b.begin(), b.end(), RowLess);
  return a == b;
}

void ResultSet::SortByKeys(const std::vector<std::pair<size_t, bool>>& keys) {
  std::stable_sort(rows_.begin(), rows_.end(), [&](const storage::Row& a, const storage::Row& b) {
    for (const auto& [index, descending] : keys) {
      const auto cmp = a.at(index).compare(b.at(index));
      if (cmp == std::strong_ordering::equal) continue;
      const bool less = cmp == std::strong_ordering::less;
      return descending ? !less : less;
    }
    return false;
  });
}

void ResultSet::Truncate(size_t n) {
  if (rows_.size() > n) rows_.resize(n);
}

size_t ResultSet::ByteSize() const {
  size_t bytes = sizeof(ResultSet);
  for (const std::string& c : columns_) bytes += c.size() + sizeof(std::string);
  for (const storage::Row& row : rows_) {
    bytes += sizeof(storage::Row);
    for (const Value& v : row) {
      bytes += sizeof(Value);
      if (v.is_string()) bytes += v.as_string().size();
    }
  }
  return bytes;
}

std::string ResultSet::ToString(size_t max_rows) const {
  std::ostringstream os;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i) os << " | ";
    os << columns_[i];
  }
  os << "\n";
  size_t shown = 0;
  for (const storage::Row& row : rows_) {
    if (shown++ >= max_rows) {
      os << "... (" << rows_.size() - max_rows << " more rows)\n";
      break;
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) os << " | ";
      os << row[i].ToString();
    }
    os << "\n";
  }
  return os.str();
}

void EncodeResult(const ResultSet& result, WireWriter& w) {
  if (result.columns().size() > 0xffff) throw ProtocolError("too many result columns");
  w.U16(static_cast<uint16_t>(result.columns().size()));
  for (const std::string& name : result.columns()) w.Str(name);
  w.U32(static_cast<uint32_t>(result.row_count()));
  for (const storage::Row& row : result.rows()) {
    for (const Value& cell : row) w.Val(cell);
  }
}

ResultSet DecodeResult(WireReader& r) {
  const uint16_t ncols = r.U16();
  std::vector<std::string> columns;
  columns.reserve(ncols);
  for (uint16_t c = 0; c < ncols; ++c) columns.push_back(r.Str());
  ResultSet out(std::move(columns));
  const uint32_t nrows = r.U32();
  if (nrows > 0 && (ncols == 0 || nrows > r.remaining() / ncols)) {
    throw ProtocolError("row count exceeds the payload");
  }
  for (uint32_t i = 0; i < nrows; ++i) {
    storage::Row row;
    row.reserve(ncols);
    for (uint16_t c = 0; c < ncols; ++c) row.push_back(r.Val());
    out.AddRow(std::move(row));
  }
  return out;
}

}  // namespace qc::sql
