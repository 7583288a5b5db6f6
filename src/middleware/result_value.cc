#include "middleware/result_value.h"

#include "common/wire.h"

namespace qc::middleware {

std::string ResultValue::Serialize() const {
  WireWriter w;
  sql::EncodeResult(*result_, w);
  return w.Take();
}

cache::CacheValuePtr ResultValue::Deserialize(std::string_view bytes) {
  WireReader r(bytes);
  auto result = std::make_shared<sql::ResultSet>(sql::DecodeResult(r));
  r.ExpectEnd();
  return std::make_shared<ResultValue>(std::move(result));
}

std::string EncodeQueryTag(const std::string& canonical_sql, const std::vector<Value>& params) {
  WireWriter w;
  w.Str(canonical_sql);
  w.Params(params);
  return w.Take();
}

void DecodeQueryTag(std::string_view tag, std::string* canonical_sql,
                    std::vector<Value>* params) {
  WireReader r(tag);
  *canonical_sql = r.Str();
  *params = r.Params();
  r.ExpectEnd();
}

}  // namespace qc::middleware
