// The four qcbench workloads: what each reads, what it updates, and the
// frozen offered load both sides of every comparison run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "common/value.h"
#include "setquery/bench_table.h"

namespace qcbench {

/// BENCH rows. The paper's table has 1M; at that size one run's three
/// set-ups and warm-up leave too little of the per-run time budget for
/// the measured phase, so the benchmark uses a fifth of it (KSEQ
/// constants rescale through BenchTable::ScaledKseq).
inline constexpr uint64_t kRows = 200'000;

struct WorkloadSpec {
  const char* name;
  double read_rate;      // fixed open-loop SELECT rate, 1/s
  double dml_rate;       // fixed open-loop UPDATE rate, 1/s
  double p99_limit_us;   // read p99 limit of the capacity ladder
  size_t cache_budget_bytes;  // per cache node; 0 = qcached default
};

/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// One distinct SELECT: SQL text plus parameters, pre-encoded as a QUERY
/// payload.
struct Key {
  std::string sql;
  std::vector<qc::Value> params;
  uint32_t group = 0;    // query template; verification covers every group
  std::string payload;   // QUERY payload: string sql + params
};

/// One UPDATE the writer sends: `SET column = value WHERE KSEQ = kseq`.
struct Update {
  uint32_t column = 0;
  int64_t value = 0;
  int64_t kseq = 0;
};

std::string UpdateSql(uint32_t column);

/// The key population and read/update generators of one workload.
class Traffic {
 public:
  Traffic(const WorkloadSpec& spec, const qc::setquery::BenchTable& bench, uint64_t seed);
  Traffic(const Traffic&) = delete;
  Traffic& operator=(const Traffic&) = delete;

  const std::vector<Key>& keys() const { return keys_; }
  /// Keys the untimed warm-up reads, in order.
  const std::vector<uint32_t>& warm() const { return warm_; }

  /// The next read of the request stream (may create a key).
  uint32_t NextRead(qc::Rng& rng);

  /// The next UPDATE: the next column the workload may change (in turn,
  /// so every run spreads its UPDATEs alike), a random row, and a value
  /// different from the row's current one in `table`, so every
  /// acknowledged UPDATE changes the row and publishes one CDC record.
  Update NextUpdate(qc::Rng& rng, const qc::storage::Table& table);

 private:
  uint32_t AddKey(std::string sql, std::vector<qc::Value> params, uint32_t group);

  const qc::setquery::BenchTable& bench_;
  std::vector<Key> keys_;
  std::vector<uint32_t> warm_;
  std::vector<uint32_t> update_columns_;
  size_t updates_ = 0;
  std::function<uint32_t(qc::Rng&)> next_read_;
  std::unordered_map<std::string, uint32_t> by_sql_;  // dedup of generated keys
};

}  // namespace qcbench
