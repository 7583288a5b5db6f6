// Shared harness for the paper-figure reproduction binaries.
//
// Every fig*_ binary runs the Set Query update-mix workload under the
// three paper policies (plus, where instructive, the row-aware ablation),
// prints the measured series next to the paper's qualitative expectations,
// and self-checks the *shape* claims (who wins, orderings) so a regression
// is visible in CI output.
#pragma once

#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "dup/policy.h"
#include "middleware/query_engine.h"
#include "setquery/bench_table.h"
#include "setquery/workload.h"
#include "storage/database.h"

namespace qc::benchharness {

/// Environment override helper (SETQUERY_ROWS, SETQUERY_TXNS, ...).
uint64_t EnvU64(const char* name, uint64_t fallback);

struct FigureConfig {
  uint64_t rows = 50'000;        // SETQUERY_ROWS
  uint64_t transactions = 4'000; // SETQUERY_TXNS
  uint64_t seed = 42;            // SETQUERY_SEED
  static FigureConfig FromEnv();
};

/// A fresh database + BENCH table + engine for one measurement run (every
/// run starts from identical storage state and RNG seed so policies are
/// comparable).
struct Fixture {
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<setquery::BenchTable> bench;
  std::unique_ptr<middleware::CachedQueryEngine> engine;
  std::unique_ptr<setquery::WorkloadRunner> runner;
};

Fixture MakeFixture(const FigureConfig& config, dup::InvalidationPolicy policy);

/// Run one workload under one policy on a fresh fixture.
setquery::WorkloadResult RunOne(const FigureConfig& config, dup::InvalidationPolicy policy,
                                const setquery::WorkloadConfig& workload);

/// Fixed-width table printing.
void PrintHeader(const std::string& title, const FigureConfig& config);
void PrintRow(const std::vector<std::string>& cells, const std::vector<int>& widths);
std::string Fmt(double v, int precision = 1);

/// Shape-check bookkeeping: Check() prints ok/VIOLATION and returns the
/// process-wide pass/fail accumulator via Failures().
bool Check(bool condition, const std::string& claim);
int Failures();

/// One measured point for the machine-readable artifact: a metric name, a
/// value with its unit, and the configuration labels that locate it in the
/// sweep (threads, shards, eviction policy, ...).
struct BenchMetric {
  std::string name;   // e.g. "hit_throughput"
  double value = 0.0;
  std::string unit;   // e.g. "ops_per_sec", "ns_per_op"
  std::vector<std::pair<std::string, std::string>> labels;
};

/// Write the run's metrics as `BENCH_<bench_name>.json` (into
/// $BENCH_JSON_DIR, default the working directory) so CI and tooling can
/// trend results without scraping the human-readable tables. A top-level
/// `machine` object records hardware_concurrency() and the /proc/cpuinfo
/// `model name` (empty if absent) of the host that ran it. Returns the
/// path written, or empty on I/O failure (reported to stderr, never fatal
/// — the self-checks, not the artifact, gate the run).
std::string WriteBenchJson(const std::string& bench_name,
                           const std::vector<BenchMetric>& metrics);

}  // namespace qc::benchharness
