#include "harness.h"

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <thread>

namespace qc::benchharness {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (!raw || !*raw) return fallback;
  return std::strtoull(raw, nullptr, 10);
}

FigureConfig FigureConfig::FromEnv() {
  FigureConfig config;
  config.rows = EnvU64("SETQUERY_ROWS", config.rows);
  config.transactions = EnvU64("SETQUERY_TXNS", config.transactions);
  config.seed = EnvU64("SETQUERY_SEED", config.seed);
  return config;
}

Fixture MakeFixture(const FigureConfig& config, dup::InvalidationPolicy policy) {
  Fixture fixture;
  fixture.db = std::make_unique<storage::Database>();
  fixture.bench = std::make_unique<setquery::BenchTable>(*fixture.db, config.rows, config.seed);
  middleware::CachedQueryEngine::Options options;
  options.policy = policy;
  // Figure reproductions use the paper's dependency sets (WHERE columns +
  // GROUP BY keys; no projection/aggregate-input edges — see Fig. 8).
  options.extraction = dup::ExtractionOptions::PaperFidelity();
  fixture.engine = std::make_unique<middleware::CachedQueryEngine>(*fixture.db, options);
  fixture.runner = std::make_unique<setquery::WorkloadRunner>(*fixture.bench, *fixture.engine);
  return fixture;
}

setquery::WorkloadResult RunOne(const FigureConfig& config, dup::InvalidationPolicy policy,
                                const setquery::WorkloadConfig& workload) {
  Fixture fixture = MakeFixture(config, policy);
  setquery::WorkloadConfig wl = workload;
  wl.transactions = config.transactions;
  wl.seed = config.seed;
  return fixture.runner->Run(wl);
}

void PrintHeader(const std::string& title, const FigureConfig& config) {
  std::cout << "=== " << title << " ===\n"
            << "BENCH rows=" << config.rows << " (canonical 1M, constants rescaled), "
            << "transactions=" << config.transactions << ", seed=" << config.seed << "\n"
            << "(override via SETQUERY_ROWS / SETQUERY_TXNS / SETQUERY_SEED)\n\n";
}

void PrintRow(const std::vector<std::string>& cells, const std::vector<int>& widths) {
  std::ostringstream os;
  for (size_t i = 0; i < cells.size(); ++i) {
    os << std::setw(i < widths.size() ? widths[i] : 12) << cells[i];
  }
  std::cout << os.str() << "\n";
}

std::string Fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

namespace {
int g_failures = 0;
}

bool Check(bool condition, const std::string& claim) {
  std::cout << (condition ? "  [ok] " : "  [VIOLATION] ") << claim << "\n";
  if (!condition) ++g_failures;
  return condition;
}

int Failures() { return g_failures; }

namespace {
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// The `model name` of the first CPU in /proc/cpuinfo; empty if absent.
std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) return {};
    const size_t start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? std::string() : line.substr(start);
  }
  return {};
}
}  // namespace

std::string WriteBenchJson(const std::string& bench_name,
                           const std::vector<BenchMetric>& metrics) {
  const char* dir = std::getenv("BENCH_JSON_DIR");
  std::string path = (dir && *dir) ? std::string(dir) + "/" : std::string();
  path += "BENCH_" + bench_name + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::cerr << "warning: cannot write " << path << "\n";
    return {};
  }
  out << "{\n  \"bench\": \"" << JsonEscape(bench_name) << "\",\n  \"machine\": "
      << "{\"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": \"" << JsonEscape(CpuModel()) << "\"},\n  \"metrics\": [";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const BenchMetric& m = metrics[i];
    out << (i ? ",\n" : "\n") << "    {\"name\": \"" << JsonEscape(m.name)
        << "\", \"value\": " << std::setprecision(17) << m.value << ", \"unit\": \""
        << JsonEscape(m.unit) << "\"";
    for (const auto& [key, value] : m.labels) {
      out << ", \"" << JsonEscape(key) << "\": \"" << JsonEscape(value) << "\"";
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
  out.close();
  if (!out) {
    std::cerr << "warning: short write to " << path << "\n";
    return {};
  }
  std::cout << "wrote " << path << "\n";
  return path;
}

}  // namespace qc::benchharness
