// Spans for the traced run: kept in memory, written as Chrome trace-event
// JSON at exit, and reduced to per-layer self times (a span's duration
// minus the time its child spans cover).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "traffic.h"

namespace qcbench {

class Tracer {
 public:
  /// Trace-event process ids: the load generator's client spans and the
  /// two replay passes.
  enum Pid { kClient = 1, kReplayA = 2, kReplayB = 3 };

  /// A finished span; returns its index (usable as a parent).
  int32_t Add(const char* name, Pid pid, int tid, int64_t start_ns, int64_t end_ns,
              uint64_t id, int32_t parent = -1);

  /// Time `f` as a span named `name`.
  template <typename F>
  auto Timed(const char* name, Pid pid, int32_t parent, uint64_t id, F&& f) {
    const int64_t start = NowNs();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      Add(name, pid, 0, start, NowNs(), id, parent);
    } else {
      auto result = f();
      Add(name, pid, 0, start, NowNs(), id, parent);
      return result;
    }
  }

  /// Open a parent span now; Close() sets its end.
  int32_t Open(const char* name, Pid pid, uint64_t id);
  void Close(int32_t span) { spans_[span].end_ns = NowNs(); }

  size_t Count(std::string_view name) const;

  /// Self time in microseconds of every span, grouped by name.
  std::map<std::string, std::vector<double>> SelfTimesUs() const;

  void WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Pid pid;
    int tid;
    int32_t parent;
    int64_t start_ns, end_ns;
    uint64_t id;
  };
  std::vector<Span> spans_;
  std::unordered_map<std::string_view, size_t> counts_;
};

/// One operation of the logged request stream, in scheduled order.
struct LoggedOp {
  bool read = true;
  uint32_t key = 0;   // reads
  Update update;      // UPDATEs
};

/// Replay `log` one operation at a time on fresh replicas of the BENCH
/// table built from `data_seed`, warmed with the workload's warm-up stream
/// (itself traced): pass A through CachedQueryEngine::ExecuteSql
/// (middleware.* spans), pass B through each layer's public function in
/// the middleware's order under a replay.request parent. Each pass replays
/// at least the first 2000 operations and continues until every span it
/// records has 20 samples or the log ends. `cache_budget_bytes` 0 keeps
/// the GpsCache default.
void Replay(const Traffic& traffic, const std::vector<LoggedOp>& log, uint64_t data_seed,
            size_t cache_budget_bytes, Tracer& tracer);

}  // namespace qcbench
