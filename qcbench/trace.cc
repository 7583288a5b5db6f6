#include "trace.h"

#include <cstdio>
#include <memory>
#include <optional>
#include <unordered_map>

#include "cache/gps_cache.h"
#include "common/error.h"
#include "dup/engine.h"
#include "middleware/query_engine.h"
#include "middleware/result_value.h"
#include "server/protocol.h"
#include "setquery/bench_table.h"
#include "sql/binder.h"
#include "sql/dml.h"
#include "sql/evaluator.h"
#include "sql/fingerprint.h"
#include "sql/parser.h"

namespace qcbench {

int32_t Tracer::Add(const char* name, Pid pid, int tid, int64_t start_ns, int64_t end_ns,
                    uint64_t id, int32_t parent) {
  spans_.push_back({name, pid, tid, parent, start_ns, end_ns, id});
  ++counts_[name];
  return static_cast<int32_t>(spans_.size() - 1);
}

int32_t Tracer::Open(const char* name, Pid pid, uint64_t id) {
  const int64_t now = NowNs();
  return Add(name, pid, 0, now, now, id);
}

size_t Tracer::Count(std::string_view name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0 : it->second;
}

std::map<std::string, std::vector<double>> Tracer::SelfTimesUs() const {
  std::vector<int64_t> children_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) children_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns - children_ns[i]) / 1e3);
  }
  return out;
}

void Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw qc::Error("cannot write " + path);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  const char* processes[] = {"", "client", "replay A: CachedQueryEngine", "replay B: layer calls"};
  for (int pid = kClient; pid <= kReplayB; ++pid) {
    std::fprintf(f, "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"args\":{\"name\":\"%s\"}},\n",
                 pid, processes[pid]);
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"ph\":\"X\",\"name\":\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%llu}}%s\n",
                 s.name, static_cast<int>(s.pid), s.tid,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id), i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  if (std::fclose(f) != 0) throw qc::Error("cannot write " + path);
}

namespace {

constexpr size_t kMinReplayOps = 2000;
constexpr size_t kMinSamples = 20;
/// Span id of warm-up reads. The warm-up is traced too: in a workload
/// whose every key is warmed, it holds the only misses.
constexpr uint64_t kWarmId = ~0ULL;

/// Replay until `needed` spans each have kMinSamples (after kMinReplayOps).
bool Enough(const Tracer& tracer, size_t done, const std::vector<const char*>& needed) {
  if (done < kMinReplayOps) return false;
  for (const char* name : needed) {
    if (tracer.Count(name) < kMinSamples) return false;
  }
  return true;
}

std::vector<qc::Value> UpdateParams(const Update& u) { return {qc::Value(u.value), qc::Value(u.kseq)}; }

void PassA(const Traffic& traffic, const std::vector<LoggedOp>& log, uint64_t data_seed,
           size_t cache_budget_bytes, Tracer& tracer) {
  qc::storage::Database db;
  qc::setquery::BenchTable bench(db, kRows, data_seed);
  qc::middleware::CachedQueryEngine::Options options;  // qcached --policy III defaults
  if (cache_budget_bytes > 0) options.cache.memory_budget_bytes = cache_budget_bytes;
  qc::middleware::CachedQueryEngine engine(db, options);
  const auto read = [&](const Key& key, uint64_t id) {
    const int64_t start = NowNs();
    const bool hit = engine.ExecuteSql(key.sql, key.params).cache_hit;
    tracer.Add(hit ? "middleware.execute_sql_hit" : "middleware.execute_sql_miss",
               Tracer::kReplayA, 0, start, NowNs(), id);
  };
  for (uint32_t k : traffic.warm()) read(traffic.keys()[k], kWarmId);
  for (size_t i = 0; i < log.size(); ++i) {
    const LoggedOp& op = log[i];
    if (op.read) {
      read(traffic.keys()[op.key], i);
    } else {
      const int64_t start = NowNs();
      engine.ExecuteDml(UpdateSql(op.update.column), UpdateParams(op.update));
      tracer.Add("middleware.execute_dml", Tracer::kReplayA, 0, start, NowNs(), i);
    }
    if (Enough(tracer, i + 1, {"middleware.execute_sql_hit", "middleware.execute_sql_miss"})) break;
  }
}

void PassB(const Traffic& traffic, const std::vector<LoggedOp>& log, uint64_t data_seed,
           size_t cache_budget_bytes, Tracer& tracer) {
  namespace srv = qc::server;
  qc::storage::Database db;
  qc::setquery::BenchTable bench(db, kRows, data_seed);
  qc::cache::GpsCacheConfig cache_config;
  if (cache_budget_bytes > 0) cache_config.memory_budget_bytes = cache_budget_bytes;
  qc::cache::GpsCache cache(cache_config);
  qc::dup::DupEngine dup(cache, qc::dup::DupEngine::Options{});

  // The batch a statement commits, as the storage node's CDC publisher
  // would copy it.
  std::optional<srv::CdcRecord> captured;
  auto subscription = db.SubscribeBatch([&captured](const qc::storage::UpdateBatch& batch) {
    captured.emplace();
    captured->table = std::string(batch.table);
    captured->events.assign(batch.begin(), batch.end());
  });
  uint64_t cdc_seq = 0;

  std::unordered_map<uint32_t, qc::sql::DmlStmt> dml_statements;

  // Bind runs on every read here; the middleware instead memoizes it per
  // canonical SQL text (Prepare), a difference middleware.overhead_us shows.
  const auto read = [&](const Key& key, uint64_t id) {
    const int32_t parent = tracer.Open("replay.request", Tracer::kReplayB, id);
    const auto span = [&](const char* name, auto&& f) {
      return tracer.Timed(name, Tracer::kReplayB, parent, id, f);
    };
    qc::sql::SelectStmt stmt = span("sql.parse", [&] { return qc::sql::Parse(key.sql); });
    const std::shared_ptr<const qc::sql::BoundQuery> bound =
        span("sql.bind", [&] { return qc::sql::Bind(std::move(stmt), db); });
    const std::string fingerprint =
        span("sql.fingerprint", [&] { return qc::sql::Fingerprint(bound->stmt(), key.params); });
    const qc::cache::CacheValuePtr cached = span("cache.get", [&] { return cache.Get(fingerprint); });
    qc::sql::ResultPtr result;
    if (cached) {
      result = std::static_pointer_cast<const qc::middleware::ResultValue>(cached)->result();
    } else {
      result = span("sql.execute", [&] {
        return std::make_shared<const qc::sql::ResultSet>(qc::sql::Execute(*bound, key.params));
      });
      span("dup.register", [&] { dup.RegisterQuery(fingerprint, bound, key.params); });
      span("cache.put", [&] {
        return cache.Put(fingerprint, std::make_shared<qc::middleware::ResultValue>(result));
      });
    }
    srv::WireWriter w;
    span("server.encode", [&] { srv::EncodeResultSet(*result, cached != nullptr, w); });
    span("server.decode", [&] {
      srv::WireReader r(w.bytes());
      return srv::DecodeResultSet(r).cache_hit;
    });
    tracer.Close(parent);
  };

  for (uint32_t k : traffic.warm()) read(traffic.keys()[k], kWarmId);
  for (size_t i = 0; i < log.size(); ++i) {
    const LoggedOp& op = log[i];
    if (op.read) {
      read(traffic.keys()[op.key], i);
    } else {
      auto it = dml_statements.find(op.update.column);
      if (it == dml_statements.end()) {
        it = dml_statements.emplace(op.update.column,
                                    qc::sql::ParseStatement(UpdateSql(op.update.column)).dml).first;
      }
      const int32_t parent = tracer.Open("replay.request", Tracer::kReplayB, i);
      const auto span = [&](const char* name, auto&& f) {
        return tracer.Timed(name, Tracer::kReplayB, parent, i, f);
      };
      captured.reset();
      span("storage.dml_apply",
           [&] { return qc::sql::ExecuteDml(it->second, db, UpdateParams(op.update)); });
      if (!captured) throw qc::Error("replayed UPDATE committed no batch");
      captured->seq = ++cdc_seq;
      span("dup.on_batch", [&] { dup.OnBatch(captured->AsBatch()); });
      srv::WireWriter w;
      span("server.encode_cdc", [&] { srv::EncodeCdcRecord(*captured, w); });
      tracer.Close(parent);
    }
    if (Enough(tracer, i + 1, {"sql.execute", "cache.get", "dup.on_batch"})) break;
  }
  db.Unsubscribe(subscription);
}

}  // namespace

void Replay(const Traffic& traffic, const std::vector<LoggedOp>& log, uint64_t data_seed,
            size_t cache_budget_bytes, Tracer& tracer) {
  PassA(traffic, log, data_seed, cache_budget_bytes, tracer);
  PassB(traffic, log, data_seed, cache_budget_bytes, tracer);
}

}  // namespace qcbench
