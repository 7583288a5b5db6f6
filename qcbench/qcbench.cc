// qcbench — open-loop, coordinated-omission-corrected benchmark of the
// qcached cluster, measured from outside the program (README.md).
//
//   qcbench --workload NAME --seed S [--seconds T] [--trace-out FILE]
//           [--workdir DIR]
//
// Boots one storage node and two ring-partitioned cache nodes as qcached
// child processes, drives them over QCP/1, checks every sampled answer
// against an uncached oracle replica, and prints one line per metric:
// `workload metric value unit`. With --trace-out it also replays the
// logged requests through each layer's public functions and writes the
// spans as Chrome trace-event JSON. Exits 1 on a wrong answer, 2 on an
// invalid run (the generator fell behind its schedule), 3 on an error.
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster.h"
#include "common.h"
#include "common/error.h"
#include "loadgen.h"
#include "server/client.h"
#include "setquery/bench_table.h"
#include "sql/binder.h"
#include "sql/evaluator.h"
#include "trace.h"
#include "traffic.h"

using namespace qcbench;
namespace srv = qc::server;

namespace {

constexpr int kSetups = 3;                 // setup_s is the median of these
constexpr double kProbeSeconds = 2.0;      // one capacity-ladder probe
constexpr int kLadderSteps = 6;
constexpr double kLadderFactor = 1.25;
constexpr double kMaxLagP50Us = 1000.0;    // generator health at the fixed rate
constexpr size_t kVerifyKeys = 500;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string trace_out;
  std::string workdir = ".bench_build/work";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw qc::Error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace-out") args.trace_out = value;
    else if (flag == "--workdir") args.workdir = value;
    else throw qc::Error("unknown flag " + flag);
  }
  if (FindWorkload(args.workload) == nullptr) {
    std::string names;
    for (const std::string& name : WorkloadNames()) names += " " + name;
    throw qc::Error("unknown --workload '" + args.workload + "'; one of:" + names);
  }
  if (args.seconds <= 0) throw qc::Error("--seconds must be positive");
  return args;
}

class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}
  void Add(const std::string& name, double value, const char* unit) {
    std::printf("%s %s %.10g %s\n", workload_.c_str(), name.c_str(), value, unit);
  }

 private:
  std::string workload_;
};

using Stats = std::map<std::string, double>;

double Get(const Stats& stats, const std::string& key) {
  const auto it = stats.find(key);
  return it == stats.end() ? 0.0 : it->second;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

struct Snapshot {
  Stats node[3];
};

Snapshot TakeSnapshot(const Topology& topology) {
  Snapshot s;
  for (int n = 0; n < 3; ++n) s.node[n] = NodeStats(topology.port(static_cast<Topology::Node>(n)));
  return s;
}

/// Sum over `nodes` of the counter's change between two snapshots.
double Delta(const Snapshot& a, const Snapshot& b, std::initializer_list<int> nodes,
             const std::string& key) {
  double sum = 0;
  for (int n : nodes) sum += Get(b.node[n], key) - Get(a.node[n], key);
  return sum;
}

double CpuOfTopology(const Topology& t) {
  return CpuMicros(t.pid(Topology::kStorage)) + CpuMicros(t.pid(Topology::kCache0)) +
         CpuMicros(t.pid(Topology::kCache1));
}

/// Latency samples of one or more phases, in microseconds from the
/// scheduled send.
struct Sample {
  std::vector<double> read, hit, miss, lag, dml, visible, bytes;
  size_t attempted = 0, failed = 0, completed = 0, hits = 0;

  void AddPhase(const Phase& phase) {
    for (const Req& r : phase.reqs) {
      ++attempted;
      lag.push_back((r.sent_ns - r.due_ns) / 1e3);
      if (r.status != kOk) {
        ++failed;
        continue;
      }
      ++completed;
      const double us = (r.done_ns - r.due_ns) / 1e3;
      read.push_back(us);
      (r.hit ? hit : miss).push_back(us);
      hits += r.hit;
      bytes.push_back(r.bytes);
    }
    for (const DmlRec& d : phase.dmls) {
      ++attempted;
      if (d.status != kOk) {
        ++failed;
        continue;
      }
      ++completed;
      dml.push_back((d.done_ns - d.due_ns) / 1e3);
      if (d.visible_ns > 0) visible.push_back((d.visible_ns - d.due_ns) / 1e3);
    }
  }
};

struct SetupResult {
  std::unique_ptr<Topology> topology;
  srv::QcClient listener;
  double seconds = 0;
};

/// Everything setup_s covers: CSV export, spawn, import, index build, and
/// a live CDC subscription on cache0.
SetupResult Setup(const TopologyOptions& options, const qc::storage::Table& bench) {
  SetupResult out;
  const auto start = Clock::now();
  out.topology = std::make_unique<Topology>(options, bench);
  out.listener.Connect("127.0.0.1", out.topology->port(Topology::kCache0));
  out.listener.SubscribeCdc(0);
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

/// Wait until both cache nodes applied and relayed everything the storage
/// node committed.
bool WaitCachesCaughtUp(const Topology& topology) {
  const double committed = Get(NodeStats(topology.port(Topology::kStorage)), "server.cdc_committed_seq");
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < deadline) {
    if (Get(NodeStats(topology.port(Topology::kCache0)), "server.cdc_committed_seq") >= committed &&
        Get(NodeStats(topology.port(Topology::kCache1)), "server.cdc_committed_seq") >= committed) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

/// kVerifyKeys distinct keys, covering every key group the run read,
/// each read through both cache nodes and compared cell for cell with
/// sql::Execute on the oracle replica. Returns the number of mismatches.
size_t Verify(LoadGen& gen, const Traffic& traffic, const std::vector<bool>& accessed,
              qc::storage::Database& oracle, uint64_t seed) {
  // Keys the run read come first; untouched keys pad the sample when the
  // run read fewer than kVerifyKeys.
  qc::Rng rng = StreamRng(seed, 4);
  std::vector<uint32_t> candidates, untouched;
  for (uint32_t k = 0; k < traffic.keys().size(); ++k) {
    (k < accessed.size() && accessed[k] ? candidates : untouched).push_back(k);
  }
  std::shuffle(candidates.begin(), candidates.end(), rng.engine());
  std::shuffle(untouched.begin(), untouched.end(), rng.engine());
  candidates.insert(candidates.end(), untouched.begin(), untouched.end());
  std::vector<uint32_t> sample;
  std::set<uint32_t> covered;
  for (uint32_t k : candidates) {
    if (covered.insert(traffic.keys()[k].group).second) sample.push_back(k);
  }
  for (uint32_t k : candidates) {
    if (sample.size() >= kVerifyKeys) break;
    if (std::find(sample.begin(), sample.end(), k) == sample.end()) sample.push_back(k);
  }
  size_t mismatches = 0;
  // One node at a time: entering the ring through both at once can deadlock
  // it (loadgen.h).
  for (uint8_t conn : {0, 1}) {
    std::vector<std::pair<uint32_t, uint8_t>> reads;
    for (uint32_t k : sample) reads.emplace_back(k, conn);
    const Phase& phase = gen.RunWindow(reads, 32, /*keep_results=*/true);
    for (size_t i = 0; i < reads.size(); ++i) {
      const Key& key = traffic.keys()[reads[i].first];
      const auto bound = qc::sql::ParseAndBind(key.sql, oracle);
      const qc::sql::ResultSet expected = qc::sql::Execute(*bound, key.params);
      if (phase.reqs[i].status == kOk && phase.results[i].Equals(expected)) continue;
      if (mismatches++ < 3) {
        std::cerr << "qcbench: MISMATCH via cache" << int(conn) << " for " << key.sql
                  << (key.params.empty() ? "" : " $1=" + std::to_string(key.params[0].as_int()))
                  << "\n  expected " << expected.ToString(3) << "\n  got "
                  << phase.results[i].ToString(3) << "\n";
      }
    }
  }
  std::cerr << "qcbench: verified " << sample.size() << " keys (" << covered.size()
            << " groups) through both cache nodes, " << mismatches << " mismatches\n";
  return mismatches;
}

/// Per-span cost of the tracer itself (clock reads + record), in µs.
double TracerCostUs() {
  Tracer probe;
  const int n = 20'000;
  const int64_t start = NowNs();
  for (int i = 0; i < n; ++i) probe.Timed("probe", Tracer::kReplayB, -1, 0, [] {});
  return (NowNs() - start) / 1e3 / n;
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  Report report(spec.name);
  const std::string dir = args.workdir + "/" + spec.name + "-" + std::to_string(args.seed) + "-" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);

  // The oracle replica: the same seeded table the storage node imports;
  // every acknowledged UPDATE is applied to it.
  qc::storage::Database oracle;
  qc::setquery::BenchTable bench(oracle, kRows, args.seed);
  Traffic traffic(spec, bench, args.seed);

  TopologyOptions options;
  options.qcached = QCBENCH_QCACHED;
  options.dir = dir;
  options.cache_memory_budget_bytes = spec.cache_budget_bytes;
  std::vector<double> setup_times, import_times;
  SetupResult setup;
  for (int i = 0; i < kSetups; ++i) {
    setup = SetupResult{};  // stops the previous topology first
    setup = Setup(options, bench.table());
    setup_times.push_back(setup.seconds);
    std::cerr << "qcbench: set-up " << i + 1 << " took " << setup.seconds << " s\n";
    import_times.push_back(setup.topology->import_seconds());
  }
  const Topology& topology = *setup.topology;

  // Only the generator's threads need precise wake-ups; the servers were
  // forked before this and keep the default timer slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  LoadGen gen(topology, std::move(setup.listener), traffic, oracle, args.seed);
  std::vector<bool> accessed;
  const auto mark = [&](const Phase& phase) {
    accessed.resize(traffic.keys().size(), false);
    for (const Req& r : phase.reqs) accessed[r.key] = true;
  };

  // Untimed warm-up.
  const auto warm_start = Clock::now();
  std::vector<std::pair<uint32_t, uint8_t>> warm;
  for (uint32_t k : traffic.warm()) warm.emplace_back(k, 0);
  const Phase& warm_phase = gen.RunWindow(warm, 64, false);
  mark(warm_phase);
  const double warm_s = std::chrono::duration<double>(Clock::now() - warm_start).count();
  std::cerr << "qcbench: warmed " << warm.size() << " keys in " << warm_s << " s\n";

  // The measured fixed-rate phase.
  const Snapshot before = TakeSnapshot(topology);
  const double cpu_before = CpuOfTopology(topology);
  const Phase& fixed = gen.RunOpen(spec.read_rate, spec.dml_rate, args.seconds);
  const double cpu_after = CpuOfTopology(topology);
  const Snapshot after = TakeSnapshot(topology);
  mark(fixed);
  Sample s;
  s.AddPhase(fixed);

  std::vector<double> pings;
  {
    srv::QcClient pinger;
    pinger.Connect("127.0.0.1", topology.port(Topology::kCache0));
    for (int i = 0; i < 200; ++i) {
      const int64_t start = NowNs();
      pinger.Ping();
      pings.push_back((NowNs() - start) / 1e3);
    }
  }

  // Capacity ladder (traced runs only: its 2 s probes are too short for a
  // steady p99, so diag.max_rate_ops is a per-layer diagnostic): x1.25
  // per passing probe from the fixed rate, then one bisection. A probe
  // passes when its read p99 meets the limit, no request failed, and the
  // generator's lateness did not grow; it returns the read throughput it
  // achieved, or 0 when it failed.
  const auto probe = [&](double rate) {
    const Phase& p = gen.RunOpen(rate, spec.dml_rate * rate / spec.read_rate, kProbeSeconds);
    mark(p);
    Sample ps;
    ps.AddPhase(p);
    std::cerr << "qcbench: probe " << rate << "/s: p99 " << Percentile(ps.read, 0.99) << " us, "
              << ps.failed << " failed\n";
    const size_t q = ps.lag.size() / 4;
    const std::vector<double> head(ps.lag.begin(), ps.lag.begin() + q);
    const std::vector<double> tail(ps.lag.end() - q, ps.lag.end());
    const bool pass = ps.failed == 0 && !ps.read.empty() &&
                      Percentile(ps.read, 0.99) <= spec.p99_limit_us &&
                      Percentile(tail, 0.5) <= Percentile(head, 0.5) + 1000.0;
    return pass ? static_cast<double>(ps.read.size()) / kProbeSeconds : 0.0;
  };
  const auto ladder = [&] {
    double best = 0, rate = spec.read_rate, fail = 0;
    for (int step = 0; step < kLadderSteps; ++step, rate *= kLadderFactor) {
      const double achieved = probe(rate);
      if (achieved == 0) {
        fail = rate;
        break;
      }
      best = achieved;
    }
    if (best == 0) return probe(spec.read_rate / 2);  // the fixed rate itself failed
    if (fail > 0) best = std::max(best, probe((rate / kLadderFactor + fail) / 2));
    return best;
  };
  const bool traced = !args.trace_out.empty();
  const double max_rate = traced ? ladder() : 0.0;

  // Quiesce, let both cache nodes catch up with the stream, verify.
  bool correct = WaitCachesCaughtUp(topology) && gen.WaitAllVisible(10);
  if (!correct) std::cerr << "qcbench: acknowledged UPDATEs never became visible on cache0\n";
  if (gen.unmatched_cdc() > 0) {
    std::cerr << "qcbench: cache0 relayed " << gen.unmatched_cdc() << " CDC records no UPDATE explains\n";
    correct = false;
  }
  if (Verify(gen, traffic, accessed, oracle, args.seed) > 0) correct = false;
  if (!gen.error().empty()) throw qc::Error(gen.error());

  double peak_rss = 0;
  for (int n = 0; n < 3; ++n) peak_rss += PeakRssBytes(topology.pid(static_cast<Topology::Node>(n)));
  const double cache_memory = Get(after.node[1], "cache.memory_bytes") + Get(after.node[2], "cache.memory_bytes");

  // --- End-to-end ---
  const double reads = static_cast<double>(s.read.size());
  const double dmls = static_cast<double>(s.dml.size());
  report.Add("setup_s", Percentile(setup_times, 0.5), "s");
  report.Add("read_p50_us", Percentile(s.read, 0.5), "us");
  report.Add("diag.read_p99_us", Percentile(s.read, 0.99), "us");
  report.Add("hit_p50_us", Percentile(s.hit, 0.5), "us");
  report.Add("diag.miss_p50_us", Percentile(s.miss, 0.5), "us");
  report.Add("diag.dml_p50_us", Percentile(s.dml, 0.5), "us");
  report.Add("diag.visible_p50_us", Percentile(s.visible, 0.5), "us");
  report.Add("hit_ratio", Ratio(static_cast<double>(s.hits), reads), "ratio");
  report.Add("error_ratio", Ratio(static_cast<double>(s.failed), static_cast<double>(s.attempted)), "ratio");
  report.Add("cpu_us_per_op", Ratio(cpu_after - cpu_before, static_cast<double>(s.completed)), "us");
  report.Add("peak_rss_mb", peak_rss / (1 << 20), "MB");

  // --- Per layer (STATS deltas over the fixed phase) ---
  const auto d = [&](std::initializer_list<int> nodes, const char* key) {
    return Delta(before, after, nodes, key);
  };
  const auto caches = {1, 2};
  const auto all = {0, 1, 2};
  report.Add("server.ping_p50_us", Percentile(pings, 0.5), "us");
  report.Add("server.result_bytes_p50", Percentile(s.bytes, 0.5), "bytes");
  report.Add("server.frames_per_select", Ratio(d(all, "server.frames_received"), reads), "ratio");
  report.Add("server.busy_rejections", d(all, "server.busy_rejections"), "count");
  report.Add("server.cdc_events_dropped", d(all, "server.cdc_events_dropped"), "count");
  report.Add("cluster.ring_forward_frac", Ratio(d(caches, "cluster.ring_forwards"), reads), "ratio");
  report.Add("cluster.remote_fill_frac", Ratio(d(caches, "engine.remote_fills"), reads), "ratio");
  report.Add("cluster.seq_admit_rejects", d(caches, "engine.seq_admit_rejects"), "count");
  report.Add("cluster.gap_flushes", d(caches, "cluster.gap_flushes"), "count");
  report.Add("cluster.cdc_applied_per_dml", Ratio(d(caches, "cluster.cdc_events_applied"), dmls), "ratio");
  report.Add("middleware.exact_hit_frac.cache", Ratio(d(caches, "cache.hits"), reads), "ratio");
  report.Add("middleware.semantic_hit_frac.cache", Ratio(d(caches, "cache.semantic_hits"), reads), "ratio");
  report.Add("middleware.exact_hit_frac.storage", Ratio(d({0}, "cache.hits"), reads), "ratio");
  report.Add("middleware.semantic_hit_frac.storage", Ratio(d({0}, "cache.semantic_hits"), reads), "ratio");
  report.Add("middleware.stale_discards", d(all, "engine.stale_discards"), "count");
  report.Add("sql.rows_scanned_per_miss",
             Ratio(d({0}, "vec.rows_scanned"), d({0}, "engine.db_executions")), "rows");
  report.Add("sql.vec_fallback_frac",
             Ratio(d({0}, "vec.queries_fallback"),
                   d({0}, "vec.queries_fallback") + d({0}, "vec.queries_vectorized")), "ratio");
  report.Add("cache.evictions_per_put", Ratio(d(caches, "cache.evictions"), d(caches, "cache.puts")), "ratio");
  report.Add("cache.semantic_hit_per_probe",
             Ratio(d(caches, "cache.semantic_hits"), d(caches, "cache.semantic_probes")), "ratio");
  report.Add("cache.memory_mb", cache_memory / (1 << 20), "MB");
  report.Add("dup.invalidations_per_dml", Ratio(d(all, "dup.invalidations"), dmls), "ratio");
  report.Add("dup.index_fallback_frac",
             Ratio(d(all, "dup.predicate_index_fallbacks"), d(all, "dup.predicate_index_probes")), "ratio");
  report.Add("storage.import_s", Percentile(import_times, 0.5), "s");
  report.Add("setup.warm_s", warm_s, "s");
  report.Add("gen.lag_p50_us", Percentile(s.lag, 0.5), "us");
  report.Add("gen.lag_p99_us", Percentile(s.lag, 0.99), "us");

  if (traced) {
    report.Add("diag.max_rate_ops", max_rate, "1/s");
    Tracer tracer;
    std::vector<LoggedOp> log;
    // Client spans come from the timestamps every run records; the merged
    // read/UPDATE stream in scheduled order is what the replay re-sends.
    std::vector<std::pair<int64_t, LoggedOp>> ops;
    for (size_t i = 0; i < fixed.reqs.size(); ++i) {
      const Req& r = fixed.reqs[i];
      tracer.Add("client.select", Tracer::kClient, r.conn, r.due_ns, r.done_ns ? r.done_ns : r.due_ns,
                 fixed.first_id + i);
      ops.push_back({r.due_ns, LoggedOp{true, r.key, {}}});
    }
    for (size_t i = 0; i < fixed.dmls.size(); ++i) {
      const DmlRec& u = fixed.dmls[i];
      if (u.status != kOk) continue;
      tracer.Add("client.dml", Tracer::kClient, 2, u.due_ns, u.done_ns, i);
      if (u.visible_ns) tracer.Add("client.visible", Tracer::kClient, 3, u.due_ns, u.visible_ns, i);
      ops.push_back({u.due_ns, LoggedOp{false, 0, u.update}});
    }
    std::stable_sort(ops.begin(), ops.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [due, op] : ops) log.push_back(op);

    const int64_t replay_start = NowNs();
    // One replica stands for both cache nodes, so it gets both budgets.
    Replay(traffic, log, args.seed, 2 * spec.cache_budget_bytes, tracer);
    const double replay_us = (NowNs() - replay_start) / 1e3;
    tracer.WriteChromeJson(args.trace_out);

    const auto self = tracer.SelfTimesUs();
    const auto p50 = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : Percentile(it->second, 0.5);
    };
    size_t replay_spans = 0;
    for (const auto& [name, v] : self) {
      if (name.rfind("client.", 0) != 0) replay_spans += v.size();
    }
    for (const char* name : {"server.encode", "server.decode", "server.encode_cdc", "sql.parse",
                             "sql.bind", "sql.fingerprint", "sql.execute", "cache.get", "cache.put",
                             "dup.register", "dup.on_batch", "storage.dml_apply",
                             "middleware.execute_sql_hit", "middleware.execute_sql_miss"}) {
      report.Add(std::string(name) + "_us", p50(name), "us");
    }
    const double hit_path = p50("sql.parse") + p50("sql.bind") + p50("sql.fingerprint") + p50("cache.get");
    report.Add("middleware.overhead_us", p50("middleware.execute_sql_hit") - hit_path, "us");
    report.Add("server.unaccounted_us",
               Percentile(s.hit, 0.5) - (p50("middleware.execute_sql_hit") + p50("server.encode") +
                                          p50("server.decode") + Percentile(pings, 0.5)),
               "us");
    report.Add("trace.overhead_frac", Ratio(TracerCostUs() * static_cast<double>(replay_spans), replay_us),
               "ratio");
    const auto requests = self.find("replay.request");
    report.Add("trace.replayed_ops", requests == self.end() ? 0.0 : requests->second.size(), "count");
  }

  report.Add("run.attempted", static_cast<double>(s.attempted), "count");
  report.Add("run.failed", static_cast<double>(s.failed), "count");
  report.Add("run.correct", correct ? 1 : 0, "bool");

  // Lateness is charged to latency (it is measured from the schedule),
  // so scheduling hiccups on a busy host only show in gen.lag_p99_us;
  // a generator that is late on the median request cannot keep the rate.
  const double lag_p50 = Percentile(s.lag, 0.5);
  std::error_code ignored;
  if (correct) std::filesystem::remove_all(dir, ignored);
  if (!correct) return 1;
  if (lag_p50 > kMaxLagP50Us) {
    std::cerr << "qcbench: invalid run: generator lateness p50 " << lag_p50 << " us exceeds "
              << kMaxLagP50Us << " us at the fixed rate\n";
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "qcbench: " << e.what() << "\n";
    return 3;
  }
}
