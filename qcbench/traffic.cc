#include "traffic.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>

#include "common/error.h"
#include "server/protocol.h"
#include "setquery/queries.h"
#include "storage/table.h"

namespace qcbench {

namespace {

// Read rates are about half the capacity a rate sweep measured when the
// benchmark was written (README.md); paper_updates, whose latency is set
// by its UPDATEs rather than its throughput, has no knee and runs where
// read latency is near its unloaded value. The rates are frozen so both
// sides of a comparison get the same load. Outside paper_updates the
// UPDATEs only probe the write path, at 2/s: each holds the storage
// node's table write lock for a full scan (~15 ms), and more of them
// would stall the fills these workloads measure. hot_hits' read p99 was
// 1-15 ms at every rate swept, from 250/s to 8000/s, so a limit of a few
// ms would fail at any rate.
const WorkloadSpec kWorkloads[] = {
    // name            reads/s  UPDATEs/s  p99 limit   cache budget per node
    {"hot_hits",       4000.0,   2.0,      25'000.0,   0},
    {"paper_updates",    90.0,  10.0,     100'000.0,   0},
    {"range_semantic", 1000.0,   2.0,      50'000.0,   0},
    {"evict_churn",     650.0,   2.0,      50'000.0,   3'750'000},
};

constexpr int64_t kK100kDomain = 100'000;
// 32 supersets rather than a few wide ones: each lands on one cache
// node's share of the ring, and with few of them the split between the
// nodes (and so the hit ratio) varies from seed to seed.
constexpr int64_t kSupersets = 32;
constexpr int64_t kSupersetWidth = 1'250;
constexpr int64_t kMaxSubrangeWidth = 100;
constexpr int64_t kPointDomain = 50'000;

std::string RangeSql(int64_t lo, int64_t hi) {
  return "SELECT KSEQ, K100K FROM BENCH WHERE K100K BETWEEN " + std::to_string(lo) + " AND " +
         std::to_string(hi);
}

/// BENCH columns other than KSEQ (the row key) and `excluded`.
std::vector<uint32_t> ColumnsExcept(const qc::storage::Table& table,
                                    const std::vector<std::string>& excluded) {
  std::vector<uint32_t> out;
  for (uint32_t c = 1; c < table.schema().size(); ++c) {
    const std::string name = qc::setquery::BenchColumns()[c].name;
    if (std::find(excluded.begin(), excluded.end(), name) == excluded.end()) out.push_back(c);
  }
  return out;
}

std::vector<uint32_t> Columns(const qc::storage::Table& table, const std::vector<std::string>& names) {
  std::vector<uint32_t> out;
  for (const std::string& name : names) out.push_back(table.schema().Require(name));
  return out;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : kWorkloads) names.emplace_back(spec.name);
  return names;
}

std::string UpdateSql(uint32_t column) {
  return std::string("UPDATE BENCH SET ") + qc::setquery::BenchColumns().at(column).name +
         " = $1 WHERE KSEQ = $2";
}

uint32_t Traffic::AddKey(std::string sql, std::vector<qc::Value> params, uint32_t group) {
  std::string dedup = sql;
  for (const qc::Value& v : params) dedup += "|" + std::to_string(v.as_int());
  const auto [it, inserted] = by_sql_.emplace(std::move(dedup), static_cast<uint32_t>(keys_.size()));
  if (!inserted) return it->second;
  Key key;
  qc::server::WireWriter w;
  w.Str(sql);
  w.Params(params);
  key.payload = w.Take();
  key.sql = std::move(sql);
  key.params = std::move(params);
  key.group = group;
  keys_.push_back(std::move(key));
  return it->second;
}

Traffic::Traffic(const WorkloadSpec& spec, const qc::setquery::BenchTable& bench, uint64_t seed)
    : bench_(bench) {
  qc::Rng rng = StreamRng(seed, 1);
  const std::string name = spec.name;
  const qc::storage::Table& table = bench.table();

  if (name == "hot_hits" || name == "paper_updates") {
    // (template x $1) keys over the Set Query parameterized templates.
    // hot_hits keeps the single-row Q1-Q3 families, which read neither
    // K500K nor K250K, and updates only those two columns: its UPDATEs
    // run the whole write path without invalidating anything it caches.
    std::vector<qc::setquery::ParamQuerySpec> templates =
        qc::setquery::BuildParameterizedQueries(bench);
    if (name == "hot_hits") {
      std::erase_if(templates, [](const auto& t) { return t.type >= "4"; });
      update_columns_ = Columns(table, {"K500K", "K250K"});
    } else {
      update_columns_ = ColumnsExcept(table, {});
    }
    // Keys are dealt to the templates in turn, so every seed gets the same
    // template mix in the hot ranks and the hot set; only the $1 values
    // vary. A template whose $1 domain is used up (K2 has two values) is
    // skipped.
    const size_t n = name == "hot_hits" ? 2'000 : 1'000;
    std::vector<std::set<int64_t>> used(templates.size());
    while (keys_.size() < n) {
      for (uint32_t t = 0; t < templates.size() && keys_.size() < n; ++t) {
        const uint32_t column = templates[t].param_column;
        const int64_t cardinality = qc::setquery::BenchColumns()[column].cardinality;
        if (cardinality > 0 && used[t].size() >= static_cast<size_t>(cardinality)) continue;
        int64_t v;
        do {
          v = bench.RandomValue(column, rng);
        } while (!used[t].insert(v).second);
        AddKey(templates[t].sql, {qc::Value(v)}, t);
      }
    }
    if (name == "hot_hits") {
      // Zipf over the warmed keys, plus a 1 % tail of never-seen keys so
      // the miss path has samples too.
      warm_.resize(n);
      std::iota(warm_.begin(), warm_.end(), 0u);
      auto zipf = std::make_shared<Zipf>(n, 0.99);
      next_read_ = [this, zipf, templates](qc::Rng& r) {
        if (!r.Chance(0.01)) return static_cast<uint32_t>(zipf->Next(r));
        for (;;) {
          const size_t before = keys_.size();
          const auto t = static_cast<uint32_t>(r.Uniform(0, static_cast<int64_t>(templates.size()) - 1));
          const uint32_t id =
              AddKey(templates[t].sql, {qc::Value(bench_.RandomValue(templates[t].param_column, r))}, t);
          if (keys_.size() > before) return id;
        }
      };
    } else {
      // Paper Fig. 12: 80 % of reads go to a 20 % hot set; the hot set is
      // warmed, the cold keys are filled on first use.
      const size_t hot = n / 5;
      warm_.resize(hot);
      std::iota(warm_.begin(), warm_.end(), 0u);
      next_read_ = [hot, n](qc::Rng& r) {
        return static_cast<uint32_t>(r.Chance(0.8) ? r.Uniform(0, hot - 1) : r.Uniform(hot, n - 1));
      };
    }
  } else if (name == "range_semantic") {
    // Groups: 0 = warmed superset, 1 = sub-range inside one, 2 = range
    // outside every superset (a cold full scan: K100K has no ordered index).
    // Disjoint supersets, one at a random offset in each equal slot of the
    // domain.
    constexpr int64_t kSlot = kK100kDomain / kSupersets;
    std::vector<int64_t> lows;
    for (int64_t slot = 0; slot < kSupersets; ++slot) {
      const int64_t lo = 1 + slot * kSlot + rng.Uniform(0, kSlot - kSupersetWidth);
      lows.push_back(lo);
      warm_.push_back(AddKey(RangeSql(lo, lo + kSupersetWidth - 1), {}, 0));
    }
    update_columns_ = ColumnsExcept(table, {"K100K"});  // the query reads KSEQ, K100K
    next_read_ = [this, lows](qc::Rng& r) {
      for (;;) {
        const size_t before = keys_.size();
        const int64_t width = r.Uniform(1, kMaxSubrangeWidth);
        uint32_t id;
        if (r.Chance(0.9)) {
          const int64_t lo = lows[r.Uniform(0, static_cast<int64_t>(lows.size()) - 1)];
          const int64_t a = r.Uniform(lo, lo + kSupersetWidth - width);
          id = AddKey(RangeSql(a, a + width - 1), {}, 1);
        } else {
          const int64_t a = r.Uniform(1, kK100kDomain - width + 1);
          bool overlaps = false;
          for (int64_t lo : lows) overlaps |= a <= lo + kSupersetWidth - 1 && lo <= a + width - 1;
          if (overlaps) continue;
          id = AddKey(RangeSql(a, a + width - 1), {}, 2);
        }
        if (keys_.size() > before) return id;  // every read is a distinct range
      }
    };
  } else if (name == "evict_churn") {
    // 50k distinct point reads of ~750 cached bytes each; each cache node
    // owns half and gets a budget of a fifth of its half.
    const std::string sql = "SELECT KSEQ, K2, K4, K5, K10, K25, K100 FROM BENCH WHERE K100K = $1";
    update_columns_ = Columns(table, {"K500K", "K250K", "K40K", "K10K", "K1K"});  // not read
    // Warm past both budgets so the measured phase starts in steady state:
    // evicting, not filling an empty cache.
    for (int i = 0; i < 12'000; ++i) {
      warm_.push_back(AddKey(sql, {qc::Value(rng.Uniform(1, kPointDomain))}, 0));
    }
    next_read_ = [this, sql](qc::Rng& r) {
      return AddKey(sql, {qc::Value(r.Uniform(1, kPointDomain))}, 0);
    };
  } else {
    throw qc::Error("unknown workload " + name);
  }
}

uint32_t Traffic::NextRead(qc::Rng& rng) { return next_read_(rng); }

Update Traffic::NextUpdate(qc::Rng& rng, const qc::storage::Table& table) {
  Update u;
  u.column = update_columns_[updates_++ % update_columns_.size()];
  u.kseq = rng.Uniform(1, static_cast<int64_t>(bench_.rows()));
  const qc::storage::RowId row = table.LookupEqual(0, qc::Value(u.kseq)).at(0);
  const qc::Value current = table.Get(row, u.column);
  do {
    u.value = bench_.RandomValue(u.column, rng);
  } while (qc::Value(u.value) == current);
  return u;
}

}  // namespace qcbench
