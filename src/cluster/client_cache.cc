#include "cluster/client_cache.h"

#include <algorithm>

#include "common/strings.h"
#include "sql/fingerprint.h"
#include "sql/parser.h"

namespace qc::cluster {

namespace {

struct ParsedSelect {
  std::string key;
  std::vector<std::string> tables;  // upper-cased
};

ParsedSelect ParseSelect(const std::string& sql, const std::vector<Value>& params) {
  const sql::SelectStmt stmt = sql::Parse(sql);
  ParsedSelect parsed;
  parsed.key = sql::Fingerprint(stmt, params);
  parsed.tables.reserve(stmt.from.size());
  for (const sql::TableRef& ref : stmt.from) parsed.tables.push_back(ToUpper(ref.table));
  return parsed;
}

}  // namespace

ClientCache::ClientCache(std::string host, uint16_t port, ClientCacheConfig config)
    : host_(std::move(host)),
      port_(port),
      config_(std::move(config)),
      applier_(
          [this](const server::CdcRecord& record) { DropTable(record.table); },
          [this] {
            std::lock_guard<std::mutex> lock(mutex_);
            entries_.clear();
            lru_.clear();
            invalidated_cv_.notify_all();
          }) {
  if (config_.enable_subscription) applier_.Subscribe(host_, port_);
}

ClientCache::~ClientCache() {
  applier_.Stop();
  std::lock_guard<std::mutex> lock(origin_mutex_);
  origin_.Close();
}

cache::TimePoint ClientCache::Now() const {
  return config_.now ? config_.now() : std::chrono::steady_clock::now();
}

middleware::CachedQueryEngine::ExecuteResult ClientCache::Execute(
    const std::string& sql, const std::vector<Value>& params) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  const ParsedSelect parsed = ParseSelect(sql, params);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(parsed.key);
    if (it != entries_.end()) {
      // While the push channel is healthy it is the freshness authority —
      // an entry still present has not been invalidated, serve it at any
      // age. Disconnected, fall back to the lease.
      if (applier_.subscribed() || Now() - it->second.fetched_at < config_.lease_ttl) {
        lru_.splice(lru_.begin(), lru_, it->second.lru);
        local_hits_.fetch_add(1, std::memory_order_relaxed);
        return {it->second.result, true};
      }
      lease_expiries_.fetch_add(1, std::memory_order_relaxed);
      EraseLocked(it);
    }
  }

  origin_requests_.fetch_add(1, std::memory_order_relaxed);
  server::QcClient::SeqQueryResult reply =
      WithOrigin([&](server::QcClient& origin) { return origin.QuerySeq(sql, params); });
  auto result = std::make_shared<const sql::ResultSet>(std::move(reply.result));

  std::lock_guard<std::mutex> lock(mutex_);
  // Sequence-admission guard, client edition: if a pushed invalidation
  // with a higher sequence than this fill observed has already been
  // applied, the fill may predate it — serve it once but do not cache it.
  // Checked under mutex_, so it is atomic with the insertion below.
  if (!applier_.gate()->Admits(reply.observed_seq)) {
    seq_admit_rejects_.fetch_add(1, std::memory_order_relaxed);
    return {std::move(result), false};
  }
  auto [it, inserted] = entries_.try_emplace(parsed.key);
  if (inserted) {
    it->second.lru = lru_.insert(lru_.begin(), parsed.key);
  } else {
    lru_.splice(lru_.begin(), lru_, it->second.lru);
  }
  it->second.result = result;
  it->second.tables = parsed.tables;
  it->second.fetched_at = Now();
  while (entries_.size() > config_.max_entries) {
    EraseLocked(entries_.find(lru_.back()));
  }
  return {std::move(result), false};
}

uint64_t ClientCache::Dml(const std::string& sql, const std::vector<Value>& params) {
  const uint64_t affected =
      WithOrigin([&](server::QcClient& origin) { return origin.Dml(sql, params); });
  // Read-your-writes: drop our own copies of the written table now rather
  // than when the pushed record loops back.
  try {
    const sql::AnyStatement stmt = sql::ParseStatement(sql);
    if (stmt.kind == sql::AnyStatement::Kind::kDml) DropTable(stmt.dml.table);
  } catch (const std::exception&) {
    // Unparseable locally (the server accepted it): the push will catch up.
  }
  return affected;
}

void ClientCache::Refresh(const std::string& sql, const std::vector<Value>& params) {
  const ParsedSelect parsed = ParseSelect(sql, params);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(parsed.key);
  if (it != entries_.end()) EraseLocked(it);
  invalidated_cv_.notify_all();
}

bool ClientCache::WaitForInvalidation(const std::string& sql, const std::vector<Value>& params,
                                      std::chrono::milliseconds timeout) {
  const ParsedSelect parsed = ParseSelect(sql, params);
  std::unique_lock<std::mutex> lock(mutex_);
  return invalidated_cv_.wait_for(lock, timeout, [this, &parsed] {
    return entries_.find(parsed.key) == entries_.end();
  });
}

ClientCacheStats ClientCache::stats() const {
  ClientCacheStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.local_hits = local_hits_.load(std::memory_order_relaxed);
  s.origin_requests = origin_requests_.load(std::memory_order_relaxed);
  s.push_invalidations = push_invalidations_.load(std::memory_order_relaxed);
  s.lease_expiries = lease_expiries_.load(std::memory_order_relaxed);
  s.seq_admit_rejects = seq_admit_rejects_.load(std::memory_order_relaxed);
  return s;
}

size_t ClientCache::entry_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void ClientCache::EraseLocked(std::unordered_map<std::string, Entry>::iterator it) {
  lru_.erase(it->second.lru);
  entries_.erase(it);
}

void ClientCache::DropTable(const std::string& table) {
  const std::string upper_table = ToUpper(table);
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    const std::vector<std::string>& tables = it->second.tables;
    if (std::find(tables.begin(), tables.end(), upper_table) != tables.end()) {
      lru_.erase(it->second.lru);
      it = entries_.erase(it);
      push_invalidations_.fetch_add(1, std::memory_order_relaxed);
    } else {
      ++it;
    }
  }
  invalidated_cv_.notify_all();
}

}  // namespace qc::cluster
