// The open-loop load generator: one sender (the calling thread), one
// receiver thread, one writer thread issuing UPDATEs through cache1, and
// one listener thread holding the CDC subscription on cache0 — four
// threads and four connections in all.
//
// Reads enter the ring through cache0 only; cache0 forwards the half of
// them cache1 owns. Entering through both nodes deadlocks the cluster
// under pipelined load: each node's workers block on a forward to the
// other while the other's workers block on theirs, and neither has a
// worker left to serve the forwarded request. The connection to cache1
// is used by verification, which reads through one node at a time.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster.h"
#include "server/client.h"
#include "sql/ast.h"
#include "sql/result.h"
#include "storage/database.h"
#include "traffic.h"

namespace qcbench {

enum Status : uint8_t { kPending = 0, kOk = 1, kFailed = 2 };

struct Req {
  int64_t due_ns = 0;   // scheduled send time; latency is measured from here
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  uint32_t key = 0;
  uint32_t bytes = 0;   // RESULT_SET payload size
  uint8_t conn = 0;     // 0 = cache0, 1 = cache1 (verification only)
  uint8_t status = kPending;
  bool hit = false;
};

struct DmlRec {
  int64_t due_ns = 0;
  int64_t done_ns = 0;     // DML_OK received
  int64_t visible_ns = 0;  // cache0 relayed the matching CDC record
  Update update;
  uint8_t status = kPending;
};

struct Phase {
  uint32_t first_id = 0;
  std::vector<Req> reqs;
  std::vector<DmlRec> dmls;
  bool keep_results = false;
  std::vector<qc::sql::ResultSet> results;  // parallel to reqs when keep_results
  std::atomic<size_t> completed{0};
};

class LoadGen {
 public:
  /// `listener` is already subscribed to cache0's CDC stream. Acknowledged
  /// UPDATEs are applied to `oracle` (which must hold BENCH).
  LoadGen(const Topology& topology, qc::server::QcClient listener, Traffic& traffic,
          qc::storage::Database& oracle, uint64_t seed);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Phases stay owned by the generator (the listener may still match a
  /// late CDC record to one of their UPDATEs).
  ///
  /// Open loop for `seconds`: reads at Poisson times at `read_rate`
  /// through cache0, UPDATEs at Poisson times at `dml_rate` through
  /// cache1. Requests unanswered 10 s after the last send fail.
  const Phase& RunOpen(double read_rate, double dml_rate, double seconds);

  /// Closed loop with at most `window` reads in flight: (key, connection).
  const Phase& RunWindow(const std::vector<std::pair<uint32_t, uint8_t>>& reads,
                                   size_t window, bool keep_results);

  /// Wait until every acknowledged UPDATE's CDC record was relayed by cache0.
  bool WaitAllVisible(double timeout_s);

  /// CDC records cache0 relayed that matched no pending UPDATE.
  size_t unmatched_cdc() const;
  /// First error a helper thread hit (empty when none).
  std::string error() const;

 private:
  Phase& NewPhase(size_t reads, size_t dmls);
  void Finish(Phase& phase, int64_t deadline_ns);
  void ReceiverLoop();
  void ListenerLoop();
  void WriterLoop(Phase& phase);
  void SetError(const std::string& message);

  Traffic& traffic_;
  qc::storage::Database& oracle_;
  qc::Rng writer_rng_;
  qc::Rng schedule_rng_;
  PipeConn conns_[2];
  qc::server::QcClient writer_;
  qc::server::QcClient listener_;
  std::unordered_map<uint32_t, qc::sql::DmlStmt> dml_statements_;  // writer thread only
  uint32_t next_id_ = 1;
  std::deque<std::unique_ptr<Phase>> phases_;

  std::mutex phase_mu_;
  Phase* current_ = nullptr;  // guarded by phase_mu_

  mutable std::mutex vis_mu_;
  std::unordered_map<int64_t, std::deque<DmlRec*>> pending_;  // by KSEQ; guarded by vis_mu_
  size_t acked_ = 0, visible_ = 0, unmatched_ = 0;            // guarded by vis_mu_
  std::string error_;                                          // guarded by vis_mu_

  std::atomic<bool> stop_{false};
  std::thread receiver_;
  std::thread listener_thread_;
};

}  // namespace qcbench
