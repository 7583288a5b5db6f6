// CdcApplier — the one CDC applier every cache tier shares (docs/CLUSTER.md):
// wire cache nodes (CacheNodeRuntime), push-lease client caches
// (ClientCache) and the in-process cluster's bus deliveries (CacheCluster).
// Each tier supplies only its two cache-specific steps: `invalidate`, which
// drops what one CDC record obsoletes, and `flush`, which drops everything.
// The sequence gate, the gap fence, WaitForSeq and the QCP/1 subscription
// loop live here, once.
//
// Why the gate advances first. A fill observes a stream sequence before it
// reads (QUERY_SEQ's observed_seq, or the in-process bus sequence) and is
// admitted only if the gate has applied nothing newer
// (dup::CdcSequenceGate::Admits, checked atomically with insertion). Apply
// advances the gate to record `s` *before* `s`'s invalidations run: a
// stale fill (observed < s) that tries to admit after the advance is
// refused; one admitted before it is an ordinary entry that the
// invalidation about to run drops. There is no window in which a stale
// result outlives the invalidation that obsoletes it.
//
// Resubscribe gaps. The stream replays nothing, so when SUBSCRIBED reports
// a current sequence above applied(), records were missed. Fence advances
// the gate to that sequence and then flushes the cache — the same
// gate-first order: every fill still in flight from before the gap is
// either refused by the fence or removed by the flush.
//
// @thread_safety Apply, Fence, WaitForSeq and the accessors may be called
// from any number of threads (the in-process cluster applies its writer's
// records and bus deliveries concurrently); `invalidate` and `flush` must
// be safe under the same concurrency. Subscribe starts at most one
// subscription thread, which owns its own connection; Stop() joins it and
// must run before anything the two steps touch is destroyed.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "dup/epochs.h"
#include "server/protocol.h"

namespace qc::cluster {

class CdcApplier {
 public:
  using Invalidate = std::function<void(const server::CdcRecord&)>;
  using Flush = std::function<void()>;

  /// Pause between a lost upstream connection and the next SUBSCRIBE.
  static constexpr std::chrono::milliseconds kReconnectBackoff{50};
  /// CDC read timeout; bounds how long Stop() waits for the thread.
  static constexpr std::chrono::milliseconds kReadPoll{100};

  CdcApplier(Invalidate invalidate, Flush flush);

  /// Calls Stop().
  ~CdcApplier();

  CdcApplier(const CdcApplier&) = delete;
  CdcApplier& operator=(const CdcApplier&) = delete;

  /// The gate this tier's fills are admitted against.
  const std::shared_ptr<dup::CdcSequenceGate>& gate() const { return gate_; }
  uint64_t applied() const { return gate_->applied(); }

  /// Apply one record: advance the gate, run `invalidate`, then count it
  /// and mark the sequence applied for WaitForSeq. Duplicated or
  /// out-of-order records still invalidate but never move the gate back.
  void Apply(const server::CdcRecord& record);

  /// Gap fence: if `current` is above applied(), advance the gate to it,
  /// run `flush` and count a gap flush; otherwise do nothing.
  void Fence(uint64_t current);

  /// Start the subscription thread: connect to host:port, SUBSCRIBE from
  /// applied(), Fence on the reply, then Apply each pushed record;
  /// reconnect after kReconnectBackoff until Stop(). A second call while
  /// the thread runs is a no-op.
  void Subscribe(std::string host, uint16_t port);

  /// Stop and join the subscription thread. Idempotent.
  void Stop();

  /// True while the subscription thread holds a live SUBSCRIBEd stream.
  bool subscribed() const { return subscribed_.load(std::memory_order_relaxed); }

  /// Block until every record up to `seq` has been fully applied (gate
  /// advanced AND `invalidate` returned). Returns false on timeout.
  bool WaitForSeq(uint64_t seq, std::chrono::milliseconds timeout);

  uint64_t records_applied() const { return records_applied_.load(std::memory_order_relaxed); }
  uint64_t gap_flushes() const { return gap_flushes_.load(std::memory_order_relaxed); }

 private:
  void MarkApplied(uint64_t seq);
  void SubscriptionLoop(const std::string& host, uint16_t port);

  const Invalidate invalidate_;
  const Flush flush_;
  const std::shared_ptr<dup::CdcSequenceGate> gate_ = std::make_shared<dup::CdcSequenceGate>();

  std::mutex applied_mutex_;
  std::condition_variable applied_cv_;
  uint64_t applied_complete_ = 0;  // guarded by applied_mutex_

  std::atomic<bool> stop_{false};
  std::atomic<bool> subscribed_{false};

  std::atomic<uint64_t> records_applied_{0};
  std::atomic<uint64_t> gap_flushes_{0};

  std::thread subscriber_;  // last: it uses every member above
};

}  // namespace qc::cluster
