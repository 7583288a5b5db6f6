#include "cluster/cdc_applier.h"

#include "common/error.h"
#include "server/client.h"

namespace qc::cluster {

CdcApplier::CdcApplier(Invalidate invalidate, Flush flush)
    : invalidate_(std::move(invalidate)), flush_(std::move(flush)) {}

CdcApplier::~CdcApplier() { Stop(); }

void CdcApplier::Apply(const server::CdcRecord& record) {
  gate_->Advance(record.seq);  // first: see the header comment
  invalidate_(record);
  records_applied_.fetch_add(1, std::memory_order_relaxed);
  MarkApplied(record.seq);
}

void CdcApplier::Fence(uint64_t current) {
  if (current <= gate_->applied()) return;
  gate_->Advance(current);
  flush_();
  gap_flushes_.fetch_add(1, std::memory_order_relaxed);
  MarkApplied(current);
}

void CdcApplier::MarkApplied(uint64_t seq) {
  {
    std::lock_guard<std::mutex> lock(applied_mutex_);
    if (applied_complete_ < seq) applied_complete_ = seq;
  }
  applied_cv_.notify_all();
}

bool CdcApplier::WaitForSeq(uint64_t seq, std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(applied_mutex_);
  return applied_cv_.wait_for(lock, timeout, [this, seq] { return applied_complete_ >= seq; });
}

void CdcApplier::Subscribe(std::string host, uint16_t port) {
  if (subscriber_.joinable()) return;
  subscriber_ = std::thread([this, host = std::move(host), port] { SubscriptionLoop(host, port); });
}

void CdcApplier::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (subscriber_.joinable()) subscriber_.join();
}

void CdcApplier::SubscriptionLoop(const std::string& host, uint16_t port) {
  while (!stop_.load(std::memory_order_relaxed)) {
    try {
      server::QcClient stream;
      stream.Connect(host, port);
      Fence(stream.SubscribeCdc(gate_->applied()));
      subscribed_.store(true, std::memory_order_relaxed);
      while (!stop_.load(std::memory_order_relaxed)) {
        std::optional<server::CdcRecord> record =
            stream.ReadCdcEvent(static_cast<int>(kReadPoll.count()));
        if (record) Apply(*record);  // else poll timeout: re-check stop_
      }
      return;
    } catch (const Error&) {
      subscribed_.store(false, std::memory_order_relaxed);
      if (stop_.load(std::memory_order_relaxed)) return;
      std::this_thread::sleep_for(kReconnectBackoff);
    }
  }
}

}  // namespace qc::cluster
