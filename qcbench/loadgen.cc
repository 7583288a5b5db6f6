#include "loadgen.h"

#include <poll.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>

#include "common.h"
#include "common/error.h"
#include "sql/dml.h"
#include "sql/parser.h"

namespace qcbench {

namespace srv = qc::server;

namespace {

void SleepUntil(int64_t ns) {
  if (ns <= NowNs()) return;
  timespec ts{static_cast<time_t>(ns / 1'000'000'000), static_cast<long>(ns % 1'000'000'000)};
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

/// Poisson arrival offsets in [0, seconds) at `rate` per second, with the
/// count fixed at rate x seconds: given its count, a Poisson process's
/// arrival times are independent uniform draws. Every run then sends the
/// same number of requests, and the count's own variance (about 7 % for
/// 200 UPDATEs) stays out of the run-to-run spread.
std::vector<int64_t> PoissonOffsets(qc::Rng& rng, double rate, double seconds) {
  std::vector<int64_t> out(static_cast<size_t>(std::llround(std::max(0.0, rate * seconds))));
  for (int64_t& t : out) t = static_cast<int64_t>(rng.UniformReal() * seconds * 1e9);
  std::sort(out.begin(), out.end());
  return out;
}

constexpr int64_t kStartDelayNs = 2'000'000;
constexpr int64_t kAnswerTimeoutNs = 10'000'000'000;

}  // namespace

LoadGen::LoadGen(const Topology& topology, srv::QcClient listener, Traffic& traffic,
                 qc::storage::Database& oracle, uint64_t seed)
    : traffic_(traffic),
      oracle_(oracle),
      writer_rng_(StreamRng(seed, 3)),
      schedule_rng_(StreamRng(seed, 2)),
      listener_(std::move(listener)) {
  conns_[0].Connect(topology.port(Topology::kCache0));
  conns_[1].Connect(topology.port(Topology::kCache1));
  writer_.Connect("127.0.0.1", topology.port(Topology::kCache1));
  receiver_ = std::thread([this] { ReceiverLoop(); });
  listener_thread_ = std::thread([this] { ListenerLoop(); });
}

LoadGen::~LoadGen() {
  stop_.store(true);
  receiver_.join();
  listener_thread_.join();
}

void LoadGen::SetError(const std::string& message) {
  std::lock_guard<std::mutex> lock(vis_mu_);
  if (error_.empty()) error_ = message;
}

std::string LoadGen::error() const {
  std::lock_guard<std::mutex> lock(vis_mu_);
  return error_;
}

size_t LoadGen::unmatched_cdc() const {
  std::lock_guard<std::mutex> lock(vis_mu_);
  return unmatched_;
}

Phase& LoadGen::NewPhase(size_t reads, size_t dmls) {
  phases_.push_back(std::make_unique<Phase>());
  Phase& phase = *phases_.back();
  phase.first_id = next_id_;
  next_id_ += static_cast<uint32_t>(reads);
  phase.reqs.resize(reads);
  phase.dmls.resize(dmls);
  return phase;
}

void LoadGen::Finish(Phase& phase, int64_t deadline_ns) {
  while (phase.completed.load(std::memory_order_acquire) < phase.reqs.size() &&
         NowNs() < deadline_ns) {
    SleepUntil(NowNs() + 200'000);
  }
  std::lock_guard<std::mutex> lock(phase_mu_);
  current_ = nullptr;
  for (Req& r : phase.reqs) {
    if (r.status == kPending) r.status = kFailed;  // timed out
  }
}

const Phase& LoadGen::RunOpen(double read_rate, double dml_rate, double seconds) {
  const std::vector<int64_t> reads = PoissonOffsets(schedule_rng_, read_rate, seconds);
  const std::vector<int64_t> dmls = PoissonOffsets(schedule_rng_, dml_rate, seconds);
  Phase& phase = NewPhase(reads.size(), dmls.size());
  const int64_t start = NowNs() + kStartDelayNs;
  for (size_t i = 0; i < reads.size(); ++i) {
    Req& r = phase.reqs[i];
    r.due_ns = start + reads[i];
    r.key = traffic_.NextRead(schedule_rng_);
  }
  for (size_t i = 0; i < dmls.size(); ++i) phase.dmls[i].due_ns = start + dmls[i];
  {
    std::lock_guard<std::mutex> lock(phase_mu_);
    current_ = &phase;
  }
  // jthread: joined even if a send below throws.
  std::jthread writer([this, &phase] { WriterLoop(phase); });

  // Every request whose time has come goes out in one write per
  // connection, however late the sender woke.
  std::string out[2];
  for (size_t i = 0; i < phase.reqs.size();) {
    SleepUntil(phase.reqs[i].due_ns);
    const int64_t now = NowNs();
    for (; i < phase.reqs.size() && phase.reqs[i].due_ns <= now; ++i) {
      Req& r = phase.reqs[i];
      r.sent_ns = now;
      out[r.conn] += srv::BuildFrame(srv::Opcode::kQuery, phase.first_id + static_cast<uint32_t>(i),
                                     traffic_.keys()[r.key].payload);
    }
    for (int c = 0; c < 2; ++c) {
      if (!out[c].empty()) conns_[c].Send(out[c]);
      out[c].clear();
    }
  }
  writer.join();
  const int64_t last = phase.reqs.empty() ? NowNs() : phase.reqs.back().due_ns;
  Finish(phase, last + kAnswerTimeoutNs);
  return phase;
}

const Phase& LoadGen::RunWindow(const std::vector<std::pair<uint32_t, uint8_t>>& reads,
                                size_t window, bool keep_results) {
  Phase& phase = NewPhase(reads.size(), 0);
  phase.keep_results = keep_results;
  if (keep_results) phase.results.resize(reads.size());
  {
    std::lock_guard<std::mutex> lock(phase_mu_);
    current_ = &phase;
  }
  int64_t progress_ns = NowNs();
  size_t progress = 0;
  for (size_t i = 0; i < reads.size(); ++i) {
    while (i - phase.completed.load(std::memory_order_acquire) >= window) {
      if (phase.completed.load() != progress) {
        progress = phase.completed.load();
        progress_ns = NowNs();
      } else if (NowNs() - progress_ns > kAnswerTimeoutNs) {
        throw qc::Error("the cluster stopped answering (" + std::to_string(i - progress) +
                        " requests in flight)");
      }
      SleepUntil(NowNs() + 20'000);
    }
    Req& r = phase.reqs[i];
    r.key = reads[i].first;
    r.conn = reads[i].second;
    r.due_ns = r.sent_ns = NowNs();
    conns_[r.conn].Send(srv::BuildFrame(srv::Opcode::kQuery, phase.first_id + static_cast<uint32_t>(i),
                                        traffic_.keys()[r.key].payload));
  }
  Finish(phase, NowNs() + kAnswerTimeoutNs);
  return phase;
}

void LoadGen::ReceiverLoop() {
  pollfd fds[2] = {{conns_[0].fd(), POLLIN, 0}, {conns_[1].fd(), POLLIN, 0}};
  const auto on_frame = [this](const srv::FrameHeader& header, std::string_view payload,
                               int64_t now) {
    Phase* phase = current_;
    if (phase == nullptr || header.request_id < phase->first_id ||
        header.request_id - phase->first_id >= phase->reqs.size()) {
      return;  // answer to a request that already timed out
    }
    const size_t index = header.request_id - phase->first_id;
    Req& r = phase->reqs[index];
    if (r.status != kPending) return;
    r.done_ns = now;
    r.bytes = static_cast<uint32_t>(payload.size());
    if (header.opcode == srv::Opcode::kResultSet && !payload.empty()) {
      r.hit = payload[0] != 0;
      r.status = kOk;
      if (phase->keep_results) {
        srv::WireReader reader(payload);
        phase->results[index] = srv::DecodeResultSet(reader).result;
      }
    } else {
      r.status = kFailed;  // BUSY, ERROR or an unexpected frame
    }
    phase->completed.fetch_add(1, std::memory_order_release);
  };
  try {
    while (!stop_.load()) {
      if (::poll(fds, 2, 20) < 0) {
        if (errno == EINTR) continue;
        throw qc::Error("receiver poll failed");
      }
      for (int c = 0; c < 2; ++c) {
        if (fds[c].revents == 0) continue;
        const int64_t now = NowNs();
        std::lock_guard<std::mutex> lock(phase_mu_);
        const bool open = conns_[c].Pump(
            [&](const srv::FrameHeader& h, std::string_view p) { on_frame(h, p, now); });
        if (!open) throw qc::Error("cache node closed a load connection");
      }
    }
  } catch (const std::exception& e) {
    SetError(std::string("receiver: ") + e.what());
  }
}

void LoadGen::WriterLoop(Phase& phase) {
  try {
    for (DmlRec& d : phase.dmls) {
      SleepUntil(d.due_ns);
      d.update = traffic_.NextUpdate(writer_rng_, oracle_.GetTable("BENCH"));
      const std::vector<qc::Value> params = {qc::Value(d.update.value), qc::Value(d.update.kseq)};
      {
        std::lock_guard<std::mutex> lock(vis_mu_);
        pending_[d.update.kseq].push_back(&d);
      }
      uint64_t affected = 0;
      try {
        affected = writer_.Dml(UpdateSql(d.update.column), params);
      } catch (const srv::RpcError&) {
        std::lock_guard<std::mutex> lock(vis_mu_);
        auto& queue = pending_[d.update.kseq];
        queue.erase(std::find(queue.begin(), queue.end(), &d));
        d.status = kFailed;
        continue;
      }
      d.done_ns = NowNs();
      if (affected != 1) throw qc::Error("UPDATE by KSEQ affected " + std::to_string(affected) + " rows");
      auto it = dml_statements_.find(d.update.column);
      if (it == dml_statements_.end()) {
        it = dml_statements_.emplace(d.update.column,
                                     qc::sql::ParseStatement(UpdateSql(d.update.column)).dml).first;
      }
      qc::sql::ExecuteDml(it->second, oracle_, params);
      std::lock_guard<std::mutex> lock(vis_mu_);
      d.status = kOk;
      ++acked_;
    }
  } catch (const std::exception& e) {
    SetError(std::string("writer: ") + e.what());
  }
}

void LoadGen::ListenerLoop() {
  try {
    while (!stop_.load()) {
      const std::optional<srv::CdcRecord> record = listener_.ReadCdcEvent(20);
      if (!record) continue;
      const int64_t now = NowNs();
      std::lock_guard<std::mutex> lock(vis_mu_);
      for (const qc::storage::UpdateEvent& event : record->events) {
        auto it = event.after.empty() ? pending_.end() : pending_.find(event.after[0].as_int());
        if (it == pending_.end() || it->second.empty()) {
          ++unmatched_;
          continue;
        }
        it->second.front()->visible_ns = now;
        it->second.pop_front();
        ++visible_;
      }
    }
  } catch (const std::exception& e) {
    SetError(std::string("listener: ") + e.what());
  }
}

bool LoadGen::WaitAllVisible(double timeout_s) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  while (NowNs() < deadline) {
    {
      std::lock_guard<std::mutex> lock(vis_mu_);
      if (visible_ >= acked_) return true;
    }
    SleepUntil(NowNs() + 1'000'000);
  }
  return false;
}

}  // namespace qcbench
