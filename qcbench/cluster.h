// The benchmarked topology: real qcached child processes (one storage node,
// two ring-partitioned cache nodes) and the pipelined QCP/1 connections the
// load generator drives them with.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "server/protocol.h"
#include "storage/table.h"

namespace qcbench {

/// One qcached child. The destructor stops it (SIGTERM, then SIGKILL after
/// a grace period) and reaps it, so no process outlives its owner.
class NodeProcess {
 public:
  NodeProcess(const std::string& binary, const std::vector<std::string>& flags,
              const std::string& log_path);
  ~NodeProcess();
  NodeProcess(const NodeProcess&) = delete;
  NodeProcess& operator=(const NodeProcess&) = delete;

  pid_t pid() const { return pid_; }
  /// Reaps the child if it has exited; true when it is gone.
  bool Exited();
  void Stop();

 private:
  pid_t pid_ = -1;
};

struct TopologyOptions {
  std::string qcached;      // server binary
  std::string dir;          // scratch directory for CSV, scripts, port files, logs
  size_t cache_memory_budget_bytes = 0;  // 0 = qcached's default
};

/// Storage node + cache0 + cache1, each `--threads 2 --policy III`.
class Topology {
 public:
  /// Exports `bench` as CSV, writes the init scripts, starts the storage
  /// node (import + index build), then both cache nodes, and returns once
  /// both cache nodes' CDC appliers are subscribed to the storage node.
  Topology(const TopologyOptions& options, const qc::storage::Table& bench);
  ~Topology();
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  enum Node { kStorage = 0, kCache0 = 1, kCache1 = 2 };
  uint16_t port(Node node) const { return ports_[node]; }
  pid_t pid(Node node) const { return nodes_[node]->pid(); }
  /// Spawn of the storage node until it listened: CSV import + index build.
  double import_seconds() const { return import_s_; }

 private:
  std::vector<std::unique_ptr<NodeProcess>> nodes_;
  uint16_t ports_[3] = {0, 0, 0};
  double import_s_ = 0.0;
};

/// utime + stime of `pid` in microseconds (/proc/<pid>/stat).
double CpuMicros(pid_t pid);

/// Peak resident set (VmHWM) of `pid` in bytes (/proc/<pid>/status).
double PeakRssBytes(pid_t pid);

/// STATS of one node through a short-lived QcClient connection.
std::map<std::string, double> NodeStats(uint16_t port);

/// A QCP/1 connection used with pipelining: any number of requests in
/// flight, matched to responses by request_id. One thread sends, another
/// receives.
class PipeConn {
 public:
  PipeConn() = default;
  ~PipeConn();
  PipeConn(const PipeConn&) = delete;
  PipeConn& operator=(const PipeConn&) = delete;

  /// Connect and complete the HELLO handshake.
  void Connect(uint16_t port);
  int fd() const { return fd_; }
  void Send(std::string_view bytes);

  using FrameFn = std::function<void(const qc::server::FrameHeader&, std::string_view payload)>;
  /// Read what the socket holds and hand every complete frame to `fn`.
  /// Returns false when the server closed the connection.
  bool Pump(const FrameFn& fn);

 private:
  int fd_ = -1;
  std::string inbuf_;
};

}  // namespace qcbench
