#include "cluster.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.h"
#include "common/error.h"
#include "server/client.h"
#include "server/net.h"
#include "setquery/bench_table.h"
#include "storage/csv.h"

namespace qcbench {

using namespace std::chrono_literals;
using qc::Error;

// --- Processes ---------------------------------------------------------------

NodeProcess::NodeProcess(const std::string& binary, const std::vector<std::string>& flags,
                         const std::string& log_path) {
  std::vector<std::string> args = {binary};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw Error("fork failed");
  if (pid_ == 0) {
    // A qcbench that dies without reaching its destructors must not leave
    // servers behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
}

NodeProcess::~NodeProcess() { Stop(); }

bool NodeProcess::Exited() {
  if (pid_ < 0) return true;
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) == pid_) {
    pid_ = -1;
    return true;
  }
  return false;
}

void NodeProcess::Stop() {
  if (Exited()) return;
  ::kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + 5s;
  while (Clock::now() < deadline) {
    if (Exited()) return;
    std::this_thread::sleep_for(2ms);
  }
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

double CpuMicros(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const size_t close = text.rfind(')');
  if (close == std::string::npos) throw Error("cannot read /proc/" + std::to_string(pid) + "/stat");
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  // Fields after the command: state is field 3, utime 14, stime 15.
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) * 1e6 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double PeakRssBytes(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) * 1024.0;
  }
  throw Error("no VmHWM for pid " + std::to_string(pid));
}

// --- Topology ----------------------------------------------------------------

namespace {

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  out << content;
  if (!out) throw Error("cannot write " + path);
}

/// Peers need each other's ports before either has started, so ports are
/// reserved by binding an ephemeral listener and releasing it.
uint16_t PickFreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw Error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw Error("bind failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  return ntohs(addr.sin_port);
}

void WaitForPortFile(const std::string& path, NodeProcess& node) {
  const auto deadline = Clock::now() + 60s;
  while (Clock::now() < deadline) {
    std::ifstream in(path);
    int port = 0;
    if (in && (in >> port) && port > 0) return;
    if (node.Exited()) throw Error("qcached exited during start-up (its log is beside " + path + ")");
    std::this_thread::sleep_for(1ms);
  }
  throw Error("timed out waiting for " + path);
}

std::string SchemaScript() {
  std::string script = "\\create BENCH ";
  for (size_t c = 0; c < qc::setquery::BenchColumns().size(); ++c) {
    script += std::string(c ? ", " : "") + qc::setquery::BenchColumns()[c].name + " INT";
  }
  return script + "\n";
}

}  // namespace

Topology::Topology(const TopologyOptions& options, const qc::storage::Table& bench) {
  const std::string csv = options.dir + "/bench.csv";
  qc::storage::ExportCsvFile(bench, csv);
  // The same indexes setquery::BenchTable builds, after the bulk load.
  std::string storage_script = SchemaScript() + "\\import BENCH " + csv + "\n";
  for (const auto& col : qc::setquery::BenchColumns()) {
    storage_script += std::string("\\index BENCH ") + col.name + " hash\n";
  }
  storage_script += "\\index BENCH KSEQ ordered\n";
  WriteFile(options.dir + "/storage.init", storage_script);
  WriteFile(options.dir + "/schema.init", SchemaScript());

  for (uint16_t& port : ports_) port = PickFreePort();
  const auto common = [&](const std::string& name, uint16_t port, const std::string& init) {
    return std::vector<std::string>{"--port",      std::to_string(port),
                                    "--port-file", options.dir + "/" + name + ".port",
                                    "--threads",   "2",
                                    "--policy",    "III",
                                    "--init",      options.dir + "/" + init,
                                    "--quiet"};
  };
  const auto spawn = [&](const std::string& name, std::vector<std::string> flags) {
    std::remove((options.dir + "/" + name + ".port").c_str());  // an earlier set-up's
    nodes_.push_back(std::make_unique<NodeProcess>(options.qcached, flags,
                                                   options.dir + "/" + name + ".log"));
    WaitForPortFile(options.dir + "/" + name + ".port", *nodes_.back());
  };

  const auto start = Clock::now();
  spawn("storage", common("storage", ports_[kStorage], "storage.init"));
  import_s_ = std::chrono::duration<double>(Clock::now() - start).count();

  for (int i = 0; i < 2; ++i) {
    const std::string name = "cache" + std::to_string(i);
    std::vector<std::string> flags = common(name, ports_[kCache0 + i], "schema.init");
    const std::vector<std::string> cluster = {
        "--upstream", "127.0.0.1:" + std::to_string(ports_[kStorage]),
        "--node-name", name,
        "--peer", "cache" + std::to_string(1 - i) + "=127.0.0.1:" + std::to_string(ports_[kCache1 - i])};
    flags.insert(flags.end(), cluster.begin(), cluster.end());
    if (options.cache_memory_budget_bytes > 0) {
      flags.push_back("--memory-budget-bytes");
      flags.push_back(std::to_string(options.cache_memory_budget_bytes));
    }
    spawn(name, flags);
  }

  // Both appliers subscribed: from here on no committed update can be
  // missed by a cache node.
  qc::server::QcClient storage;
  storage.Connect("127.0.0.1", ports_[kStorage]);
  const auto deadline = Clock::now() + 30s;
  while (storage.Stats()["server.cdc_subscribers"] < 2) {
    if (Clock::now() > deadline) throw Error("cache nodes never subscribed to the CDC stream");
    std::this_thread::sleep_for(1ms);
  }
}

Topology::~Topology() {
  // Cache nodes first, so their appliers do not spin on a vanished upstream.
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) (*it)->Stop();
}

std::map<std::string, double> NodeStats(uint16_t port) {
  qc::server::QcClient client;
  client.Connect("127.0.0.1", port);
  return client.Stats();
}

// --- Pipelined connection ----------------------------------------------------

PipeConn::~PipeConn() {
  if (fd_ >= 0) ::close(fd_);
}

void PipeConn::Connect(uint16_t port) {
  namespace srv = qc::server;
  fd_ = srv::ConnectTcp("127.0.0.1", port);
  srv::WireWriter w;
  w.U32(srv::kProtocolMagic);
  w.U8(srv::kProtocolVersion);
  w.U8(srv::kProtocolVersion);
  srv::WriteAll(fd_, srv::BuildFrame(srv::Opcode::kHello, 0, w.bytes()));
  std::string header_bytes, payload;
  if (!srv::ReadExact(fd_, srv::kFrameHeaderSize, header_bytes)) throw Error("no HELLO reply");
  const srv::FrameHeader header = srv::DecodeFrameHeader(header_bytes);
  if (header.length > 0) srv::ReadExact(fd_, header.length, payload);
  if (header.opcode != srv::Opcode::kHelloOk) throw Error("HELLO refused");
}

void PipeConn::Send(std::string_view bytes) { qc::server::WriteAll(fd_, bytes); }

bool PipeConn::Pump(const FrameFn& fn) {
  namespace srv = qc::server;
  char buf[64 * 1024];
  bool open = true;
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      inbuf_.append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) open = false;
    else if (errno == EINTR) continue;
    else if (errno != EAGAIN && errno != EWOULDBLOCK) open = false;
    break;
  }
  size_t pos = 0;
  while (inbuf_.size() - pos >= srv::kFrameHeaderSize) {
    const srv::FrameHeader header =
        srv::DecodeFrameHeader(std::string_view(inbuf_).substr(pos, srv::kFrameHeaderSize));
    if (inbuf_.size() - pos - srv::kFrameHeaderSize < header.length) break;
    fn(header, std::string_view(inbuf_).substr(pos + srv::kFrameHeaderSize, header.length));
    pos += srv::kFrameHeaderSize + header.length;
  }
  inbuf_.erase(0, pos);
  return open;
}

}  // namespace qcbench
