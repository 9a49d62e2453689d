#include "serve/io.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "serve/protocol.h"

namespace ovs::serve {

namespace {

constexpr int kPollMs = 100;

/// Serialized response sink shared by the reader thread and the shard
/// workers completing this connection's requests.
class ResponseWriter {
 public:
  explicit ResponseWriter(int fd) : fd_(fd) {}

  /// Writes one full line atomically w.r.t. other responses. Returns false
  /// when the client is gone (EPIPE etc.); the connection keeps draining.
  bool WriteLine(const std::string& line) {
    std::lock_guard<std::mutex> lock(mu_);
    std::string framed = line;
    framed.push_back('\n');
    size_t written = 0;
    while (written < framed.size()) {
      const ssize_t n =
          ::write(fd_, framed.data() + written, framed.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      written += static_cast<size_t>(n);
    }
    return true;
  }

 private:
  int fd_;
  std::mutex mu_;
};

/// Tracks responses still owed to the connection so the loop can drain
/// before returning (a torn-down connection must never leak a callback
/// writing into a dead object).
class InFlight {
 public:
  void Add() {
    std::lock_guard<std::mutex> lock(mu_);
    ++count_;
  }
  void Done() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      --count_;
    }
    cv_.notify_all();
  }
  void Drain() {
    std::unique_lock<std::mutex> lock(mu_);
    while (count_ > 0) {
      cv_.wait_for(lock, std::chrono::milliseconds(kPollMs),
                   [this] { return count_ == 0; });
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int count_ = 0;
};

}  // namespace

ConnectionStats RunConnection(RecoveryServer& server, int in_fd, int out_fd,
                              const std::atomic<bool>* shutdown) {
  ConnectionStats stats;
  auto writer = std::make_shared<ResponseWriter>(out_fd);
  auto cancel = std::make_shared<CancelToken>();
  auto inflight = std::make_shared<InFlight>();
  std::mutex stats_mu;

  auto reject_line = [&](Status status) {
    {
      std::lock_guard<std::mutex> lock(stats_mu);
      ++stats.parse_errors;
    }
    OVS_COUNTER_INC("serve.requests.parse_error");
    Response r;
    r.status = std::move(status);
    if (!writer->WriteLine(SerializeResponse(r))) {
      std::lock_guard<std::mutex> lock(stats_mu);
      ++stats.write_failures;
    }
  };
  auto submit_line = [&](const std::string& line) {
    if (line.empty()) return;
    if (line.size() > kMaxRequestLineBytes) {
      reject_line(Status::InvalidArgument(
          "request line longer than " + std::to_string(kMaxRequestLineBytes) +
          " bytes"));
      return;
    }
    StatusOr<Request> parsed = ParseRequest(line);
    if (!parsed.ok()) {
      reject_line(parsed.status());
      return;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu);
      ++stats.requests;
    }
    inflight->Add();
    server.Submit(std::move(*parsed), cancel,
                  [writer, inflight, &stats, &stats_mu](Response r) {
                    const bool wrote =
                        writer->WriteLine(SerializeResponse(r));
                    {
                      std::lock_guard<std::mutex> lock(stats_mu);
                      if (wrote) {
                        ++stats.responses;
                      } else {
                        ++stats.write_failures;
                      }
                    }
                    inflight->Done();
                  });
  };

  // `buffer` holds the unterminated tail of the input; its first `scanned`
  // bytes are known to hold no newline, so each byte is searched once.
  // While `skipping`, the tail belongs to an over-long line that was already
  // answered, and is dropped up to its newline.
  std::string buffer;
  size_t scanned = 0;
  bool skipping = false;
  bool eof = false;
  while (!eof && (shutdown == nullptr ||
                  !shutdown->load(std::memory_order_relaxed))) {
    struct pollfd pfd;
    pfd.fd = in_fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    if ((pfd.revents & (POLLIN | POLLHUP)) == 0) break;
    char chunk[4096];
    const ssize_t n = ::read(in_fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl; (nl = buffer.find('\n', scanned)) != std::string::npos;
         scanned = start) {
      if (!skipping) submit_line(buffer.substr(start, nl - start));
      skipping = false;
      start = nl + 1;
    }
    buffer.erase(0, start);
    if (!skipping && buffer.size() > kMaxRequestLineBytes) {
      submit_line(buffer);  // answers the over-long line's one error
      skipping = true;
    }
    if (skipping) buffer.clear();
    scanned = buffer.size();
  }
  // Trailing line without newline still counts on clean EOF.
  if (eof && !buffer.empty()) submit_line(buffer);

  if (eof) {
    // The client is gone: abandon its in-flight fits at the next epoch.
    cancel->cancelled.store(true, std::memory_order_release);
    OVS_COUNTER_INC("serve.connections.disconnected");
  }
  // Every submitted request must answer (or be cancelled) before the stack
  // objects the callbacks reference go away.
  inflight->Drain();
  return stats;
}

Status RunTcpServer(RecoveryServer& server, int port,
                    const std::atomic<bool>* shutdown) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status s =
        Status::Internal(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd);
    return s;
  }
  if (::listen(listen_fd, 16) != 0) {
    const Status s =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd);
    return s;
  }

  std::vector<std::thread> connections;
  while (shutdown == nullptr || !shutdown->load(std::memory_order_relaxed)) {
    struct pollfd pfd;
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const int conn_fd = ::accept(listen_fd, nullptr, nullptr);
    if (conn_fd < 0) continue;
    OVS_COUNTER_INC("serve.connections.accepted");
    connections.emplace_back([&server, conn_fd, shutdown] {
      RunConnection(server, conn_fd, conn_fd, shutdown);
      ::close(conn_fd);
    });
  }
  ::close(listen_fd);
  for (std::thread& t : connections) {
    // Connection loops poll the same shutdown flag, so they return within
    // one poll interval plus their drain.
    if (t.joinable()) t.join();  // ovs-lint: allow(unbounded-wait)
  }
  return Status::Ok();
}

}  // namespace ovs::serve
