#ifndef OVS_SERVE_IO_H_
#define OVS_SERVE_IO_H_

// Transport for the JSONL protocol: a poll-driven line loop over a file
// descriptor pair (stdio or an accepted socket) and a minimal TCP listener.
// Responses are written as single whole lines under a per-connection lock,
// so a response can never interleave or tear no matter which worker thread
// completes it. Client disconnect (EOF/HUP) flips the connection's
// CancelToken: in-flight fits abort at their next epoch poll instead of
// burning a dead client's epochs.

#include <atomic>
#include <cstddef>
#include <memory>

#include "serve/server.h"
#include "util/status.h"

namespace ovs::serve {

/// Longest request line a connection buffers. fig9's largest grid (3,968
/// links x 12 intervals at <= 25 bytes a cell) makes a ~1.2 MB recover
/// request, so 16 MiB leaves more than 10x headroom while bounding what a
/// client that never sends '\n' can pin in server memory.
inline constexpr size_t kMaxRequestLineBytes = size_t{16} << 20;

/// Statistics one connection loop returns (drill assertions read these).
struct ConnectionStats {
  int64_t requests = 0;        ///< lines parsed into requests
  int64_t parse_errors = 0;    ///< lines answered with INVALID_ARGUMENT
  int64_t responses = 0;       ///< responses written
  int64_t write_failures = 0;  ///< responses dropped (client gone)
};

/// Reads request lines from `in_fd` until EOF or `*shutdown`, submits them,
/// writes response lines to `out_fd`. A line longer than
/// kMaxRequestLineBytes answers one INVALID_ARGUMENT (counted as a parse
/// error) and is skipped up to its newline. Blocks the calling thread.
/// Returns after all in-flight requests of this connection have answered
/// (they are cancelled on EOF, so this is bounded by one epoch + queue
/// time).
ConnectionStats RunConnection(RecoveryServer& server, int in_fd, int out_fd,
                              const std::atomic<bool>* shutdown);

/// Binds 127.0.0.1:`port`, accepts connections until `*shutdown`, one
/// thread per connection. Returns a non-OK status only for setup failures
/// (bind/listen); runtime connection errors just end their connection.
Status RunTcpServer(RecoveryServer& server, int port,
                    const std::atomic<bool>* shutdown);

}  // namespace ovs::serve

#endif  // OVS_SERVE_IO_H_
