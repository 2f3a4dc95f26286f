// The serve_churn traffic generator: two closed-loop writers, one
// open-loop Poisson reader and a control connection, all against a live
// `mc3 serve --listen` over loopback TCP.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "obs/exposition.h"
#include "util/status.h"

namespace perfbench {

/// A connected, blocking, line-oriented TCP client socket.
class LineSocket {
 public:
  /// Adopts a connected socket.
  explicit LineSocket(int fd) : fd_(fd) {}
  ~LineSocket();
  LineSocket(const LineSocket&) = delete;
  LineSocket& operator=(const LineSocket&) = delete;

  /// Connects to host:port with TCP_NODELAY on the client side.
  static mc3::Result<std::unique_ptr<LineSocket>> Connect(
      const std::string& host, int port);

  /// Writes `line` plus a newline.
  mc3::Status Send(const std::string& line);
  /// Reads one line (without the newline). Fails on EOF or after
  /// `timeout_s` without a complete line.
  mc3::Result<std::string> Receive(double timeout_s);
  /// Like Receive, but an empty optional when no line arrives within
  /// `wait_s`.
  mc3::Result<std::optional<std::string>> TryReceive(double wait_s);

 private:
  int fd_;
  std::string buffer_;
};

/// One open-loop stream on one connection: a sender thread writes request
/// i at `start + due[i]` (never early) and a receiver thread timestamps the
/// in-order responses. Sending stops at the first due time after `stop`
/// turns true; every sent request is then awaited.
struct OpenLoopTrace {
  std::vector<double> due;   ///< absolute due times of the sent requests
  std::vector<double> sent;
  std::vector<double> done;  ///< response arrival (parallel to due)
  std::vector<std::string> responses;
  std::string error;         ///< non-empty when the stream broke
};
OpenLoopTrace RunOpenLoop(LineSocket& socket, const std::vector<double>& due,
                          double start,
                          const std::vector<std::string>& requests,
                          const std::atomic<bool>& stop, double timeout_s);

struct ServeClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  int server_pid = 0;
  std::string workload_dir;
  uint64_t seed = 1;
  /// Also scrape the server's stage histograms (traced runs).
  bool scrape_stages = false;
};

/// Drives a checkpoint of the catalog as loaded, warm-up, the measured
/// phase, the final plan read and shutdown. Writes the served plan in
/// canonical form to <workload_dir>/served-plan.txt.
RunResult RunServeClient(const ServeClientOptions& options);

/// Cumulative counts by finite upper bound of histogram `name` (its
/// `<name>_bucket{le=".."}` samples) in a parsed `metrics` exposition;
/// empty when the series is absent.
std::map<double, double> HistogramBuckets(
    const std::vector<mc3::obs::ParsedSample>& samples,
    const std::string& name);

/// Percentile `q` of the events one histogram counted between two scrapes
/// (HistogramBuckets of each), interpolated inside the bucket holding the
/// rank. 0 when no event fell in between.
double PercentileBetween(const std::map<double, double>& before,
                         const std::map<double, double>& after, double q);

}  // namespace perfbench
