// The wire side of the benchmark: the upsimd child process, connections
// whose responses are read by spinning, and the open-loop sender.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/socket.hpp"
#include "workload.hpp"

namespace upbench {

/// An upsimd child process.  Its stdout is a pseudo-terminal, so the
/// daemon's port line arrives line-buffered; the constructor blocks on that
/// line and returns once the daemon accepts connections.  Stops (SIGTERM,
/// then waits for the exit) on destruction.
class Daemon {
 public:
  /// `args` follow the executable; stderr goes to `log_path`.
  Daemon(const std::string& exe, const std::vector<std::string>& args,
         const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// utime + stime of the process so far, in seconds.
  [[nodiscard]] double cpu_seconds() const;
  /// Peak resident set size (VmHWM), in MB.
  [[nodiscard]] double peak_rss_mb() const;
  /// Sends SIGTERM and waits for the exit; throws when the exit status is
  /// not 0.  Idempotent.
  void stop();

 private:
  pid_t pid_ = -1;
  int master_ = -1;
  std::uint16_t port_ = 0;
};

/// One connection: a request frame out, a response frame back.  Responses
/// are read by spinning on non-blocking reads, never by sleeping in recv:
/// on a virtual machine, waking a sleeping thread waits for the hypervisor
/// to run an idle vCPU again, and how long that takes follows the load of
/// other guests on the host, not the program (README.md, "Noise").
class Connection {
 public:
  explicit Connection(std::uint16_t port);
  /// Sends `payload` and returns the response document.  Throws on any
  /// transport failure or after 60 s without a response.
  [[nodiscard]] std::string exchange(std::string_view payload);
  /// Sends the frame of `payload` only; throws on a transport failure.
  void send(std::string_view payload);
  /// Reads what has arrived without waiting; returns the next response
  /// document once all of it is in.  Throws on a transport failure.
  [[nodiscard]] std::optional<std::string> poll_response();

 private:
  upsim::net::Socket sock_;
  std::string in_;  ///< bytes received and not yet returned
};

/// Status member of a response document (0 when it cannot be read).
[[nodiscard]] int response_status(std::string_view response);

/// One request of the timed window as sent.
struct Sample {
  double latency_us = 0.0;  ///< response received minus scheduled send
  double lag_us = 0.0;      ///< actual send minus scheduled send
  int status = 0;           ///< 0 = transport failure
  bool correct = false;     ///< the checker accepted the response
  std::size_t response_bytes = 0;
};

/// Called right after a response arrives (outside the timed part); returns
/// whether the response is correct.
using Checker =
    std::function<bool(const Scheduled& request, const std::string& response)>;

/// Runs `stream` open loop against `port` from the calling thread:
/// connection c sends its requests in order, each at its scheduled offset
/// from `start` (or as soon as the previous answer on c is in, when
/// already late).
[[nodiscard]] std::vector<Sample> run_open_loop(
    std::uint16_t port, const Stream& stream, std::size_t connections,
    const Checker& check, std::chrono::steady_clock::time_point start);

}  // namespace upbench
