#include "wire.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "net/frame.hpp"
#include "util/error.hpp"

namespace upbench {

namespace {

using upsim::Error;
using Clock = std::chrono::steady_clock;

constexpr int kStartTimeoutMs = 60000;
/// How long a request may wait for its response before it counts as a
/// transport failure.
constexpr auto kResponseTimeout = std::chrono::seconds(60);

/// Reads the pty until the daemon's listening line; returns the port.
std::uint16_t read_port_line(int fd, pid_t pid) {
  std::string seen;
  const auto deadline = Clock::now() + std::chrono::milliseconds(kStartTimeoutMs);
  while (true) {
    const auto pos = seen.find(" on 127.0.0.1:");
    if (pos != std::string::npos) {
      const std::size_t start = pos + std::strlen(" on 127.0.0.1:");
      const std::size_t end = seen.find_first_not_of("0123456789", start);
      if (end != std::string::npos && end > start) {
        return static_cast<std::uint16_t>(
            std::stoul(seen.substr(start, end - start)));
      }
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) throw Error("upsimd printed no port line in time");
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left));
    if (ready < 0 && errno != EINTR) throw Error("poll on upsimd output failed");
    if (ready <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) {
      int status = 0;
      ::waitpid(pid, &status, 0);
      throw Error("upsimd exited before listening:\n" + seen);
    }
    seen.append(buf, static_cast<std::size_t>(n));
  }
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

}  // namespace

Daemon::Daemon(const std::string& exe, const std::vector<std::string>& args,
               const std::string& log_path) {
  master_ = ::posix_openpt(O_RDWR | O_NOCTTY | O_CLOEXEC);
  if (master_ < 0 || ::grantpt(master_) != 0 || ::unlockpt(master_) != 0) {
    throw Error("cannot allocate a pseudo-terminal for upsimd");
  }
  const char* slave_name = ::ptsname(master_);
  if (slave_name == nullptr) throw Error("ptsname failed");
  // Everything the child touches is prepared before fork(): after it only
  // async-signal-safe calls run.
  const std::string slave(slave_name);
  std::vector<std::string> argv_store;
  argv_store.push_back(exe);
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) throw Error("fork failed");
  if (pid_ == 0) {
    // Same process group as the benchmark, so whoever stops that group
    // stops the daemon too; and SIGTERM when the benchmark dies.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    const int out = ::open(slave.c_str(), O_RDWR | O_NOCTTY);
    const int err = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int in = ::open("/dev/null", O_RDONLY);
    if (out < 0 || err < 0 || in < 0) ::_exit(127);
    ::dup2(in, 0);
    ::dup2(out, 1);
    ::dup2(err, 2);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  try {
    port_ = read_port_line(master_, pid_);
  } catch (...) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
    ::close(master_);
    master_ = -1;
    throw;
  }
}

Daemon::~Daemon() {
  try {
    stop();
  } catch (...) {
    // Already reported by an explicit stop(); a destructor cannot throw.
  }
}

void Daemon::stop() {
  if (pid_ < 0) return;
  ::kill(pid_, SIGTERM);
  // Drain the pty while waiting, so the daemon's shutdown lines can never
  // block it.
  // A daemon that has not drained within the limit is killed, so a wedged
  // shutdown cannot hang the run.
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  int status = 0;
  char buf[512];
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() > deadline) ::kill(pid_, SIGKILL);
    pollfd pfd{master_, POLLIN, 0};
    if (::poll(&pfd, 1, 50) > 0) (void)::read(master_, buf, sizeof buf);
  }
  pid_ = -1;
  ::close(master_);
  master_ = -1;
  if (!(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
    throw Error("upsimd did not exit cleanly");
  }
}

double Daemon::cpu_seconds() const {
  const std::string stat = read_text("/proc/" + std::to_string(pid_) + "/stat");
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) throw Error("cannot read upsimd /proc stat");
  std::istringstream in(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::peak_rss_mb() const {
  std::istringstream in(
      read_text("/proc/" + std::to_string(pid_) + "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  throw Error("no VmHWM in upsimd /proc status");
}

Connection::Connection(std::uint16_t port)
    : sock_(upsim::net::connect_tcp("127.0.0.1", port, 5000)) {
  sock_.set_nodelay(true);
  sock_.set_send_timeout_ms(60000);
}

void Connection::send(std::string_view payload) {
  upsim::net::write_frame(sock_, payload);
}

std::optional<std::string> Connection::poll_response() {
  char chunk[1 << 16];
  const ssize_t n = ::recv(sock_.fd(), chunk, sizeof chunk, MSG_DONTWAIT);
  if (n > 0) {
    in_.append(chunk, static_cast<std::size_t>(n));
  } else if (n == 0) {
    throw Error("upsimd closed the connection");
  } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
    throw Error(std::string("recv from upsimd: ") + std::strerror(errno));
  }
  constexpr std::size_t header = upsim::net::kFrameHeaderBytes;
  if (in_.size() < header) return std::nullopt;
  std::size_t len = 0;
  for (std::size_t b = 0; b < header; ++b) {
    len = (len << 8) | static_cast<unsigned char>(in_[b]);
  }
  if (in_.size() < header + len) return std::nullopt;
  std::string response = in_.substr(header, len);
  in_.erase(0, header + len);
  return response;
}

std::string Connection::exchange(std::string_view payload) {
  send(payload);
  const Clock::time_point deadline = Clock::now() + kResponseTimeout;
  while (true) {
    if (auto response = poll_response()) return std::move(*response);
    if (Clock::now() > deadline) throw Error("no response from upsimd");
  }
}

int response_status(std::string_view response) {
  const std::string_view tag = "\"status\":";
  const std::size_t pos = response.find(tag);
  if (pos == std::string_view::npos) return 0;
  return std::atoi(std::string(response.substr(pos + tag.size(), 3)).c_str());
}

std::vector<Sample> run_open_loop(std::uint16_t port, const Stream& stream,
                                  std::size_t connections, const Checker& check,
                                  Clock::time_point start) {
  std::vector<Sample> samples(stream.requests.size());
  std::vector<std::vector<std::size_t>> per_conn(connections);
  for (std::size_t i = 0; i < stream.requests.size(); ++i) {
    per_conn.at(stream.requests[i].conn).push_back(i);
  }
  std::vector<Connection> conns;
  for (std::size_t c = 0; c < connections; ++c) conns.emplace_back(port);

  /// One connection's place in its share of the stream.
  struct Lane {
    std::size_t next = 0;  ///< index into per_conn[c] of the request due next
    bool busy = false;     ///< a request is out and its response not yet in
    Clock::time_point due;
    Clock::time_point sent;
  };
  std::vector<Lane> lanes(connections);
  std::size_t left = stream.requests.size();

  // Ends the lane's current request: times it, checks the response (an
  // empty one is a transport failure) and moves on to the next request.
  auto finish = [&](std::size_t c, Clock::time_point done,
                    const std::string& response) {
    Lane& lane = lanes[c];
    const std::size_t i = per_conn[c][lane.next];
    Sample& s = samples[i];
    using Micros = std::chrono::duration<double, std::micro>;
    s.latency_us = Micros(done - lane.due).count();
    s.lag_us = Micros(lane.sent - lane.due).count();
    if (!response.empty()) {
      s.status = response_status(response);
      s.response_bytes = response.size() + upsim::net::kFrameHeaderBytes;
      try {
        s.correct = check(stream.requests[i], response);
      } catch (const std::exception&) {
        s.correct = false;
      }
    }
    if (s.status == 0) {
      // The connection is gone; later requests on it fail fast.
      try {
        conns[c] = Connection(port);
      } catch (const std::exception&) {
      }
    }
    lane.busy = false;
    ++lane.next;
    --left;
  };

  // One thread serves every connection and never sleeps: it spins on the
  // clock for due times and on non-blocking reads for responses (see
  // Connection).
  while (left > 0) {
    const Clock::time_point now = Clock::now();
    for (std::size_t c = 0; c < connections; ++c) {
      Lane& lane = lanes[c];
      if (lane.next == per_conn[c].size()) continue;
      if (!lane.busy) {
        const Scheduled& req = stream.requests[per_conn[c][lane.next]];
        lane.due = start + std::chrono::nanoseconds(
                               static_cast<std::int64_t>(req.at_us * 1e3));
        if (now < lane.due) continue;
        lane.sent = Clock::now();
        try {
          conns[c].send(req.payload);
          lane.busy = true;
        } catch (const std::exception&) {
          finish(c, Clock::now(), "");
        }
        continue;
      }
      std::optional<std::string> response;
      try {
        response = conns[c].poll_response();
      } catch (const std::exception&) {
        finish(c, now, "");
        continue;
      }
      if (response) {
        finish(c, Clock::now(), *response);
      } else if (now - lane.sent > kResponseTimeout) {
        finish(c, now, "");
      }
    }
  }
  return samples;
}

}  // namespace upbench
