// upbench — the upsimd end-to-end benchmark (see README.md).
//
//   upbench --workload NAME --seed N --seconds S --trace 0|1
//                  --upsimd PATH --out-dir DIR --layers layers.json
//                  [--commit ID] [--rate REQ_PER_S]
//
// --trace 0 measures the end-to-end metrics with tracing off: set-up is run
// Workload::setup_repeats times against fresh daemons (median reported),
// then the last daemon serves the timed open-loop window.  --trace 1 runs
// one untraced and one traced wire pass plus the in-process replay, and
// prints the per-layer metrics.  Either way the last stdout line is one
// JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is 0 only when every response was correct.  --rate
// overrides the workload's offered rate, for finding what a machine
// sustains, not for measuring.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis.hpp"
#include "layers.hpp"
#include "obs/json.hpp"
#include "util/error.hpp"
#include "wire.hpp"
#include "workload.hpp"

namespace {

using namespace upbench;
using upsim::Error;
using Clock = std::chrono::steady_clock;

/// upsimd worker threads for every run.
constexpr std::size_t kDaemonThreads = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string upsimd;
  std::string out_dir;
  std::string layers;
  std::string commit = "unknown";
  /// Overrides the workload's offered rate; for finding the rate a
  /// machine sustains (README.md, "Offered rates"), not for measuring.
  double rate = 0.0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw Error("missing value after " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::stoull(v);
    } else if (arg == "--seconds") {
      a.seconds = std::stod(v);
    } else if (arg == "--trace") {
      a.trace = v == "1";
    } else if (arg == "--upsimd") {
      a.upsimd = v;
    } else if (arg == "--out-dir") {
      a.out_dir = v;
    } else if (arg == "--layers") {
      a.layers = v;
    } else if (arg == "--commit") {
      a.commit = v;
    } else if (arg == "--rate") {
      a.rate = std::stod(v);
    } else {
      throw Error("unknown argument " + arg);
    }
  }
  if (a.workload.empty() || a.upsimd.empty() || a.out_dir.empty() ||
      a.layers.empty() || !(a.seconds > 0.0)) {
    throw Error(
        "usage: upbench --workload NAME --seed N --seconds S "
        "--trace 0|1 --upsimd PATH --out-dir DIR --layers FILE");
  }
  return a;
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      return line.substr(line.find(':') + 2);
    }
  }
  return "unknown";
}

/// Refuses builds whose timings would mean nothing.
void check_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  throw Error("refusing to run: sanitizer build");
#endif
#ifndef NDEBUG
  throw Error("refusing to run: assertions enabled (Debug build)");
#endif
  const std::string type = UPBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    throw Error("refusing to run: build type " + type);
  }
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// The response a correct server sends for `result` under envelope `id`.
bool matches(std::string_view response, std::uint64_t id,
             const std::string& result) {
  const std::string prefix =
      "{\"id\":" + std::to_string(id) + ",\"status\":200,\"result\":";
  return response.size() == prefix.size() + result.size() + 1 &&
         response.compare(0, prefix.size(), prefix) == 0 &&
         response.compare(prefix.size(), result.size(), result) == 0 &&
         response.back() == '}';
}

/// Counts over every wire request a run sends.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;      ///< transport failure or status != 200
  std::size_t mismatches = 0;  ///< 200 with bytes other than expected

  void add(int status, bool correct) {
    ++attempted;
    if (status != 200) {
      ++failed;
    } else if (!correct) {
      ++mismatches;
    }
  }
};

/// Request documents of one set-up, built before its timer starts.
struct SetupPlan {
  std::vector<std::pair<std::string, std::string>> admin;  // payload, what
  std::vector<std::string> warmup;                          // per key
};

SetupPlan plan_setup(const Workload& w) {
  SetupPlan plan;
  std::uint64_t id = 1;
  for (const Tenant& t : w.tenants) {
    upsim::obs::JsonWriter p;
    p.begin_object();
    p.key("bundle");
    p.value(t.bundle_xml);
    p.end_object();
    plan.admin.emplace_back(
        envelope(id++, "model_upload", std::move(p).str(), t.model_id),
        "model_upload " + t.model_id);
    plan.admin.emplace_back(envelope(id++, "model_activate", "{}", t.model_id),
                            "model_activate " + t.model_id);
  }
  for (const ReadKey& key : w.keys) {
    plan.warmup.push_back(read_payload(w, key, id++));
  }
  return plan;
}

/// Uploads and activates every model over the first connection, then sends
/// each distinct read once; returns the seconds from the first upload to
/// the last warm-up response.  Warm-up responses are checked against
/// `expected` and kept in `warm`.
double run_setup(const Workload& w, const SetupPlan& plan,
                 std::vector<Connection>& conns,
                 const std::vector<std::string>& expected,
                 std::vector<std::string>& warm, Tally& tally) {
  warm.assign(w.keys.size(), {});
  const Clock::time_point start = Clock::now();
  for (const auto& [payload, what] : plan.admin) {
    const std::string response = conns.front().exchange(payload);
    const int status = response_status(response);
    tally.add(status, true);
    if (status != 200) throw Error(what + " failed: " + response);
  }
  // The warm-up sweep keeps one read out on every connection, one per
  // daemon worker, so the workers answer back to back: the span measures
  // the work of filling the caches rather than a wakeup of an idle daemon
  // per read, which follows the host's load (README.md, "Noise").
  constexpr std::size_t kIdle = static_cast<std::size_t>(-1);
  std::vector<std::size_t> out(conns.size(), kIdle);
  std::size_t next = 0;
  std::size_t answered = 0;
  Clock::time_point progress = Clock::now();
  while (answered < plan.warmup.size()) {
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (out[c] == kIdle) {
        if (next == plan.warmup.size()) continue;
        conns[c].send(plan.warmup[next]);
        out[c] = next++;
      } else if (auto response = conns[c].poll_response()) {
        warm[out[c]] = std::move(*response);
        out[c] = kIdle;
        ++answered;
        progress = Clock::now();
      }
    }
    if (Clock::now() - progress > std::chrono::seconds(60)) {
      throw Error("no warm-up response from upsimd for 60 s");
    }
  }
  const Clock::time_point end = Clock::now();
  std::uint64_t id = plan.admin.size() + 1;
  for (std::size_t k = 0; k < warm.size(); ++k, ++id) {
    const int status = response_status(warm[k]);
    tally.add(status, matches(warm[k], id, expected[k]));
  }
  return std::chrono::duration<double>(end - start).count();
}

/// The churn post-check: repair every element the stream may have failed,
/// then one sweep over every key, which must equal the baseline bytes.
void repair_and_sweep(const Workload& w, Connection& conn,
                      const std::vector<std::string>& expected, Tally& tally) {
  std::uint64_t id = 1u << 30;
  for (const std::string& element : w.churn_elements) {
    const bool link = element.find("--") != std::string::npos;
    const std::string event = std::string("{\"event\":{\"t\":1e9,\"kind\":\"") +
                              (link ? "repair_link" : "repair_component") +
                              "\",\"element\":\"" + element + "\"}}";
    const std::string response =
        conn.exchange(envelope(++id, "scenario_step", event, ""));
    tally.add(response_status(response), true);
  }
  for (std::size_t k = 0; k < w.keys.size(); ++k) {
    ++id;
    const std::string response = conn.exchange(read_payload(w, w.keys[k], id));
    tally.add(response_status(response), matches(response, id, expected[k]));
  }
}

/// Checks the USI t1 -> p2 availability the wire served against
/// core::analyze_availability run in-process (MC off, as the server runs
/// it).  Returns the served value.
double check_usi_t1_p2(const Workload& w, const std::vector<std::string>& warm,
                       Tally& tally) {
  for (std::size_t k = 0; k < w.keys.size(); ++k) {
    const ReadKey& key = w.keys[k];
    if (key.client != "t1" || key.printer != "p2") continue;
    const double served = upsim::obs::json_parse(warm[k])
                              .at("result")
                              .at("exact")
                              .number;
    LocalModel model(w.tenants[key.tenant].bundle_xml, w.composite);
    upsim::core::AnalysisOptions analysis;
    analysis.monte_carlo_samples = 0;
    const double local =
        upsim::core::analyze_availability(
            model.engine->query(*model.composite, key.mapping, "net_view"),
            analysis)
            .exact;
    tally.add(200, served == local);
    return served;
  }
  throw Error("usi-availability has no t1 -> p2 key");
}

std::vector<std::string> daemon_args(bool traced, const Args& args) {
  std::vector<std::string> out = {"--threads", std::to_string(kDaemonThreads),
                                  "--port", "0"};
  if (traced) {
    // Any observability output switches the daemon's instrumentation on.
    out.push_back("--metrics-out");
    out.push_back(args.out_dir + "/daemon-metrics-" + args.workload + ".json");
  }
  return out;
}

/// Length of the slices the window's read latencies are cut into.
constexpr double kSliceUs = 1e5;

/// Outcome of the timed window.
struct Window {
  std::vector<Sample> samples;
  double cpu_s = 0.0;
  double wall_s = 0.0;
  /// Per slice: the share of the machine's CPU time the hypervisor gave to
  /// other guests (steal), in percent.
  std::vector<double> slice_steal_pct;
};

/// Total and steal jiffies from the first line of /proc/stat.
std::pair<double, double> host_cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0.0;
  double steal = 0.0;
  double v = 0.0;
  for (int field = 1; field <= 8 && in >> v; ++field) {
    total += v;
    if (field == 8) steal = v;
  }
  return {total, steal};
}

Window run_window(Daemon& daemon, const Workload& w, const Stream& stream,
                  const std::vector<std::string>& expected, double seconds) {
  const bool exact = w.write_every == 0;
  const Checker check = [&](const Scheduled& req, const std::string& resp) {
    if (req.kind == Kind::Read && exact) {
      return matches(resp, req.id, expected[req.key]);
    }
    // Churn reads race the writes, so their bytes depend on which events
    // landed first; they must answer 200 (a blackout answer when a failure
    // cut the perspective off).  Exactness is checked after the window.
    return response_status(resp) == 200;
  };
  Window out;
  // A common start a little ahead, so every sender is parked on its first
  // send time before the first request is due.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto slices = static_cast<std::size_t>(std::ceil(seconds * 1e6 / kSliceUs));
  // Host steal at every slice boundary, read by a thread that sleeps in
  // between.
  std::vector<std::pair<double, double>> jiffies(slices + 1);
  std::thread sampler([&] {
    for (std::size_t k = 0; k <= slices; ++k) {
      std::this_thread::sleep_until(
          start + std::chrono::microseconds(
                      static_cast<std::int64_t>(static_cast<double>(k) * kSliceUs)));
      jiffies[k] = host_cpu_jiffies();
    }
  });
  const double cpu0 = daemon.cpu_seconds();
  out.samples = run_open_loop(daemon.port(), stream, w.connections, check, start);
  out.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  out.cpu_s = daemon.cpu_seconds() - cpu0;
  sampler.join();
  for (std::size_t k = 0; k < slices; ++k) {
    const double total = jiffies[k + 1].first - jiffies[k].first;
    const double steal = jiffies[k + 1].second - jiffies[k].second;
    out.slice_steal_pct.push_back(total > 0 ? steal / total * 100.0 : 0.0);
  }
  return out;
}

/// End-to-end figures of one window.
struct Figures {
  std::size_t sent = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  std::size_t reads = 0;
  std::size_t writes = 0;
  double p50 = 0, p90 = 0, p99 = 0, p999 = 0;
  double update_p50 = 0;
  double lag_p99 = 0;
  double cpu_us_per_req = 0;
  double bytes_out_per_req = 0;
  double steal_pct = 0;  ///< mean host steal over the window's slices
  std::size_t slices = 0;
  std::size_t slices_kept = 0;  ///< slices the latency figures are over
};

/// How many of the window's 100-ms slices, least host steal first, the
/// latency figures are taken over: 2 s of traffic.
constexpr std::size_t kQuietSlices = 20;

/// Host steal of the kQuietSlices-th least-stolen slice: slices at or below
/// it are the quiet ones.
double quiet_steal_limit(std::vector<double> steal_pct) {
  if (steal_pct.empty()) return 0.0;
  const std::size_t k = std::min(kQuietSlices, steal_pct.size()) - 1;
  const auto kth = steal_pct.begin() + static_cast<std::ptrdiff_t>(k);
  std::nth_element(steal_pct.begin(), kth, steal_pct.end());
  return steal_pct[k];
}

/// `q`-quantile of the read latencies of the quiet slices, pooled.  Read
/// latency follows host steal slice by slice (README.md, "Noise"), so
/// stretches in which the hypervisor ran other guests on our CPUs are left
/// out, however long they last; a window with no steal at all counts whole.
double quiet_quantile(const std::vector<std::vector<double>>& slices,
                      const std::vector<double>& steal_pct, double q) {
  const double limit = quiet_steal_limit(steal_pct);
  std::vector<double> pooled;
  for (std::size_t k = 0; k < slices.size() && k < steal_pct.size(); ++k) {
    if (steal_pct[k] <= limit) {
      pooled.insert(pooled.end(), slices[k].begin(), slices[k].end());
    }
  }
  return percentile(std::move(pooled), q);
}

Figures figures(const Stream& stream, const Window& win, Tally& tally) {
  Figures f;
  std::vector<double> reads;
  std::vector<std::vector<double>> slices;
  std::vector<double> writes;
  std::vector<double> lags;
  double bytes = 0.0;
  std::size_t completed = 0;
  // A failed or refused request counts as missing any latency limit: it
  // sorts above every served one.
  constexpr double missed = 1e9;
  for (std::size_t i = 0; i < win.samples.size(); ++i) {
    const Sample& s = win.samples[i];
    const Scheduled& req = stream.requests[i];
    const bool ok = s.status == 200 && s.correct;
    tally.add(s.status, s.correct);
    ++f.sent;
    if (ok) ++f.succeeded;
    if (s.status != 0) {
      ++completed;
      bytes += static_cast<double>(s.response_bytes);
    }
    lags.push_back(s.lag_us);
    const double latency = ok ? s.latency_us : missed;
    if (req.kind == Kind::Read) {
      reads.push_back(latency);
      const auto slice = static_cast<std::size_t>(req.at_us / kSliceUs);
      if (slices.size() <= slice) slices.resize(slice + 1);
      slices[slice].push_back(latency);
    } else {
      writes.push_back(latency);
    }
  }
  f.failed = f.sent - f.succeeded;
  f.reads = reads.size();
  f.writes = writes.size();
  f.p50 = quiet_quantile(slices, win.slice_steal_pct, 0.50);
  f.p90 = quiet_quantile(slices, win.slice_steal_pct, 0.90);
  f.steal_pct = mean(win.slice_steal_pct);
  const double steal_limit = quiet_steal_limit(win.slice_steal_pct);
  for (const double st : win.slice_steal_pct) {
    if (st <= steal_limit) ++f.slices_kept;
  }
  f.slices = win.slice_steal_pct.size();
  f.p99 = percentile(reads, 0.99);
  f.p999 = percentile(reads, 0.999);
  f.update_p50 = percentile(writes, 0.50);
  f.lag_p99 = percentile(lags, 0.99);
  f.cpu_us_per_req =
      completed == 0 ? 0.0 : win.cpu_s * 1e6 / static_cast<double>(completed);
  f.bytes_out_per_req =
      completed == 0 ? 0.0 : bytes / static_cast<double>(completed);
  return f;
}

void print_figures(const std::string& label, const Figures& f,
                   const Workload& w) {
  std::printf(
      "%s: offered %.0f req/s over %zu connection(s); requests sent %zu, "
      "succeeded %zu, failed %zu (reads %zu, writes %zu)\n",
      label.c_str(), w.rate_per_s, w.connections, f.sent, f.succeeded, f.failed,
      f.reads, f.writes);
  std::printf(
      "%s: read latency p50 %.1f us, p90 %.1f us (over the %zu least-stolen "
      "of %zu 100-ms slices), p99 %.1f us, p999 %.1f us (%zu samples); send "
      "lag p99 %.1f us; host steal %.1f%%\n",
      label.c_str(), f.p50, f.p90, f.slices_kept, f.slices, f.p99, f.p999,
      f.reads, f.lag_p99, f.steal_pct);
  if (f.writes > 0) {
    std::printf("%s: update_p50_us %.1f us (%zu writes)\n", label.c_str(),
                f.update_p50, f.writes);
  }
}

// -- daemon `metrics` -------------------------------------------------------

upsim::obs::JsonValue fetch_metrics(Connection& conn) {
  const std::string response =
      conn.exchange(envelope(1, "metrics", "{}", ""));
  if (response_status(response) != 200) {
    throw Error("metrics failed: " + response);
  }
  return upsim::obs::json_parse(response).at("result");
}

double number_at(const upsim::obs::JsonValue& v,
                 std::initializer_list<const char*> path) {
  const upsim::obs::JsonValue* cur = &v;
  for (const char* key : path) {
    if (!cur->has(key)) return 0.0;
    cur = &cur->at(key);
  }
  return cur->number;
}

/// Lower edge of the obs::Histogram bucket whose upper edge is `le`:
/// 16 linear sub-buckets per power-of-two octave, and 16 linear slices of
/// [0, 1) below it (src/obs/metrics.cpp).
double bucket_lower_edge(double le) {
  if (le <= 1.0) return le - 1.0 / 16.0;
  return le - std::ldexp(1.0 / 16.0, static_cast<int>(std::ceil(std::log2(le))) - 1);
}

/// Quantile `q` of histogram `name` over the interval between two
/// snapshots, from the difference of their sparse buckets, interpolated
/// within the bucket as obs::Histogram::quantile does (so within its ~6%
/// resolution).  Returns {value, n}.
std::pair<double, double> histogram_delta(const upsim::obs::JsonValue& before,
                                          const upsim::obs::JsonValue& after,
                                          const std::string& name, double q) {
  auto buckets = [&](const upsim::obs::JsonValue& doc) {
    std::map<double, double> out;
    const auto& h = doc.at("metrics").at("histograms");
    if (!h.has(name)) return out;
    for (const auto& b : h.at(name).at("buckets").array) {
      out[b.at("le").number] += b.at("count").number;
    }
    return out;
  };
  std::map<double, double> diff = buckets(after);
  for (const auto& [le, n] : buckets(before)) diff[le] -= n;
  double total = 0.0;
  for (const auto& [le, n] : diff) total += n;
  if (total <= 0.0) return {0.0, 0.0};
  const double rank = q * total;
  double seen = 0.0;
  for (const auto& [le, n] : diff) {
    if (n > 0.0 && seen + n >= rank) {
      const double lo = bucket_lower_edge(le);
      return {lo + (rank - seen) / n * (le - lo), total};
    }
    seen += n;
  }
  return {diff.rbegin()->first, total};
}

/// Path-cache hits and misses of every active model.
std::pair<double, double> path_cache(const upsim::obs::JsonValue& m) {
  double hits = 0.0;
  double misses = 0.0;
  for (const auto& model : m.at("models").array) {
    hits += number_at(model, {"cache", "hits"});
    misses += number_at(model, {"cache", "misses"});
  }
  return {hits, misses};
}

// -- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, const Tally& tally,
                  const std::vector<Metric>& metrics) {
  upsim::obs::JsonWriter w;
  w.begin_object();
  w.key("correct");
  w.value(correct);
  w.key("attempted");
  w.value(static_cast<std::uint64_t>(tally.attempted));
  w.key("failed");
  w.value(static_cast<std::uint64_t>(tally.failed + tally.mismatches));
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name);
    w.begin_object();
    w.key("value");
    w.value(m.value);
    w.key("unit");
    w.value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << std::move(w).str() << std::endl;
}

/// One wire pass: fresh daemon, set-up, the timed window; the daemon is
/// left running for the caller to query.
struct Pass {
  std::unique_ptr<Daemon> daemon;
  double setup_s = 0.0;
  std::vector<std::string> warm;
};

Pass start_pass(const Args& args, const Workload& w, const SetupPlan& plan,
                const std::vector<std::string>& expected, bool traced,
                Tally& tally) {
  Pass pass;
  pass.daemon = std::make_unique<Daemon>(
      args.upsimd, daemon_args(traced, args),
      args.out_dir + "/upsimd-" + args.workload + ".log");
  std::vector<Connection> conns;
  for (std::size_t c = 0; c < kDaemonThreads; ++c) {
    conns.emplace_back(pass.daemon->port());
  }
  pass.setup_s = run_setup(w, plan, conns, expected, pass.warm, tally);
  return pass;
}

/// The checks that follow a window on the daemon that served it: the USI
/// t1 -> p2 availability, and the churn repair-and-sweep.
void check_after_window(const Workload& w, const Pass& pass,
                        const std::vector<std::string>& expected,
                        Tally& tally) {
  if (w.name == "usi-availability") {
    std::printf("usi t1->p2 availability %.12f; in-process %s\n",
                check_usi_t1_p2(w, pass.warm, tally),
                tally.mismatches == 0 ? "equal" : "DIFFERENT");
  }
  if (w.write_every != 0) {
    Connection conn(pass.daemon->port());
    repair_and_sweep(w, conn, expected, tally);
  }
}

int run(const Args& args) {
  check_build();
  const std::size_t cpus = online_cpus();
  Workload w = make_workload(args.workload);
  if (args.rate > 0.0) w.rate_per_s = args.rate;
  if (w.connections > cpus || kDaemonThreads > cpus) {
    throw Error("refusing to run: workload needs " +
                std::to_string(w.connections) + " connections and " +
                std::to_string(kDaemonThreads) + " daemon threads, nproc is " +
                std::to_string(cpus));
  }
  const Stream stream = make_stream(w, args.seed, args.seconds);
  std::printf(
      "fingerprint: nproc %zu; cpu %s; compiler %s; build %s; commit %s\n",
      cpus, cpu_model().c_str(), UPBENCH_COMPILER, UPBENCH_BUILD_TYPE,
      args.commit.c_str());
  std::printf(
      "workload %s: seed %llu, %zu requests over %.0f s at %.0f req/s, "
      "%zu distinct reads, %zu model upload(s); stream digest %016llx\n",
      w.name.c_str(), static_cast<unsigned long long>(args.seed),
      stream.requests.size(), args.seconds, w.rate_per_s, w.keys.size(),
      w.tenants.size(),
      static_cast<unsigned long long>(stream_digest(stream)));
  std::fflush(stdout);

  const std::vector<std::string> expected = expected_results(w);
  const SetupPlan plan = plan_setup(w);
  Tally tally;
  std::vector<Metric> metrics;

  if (!args.trace) {
    std::vector<double> setups;
    Pass pass;
    for (int r = 0; r < w.setup_repeats; ++r) {
      if (pass.daemon) pass.daemon->stop();
      pass = start_pass(args, w, plan, expected, false, tally);
      setups.push_back(pass.setup_s);
    }
    const Window win = run_window(*pass.daemon, w, stream, expected, args.seconds);
    check_after_window(w, pass, expected, tally);
    const double rss = pass.daemon->peak_rss_mb();
    pass.daemon->stop();
    const Figures f = figures(stream, win, tally);
    std::printf("setup_s per set-up:");
    for (const double s : setups) std::printf(" %.4f", s);
    std::printf(" (median %.4f s)\n", median(setups));
    print_figures("window", f, w);
    std::printf("window: %.0f req/s achieved over %.2f s\n",
                static_cast<double>(f.sent) / win.wall_s, win.wall_s);
    std::printf(
        "server: %.1f us cpu per request, peak rss %.1f MB; %zu mismatch(es)\n",
        f.cpu_us_per_req, rss, tally.mismatches);
    metrics = {{"setup_s", median(setups), "s"},
               {"latency_p50_us", f.p50, "us"},
               {"server_cpu_us_per_req", f.cpu_us_per_req, "us"},
               {"server_rss_mb", rss, "MB"}};
    std::printf("end-to-end:");
    for (const Metric& m : metrics) {
      std::printf(" %s=%.6g %s;", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("\n");
  } else {
    LayerTable layers;
    // Untraced wire pass: the reference for tracing overhead and the
    // open-loop validity figures.
    Figures plain;
    {
      Pass pass = start_pass(args, w, plan, expected, false, tally);
      const Window win = run_window(*pass.daemon, w, stream, expected, args.seconds);
      check_after_window(w, pass, expected, tally);
      pass.daemon->stop();
      plain = figures(stream, win, tally);
      print_figures("untraced", plain, w);
    }
    // Traced wire pass: daemon instrumentation on, counters read through
    // `metrics` around the window.
    Figures traced;
    std::vector<std::string> recorded;
    {
      Pass pass = start_pass(args, w, plan, expected, true, tally);
      Connection admin(pass.daemon->port());
      std::vector<double> rtt;
      for (int i = 0; i < 200; ++i) {
        const Clock::time_point t0 = Clock::now();
        const std::string r = admin.exchange(envelope(1, "health", "{}", ""));
        rtt.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count());
        tally.add(response_status(r), true);
      }
      layers["net.rtt_floor_us"] = {median(rtt), "us", 200};
      const upsim::obs::JsonValue before = fetch_metrics(admin);
      const Window win = run_window(*pass.daemon, w, stream, expected, args.seconds);
      const upsim::obs::JsonValue after = fetch_metrics(admin);
      pass.daemon->stop();
      traced = figures(stream, win, tally);
      print_figures("traced", traced, w);

      for (const char* h : {"server.queue_wait_us", "server.handle_us"}) {
        for (const auto& [suffix, q] :
             {std::pair<const char*, double>{".p50", 0.5}, {".p99", 0.99}}) {
          const auto [value, n] = histogram_delta(before, after, h, q);
          layers[std::string(h) + suffix] = {value, "us", n};
        }
      }
      const double hits = number_at(after, {"response_cache", "hits"}) -
                          number_at(before, {"response_cache", "hits"});
      const double misses = number_at(after, {"response_cache", "misses"}) -
                            number_at(before, {"response_cache", "misses"});
      layers["server.response_cache.hit_rate"] = {
          hits + misses == 0 ? 0.0 : hits / (hits + misses), "ratio",
          hits + misses};
      const double evictions =
          number_at(after, {"invalidation", "response_evictions"}) -
          number_at(before, {"invalidation", "response_evictions"});
      layers["server.response_cache.evictions_per_write"] = {
          traced.writes == 0 ? 0.0 : evictions / static_cast<double>(traced.writes),
          "count", static_cast<double>(traced.writes)};
      const auto [ph0, pm0] = path_cache(before);
      const auto [ph1, pm1] = path_cache(after);
      const double lookups = (ph1 - ph0) + (pm1 - pm0);
      layers["engine.path_cache.hit_rate"] = {
          lookups == 0 ? 0.0 : (ph1 - ph0) / lookups, "ratio", lookups};
      layers["net.bytes_out_per_req"] = {traced.bytes_out_per_req, "bytes",
                                         static_cast<double>(traced.sent)};
      for (std::size_t k = 0; k < pass.warm.size() && recorded.size() < 512;
           k += std::max<std::size_t>(1, pass.warm.size() / 512)) {
        recorded.push_back(pass.warm[k]);
      }
    }
    layers["obs.tracing_overhead_pct"] = {
        plain.p50 == 0 ? 0.0 : (traced.p50 - plain.p50) / plain.p50 * 100.0,
        "%", static_cast<double>(plain.reads)};
    layers["loadgen.send_lag_p99_us"] = {plain.lag_p99, "us",
                                         static_cast<double>(plain.sent)};
    layers["wire.latency_p90_us"] = {plain.p90, "us",
                                     static_cast<double>(plain.reads)};
    layers["wire.latency_p99_us"] = {plain.p99, "us",
                                     static_cast<double>(plain.reads)};
    layers["wire.latency_p999_us"] = {plain.p999, "us",
                                      static_cast<double>(plain.reads)};

    // Only campus-churn sends writes; every traced run replays the writes
    // of the campus-churn stream of the same seed, so the write path's
    // layers are measured whichever workload runs.
    const Workload churn = make_workload("campus-churn");
    const Stream writes = make_stream(churn, args.seed, args.seconds);
    SpanLog spans;
    replay_layers(w, stream, churn, writes, recorded, spans, layers);
    const std::string trace_path = args.out_dir + "/trace-" + args.workload +
                                   "-" + std::to_string(args.seed) + ".json";
    spans.write_chrome_json(trace_path);

    // The metric -> (end-to-end metric, workload) map lives in layers.json.
    std::ifstream in(args.layers);
    std::stringstream text;
    text << in.rdbuf();
    const upsim::obs::JsonValue map = upsim::obs::json_parse(text.str());
    std::printf("per-layer (value, base, and what it should move):\n");
    for (const auto& entry : map.at("per_layer").array) {
      const std::string& name = entry.at("name").string;
      const auto it = layers.find(name);
      if (it == layers.end()) throw Error("layer metric not measured: " + name);
      std::printf("  %-42s %14.4f %-6s base %-8.0f moves %s\n", name.c_str(),
                  it->second.value, it->second.unit.c_str(), it->second.base,
                  entry.at("moves").string.c_str());
      metrics.push_back({name, it->second.value, it->second.unit});
    }
    std::printf("chrome trace of the benchmark's spans: %s\n", trace_path.c_str());
  }

  const bool correct = tally.mismatches == 0;
  std::printf("requests sent %zu, succeeded %zu, failed %zu, mismatched %zu\n",
              tally.attempted, tally.attempted - tally.failed - tally.mismatches,
              tally.failed, tally.mismatches);
  print_result(correct, tally, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "upbench: " << e.what() << "\n";
    return 2;
  }
}
