// Workload definitions and the seeded request-stream generator of the
// upsimd benchmark.  Everything here is a pure function of (workload name,
// seed, seconds): the benchmark sends exactly these bytes at exactly these
// offsets, and selftest.cpp holds the generator to that.
//
// Workloads (README.md gives the reasoning behind each):
//   campus-read       reads only (70% upsim / 30% paths), Zipf(1.2) over
//                     3,072 campus (client, printer) perspectives
//   usi-availability  `availability` only, the USI case study uploaded by
//                     8 tenants, 15 perspectives each, cycled
//   campus-churn      campus-read plus one write per 20 requests, the writes
//                     alternating scenario_step fail/repair events and
//                     report_observations batches
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mapping/mapping.hpp"

namespace upbench {

/// One model the workload uploads over the wire during set-up.
struct Tenant {
  std::string model_id;    ///< "tenant/model"; the default id for campus
  std::string bundle_xml;  ///< shared by every tenant of a workload
};

/// One distinct read request (the unit of the warm-up sweep and of the
/// correctness check).
struct ReadKey {
  std::string method;         ///< upsim | paths | availability
  std::size_t tenant = 0;     ///< index into Workload::tenants
  bool routed = false;        ///< send the envelope "model" member
  std::string client;
  std::string printer;
  upsim::mapping::ServiceMapping mapping;
  std::string params_json;
};

struct Workload {
  std::string name;
  std::vector<Tenant> tenants;
  std::string composite;
  std::vector<ReadKey> keys;
  /// Offered rate of the open loop (requests per second, all kinds).
  double rate_per_s = 0.0;
  /// Connections the stream is spread over.
  std::size_t connections = 0;
  /// Set-ups per measuring run; setup_s is their median.
  int setup_repeats = 0;
  /// Churn only: every element a fail/repair event or observation may name.
  std::vector<std::string> churn_elements;
  /// Churn only: one write every `write_every` requests (0 = read only).
  std::size_t write_every = 0;
};

enum class Kind : std::uint8_t { Read, ScenarioStep, Observations };

/// One scheduled request of the timed window.
struct Scheduled {
  double at_us = 0.0;       ///< send time, offset from the window start
  std::uint32_t conn = 0;   ///< connection that sends it
  Kind kind = Kind::Read;
  std::uint32_t key = 0;    ///< index into Workload::keys (reads)
  std::uint64_t id = 0;     ///< envelope id, unique within the stream
  std::string payload;      ///< the complete request document
};

struct Stream {
  std::vector<Scheduled> requests;
  /// Elements a fail event took down and no later repair brought back.
  std::vector<std::string> left_down;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds the workload's models and distinct keys.  Throws upsim::Error for
/// an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name);

/// The timed window's requests: `seconds` of traffic at the workload's
/// rate, contents drawn from `seed`.  Reads go round-robin over the
/// connections; writes all go to connection 0, so they apply in stream
/// order (report_observations needs non-decreasing times per element).
[[nodiscard]] Stream make_stream(const Workload& workload, std::uint64_t seed,
                                 double seconds);

/// Request document for one distinct read with the given envelope id.
[[nodiscard]] std::string read_payload(const Workload& workload,
                                       const ReadKey& key, std::uint64_t id);

/// Envelope with an explicit method/params/model (model "" = none).
[[nodiscard]] std::string envelope(std::uint64_t id, const std::string& method,
                                   const std::string& params_json,
                                   const std::string& model);

/// FNV-1a over every request's send time (ns), connection and payload.
[[nodiscard]] std::uint64_t stream_digest(const Stream& stream);

/// Element names a churn stream mentions, in order of first use.
[[nodiscard]] std::vector<std::string> stream_elements(const Stream& stream);

}  // namespace upbench
