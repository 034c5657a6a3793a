// The traced half of the benchmark: an in-process replay of the workload's
// seeded request stream through the public functions of each module, every
// call wrapped in a span of the benchmark's own (nothing inside src/ is
// instrumented for it), plus the reference answers the wire run is checked
// against.
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/perspective_engine.hpp"
#include "service/service.hpp"
#include "umlio/serialize.hpp"
#include "workload.hpp"

namespace upbench {

/// A workload's model loaded in-process from the same bundle bytes the
/// daemon receives, served by an engine configured like upsimd's.
struct LocalModel {
  upsim::umlio::UmlBundle bundle;
  std::unique_ptr<upsim::engine::PerspectiveEngine> engine;
  const upsim::service::CompositeService* composite = nullptr;

  LocalModel(const std::string& bundle_xml, const std::string& composite_name);
};

/// Expected result member of every distinct read, indexed like
/// Workload::keys, from an in-process engine (the server's serializers, MC
/// off as the server runs it).
[[nodiscard]] std::vector<std::string> expected_results(const Workload& w);

/// Spans recorded by the benchmark, written out as a Chrome trace.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  SpanLog() : origin_(Clock::now()) {}
  void record(const std::string& name, Clock::time_point start,
              Clock::time_point end);
  void write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double ts_us;
    double dur_us;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// One per-layer figure and the number of samples (or events) behind it.
struct LayerValue {
  double value = 0.0;
  std::string unit;
  double base = 0.0;
};
using LayerTable = std::map<std::string, LayerValue>;

/// Replays `stream` in-process and fills the in-process layer metrics
/// (umlio, lint, registry, engine, pathdisc, core, scenario, server
/// parse/serialize, net framing).  The write-path layers (engine
/// set_element_state, scenario, registry observations) replay the writes
/// of `writes`, a stream of workload `writes_w`.  `responses` are wire
/// responses recorded by the traced run, replayed through the framing
/// layer.
void replay_layers(const Workload& w, const Stream& stream,
                   const Workload& writes_w, const Stream& writes,
                   const std::vector<std::string>& responses, SpanLog& spans,
                   LayerTable& out);

}  // namespace upbench
