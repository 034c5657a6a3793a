#include "layers.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <fstream>
#include <numeric>
#include <set>

#include "core/analysis.hpp"
#include "lint/analyzer.hpp"
#include "lint/semantic.hpp"
#include "net/frame.hpp"
#include "obs/json.hpp"
#include "pathdisc/csr.hpp"
#include "registry/model_registry.hpp"
#include "registry/observation.hpp"
#include "scenario/event.hpp"
#include "scenario/player.hpp"
#include "server/protocol.hpp"
#include "transform/projection.hpp"
#include "util/error.hpp"

namespace upbench {

namespace {

using Clock = SpanLog::Clock;
upsim::engine::EngineOptions local_engine_options() {
  upsim::engine::EngineOptions options;
  options.threads = 1;
  options.record_in_space = false;  // upsimd's default: pure serving
  return options;
}

/// Times one call, records it as a span and returns microseconds.
template <typename F>
double timed(SpanLog& spans, const std::string& name, F&& f) {
  const Clock::time_point start = Clock::now();
  f();
  const Clock::time_point end = Clock::now();
  spans.record(name, start, end);
  return std::chrono::duration<double, std::micro>(end - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

void put(LayerTable& out, const std::string& name, double value,
         const std::string& unit, std::size_t base) {
  out[name] = {value, unit, static_cast<double>(base)};
}

/// Distinct read keys the stream sends, in first-use order.
std::vector<std::uint32_t> distinct_keys(const Stream& stream) {
  std::vector<std::uint32_t> out;
  std::set<std::uint32_t> seen;
  for (const Scheduled& s : stream.requests) {
    if (s.kind == Kind::Read && seen.insert(s.key).second) out.push_back(s.key);
  }
  return out;
}

/// Distinct (client, printer) perspectives among `keys`: the first key of
/// each perspective.
std::vector<std::uint32_t> distinct_perspectives(
    const Workload& w, const std::vector<std::uint32_t>& keys) {
  std::vector<std::uint32_t> out;
  std::set<std::pair<std::string, std::string>> seen;
  for (const std::uint32_t k : keys) {
    if (seen.insert({w.keys[k].client, w.keys[k].printer}).second) {
      out.push_back(k);
    }
  }
  return out;
}

constexpr const char* kPerspectiveName = "net_view";  // upsimd's default

}  // namespace

LocalModel::LocalModel(const std::string& bundle_xml,
                       const std::string& composite_name)
    : bundle(upsim::umlio::from_xml(bundle_xml)) {
  if (bundle.objects == nullptr || bundle.services == nullptr) {
    throw upsim::Error("benchmark bundle lacks objects or services");
  }
  engine = std::make_unique<upsim::engine::PerspectiveEngine>(*bundle.objects,
                                                       local_engine_options());
  composite = &bundle.services->get_composite(composite_name);
}

std::vector<std::string> expected_results(const Workload& w) {
  // Every tenant of a workload uploads the same bundle, so one engine
  // answers for all of them.
  LocalModel model(w.tenants.front().bundle_xml, w.composite);
  std::vector<std::string> out(w.keys.size());
  std::map<std::pair<std::string, std::string>, std::string> availability;
  upsim::core::AnalysisOptions analysis;
  analysis.monte_carlo_samples = 0;
  for (std::size_t k = 0; k < w.keys.size(); ++k) {
    const ReadKey& key = w.keys[k];
    if (key.method == "availability") {
      auto& cached = availability[{key.client, key.printer}];
      if (cached.empty()) {
        const auto result =
            model.engine->query(*model.composite, key.mapping, kPerspectiveName);
        cached = upsim::server::availability_json(
            upsim::core::analyze_availability(result, analysis), result);
      }
      out[k] = cached;
    } else if (key.method == "paths" && k > 0 &&
               w.keys[k - 1].client == key.client &&
               w.keys[k - 1].printer == key.printer) {
      continue;  // filled together with the perspective's upsim key
    } else {
      const auto result =
          model.engine->query(*model.composite, key.mapping, kPerspectiveName);
      out[k] = upsim::server::upsim_result_json(result, key.method == "paths");
      if (k + 1 < w.keys.size() && w.keys[k + 1].method == "paths" &&
          w.keys[k + 1].client == key.client &&
          w.keys[k + 1].printer == key.printer) {
        out[k + 1] = upsim::server::upsim_result_json(result, true);
      }
    }
  }
  return out;
}

void SpanLog::record(const std::string& name, Clock::time_point start,
                     Clock::time_point end) {
  spans_.push_back(
      {name, std::chrono::duration<double, std::micro>(start - origin_).count(),
       std::chrono::duration<double, std::micro>(end - start).count()});
}

void SpanLog::write_chrome_json(const std::string& path) const {
  upsim::obs::JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const Span& s : spans_) {
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("cat");
    w.value(s.name.substr(0, s.name.find('.')));
    w.key("ph");
    w.value("X");
    w.key("ts");
    w.value(s.ts_us);
    w.key("dur");
    w.value(s.dur_us);
    w.key("pid");
    w.value(std::uint64_t{1});
    w.key("tid");
    w.value(std::uint64_t{1});
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path);
  out << std::move(w).str() << "\n";
  if (!out) throw upsim::Error("cannot write trace '" + path + "'");
}

void replay_layers(const Workload& w, const Stream& stream,
                   const Workload& writes_w, const Stream& writes,
                   const std::vector<std::string>& responses, SpanLog& spans,
                   LayerTable& out) {
  const std::string& xml = w.tenants.front().bundle_xml;
  constexpr int kRepeats = 3;

  // umlio / lint / engine build: the upload path, step by step.
  std::vector<double> parse_ms;
  std::vector<double> lint_ms;
  std::vector<double> semantic_ms;
  std::vector<double> build_ms;
  for (int r = 0; r < kRepeats; ++r) {
    upsim::umlio::UmlBundle bundle;
    parse_ms.push_back(timed(spans, "umlio.from_xml", [&] {
                         bundle = upsim::umlio::from_xml(xml);
                       }) / 1e3);
    upsim::lint::Input lint_input;
    lint_input.objects = bundle.objects.get();
    lint_input.services = bundle.services.get();
    lint_ms.push_back(timed(spans, "lint.analyze", [&] {
                        (void)upsim::lint::analyze(lint_input);
                      }) / 1e3);
    upsim::lint::SemanticInput sem_input;
    sem_input.objects = bundle.objects.get();
    semantic_ms.push_back(timed(spans, "lint.analyze_semantic", [&] {
                            (void)upsim::lint::analyze_semantic(sem_input);
                          }) / 1e3);
    build_ms.push_back(timed(spans, "engine.PerspectiveEngine", [&] {
                         upsim::engine::PerspectiveEngine e(*bundle.objects,
                                                     local_engine_options());
                       }) / 1e3);
  }
  put(out, "umlio.from_xml_ms", median(parse_ms), "ms", kRepeats);
  put(out, "lint.analyze_ms", median(lint_ms), "ms", kRepeats);
  put(out, "lint.semantic_ms", median(semantic_ms), "ms", kRepeats);
  put(out, "engine.build_ms", median(build_ms), "ms", kRepeats);

  // registry: the workload's uploads and activations, then routing.
  {
    upsim::registry::ModelRegistry::Options options;
    options.engine = local_engine_options();
    upsim::registry::ModelRegistry registry(std::move(options));
    std::vector<double> upload_ms;
    std::vector<double> activate_us;
    const std::size_t uploads = std::max<std::size_t>(w.tenants.size(), 3);
    for (std::size_t t = 0; t < uploads; ++t) {
      const Tenant& tenant = w.tenants[t % w.tenants.size()];
      upsim::registry::UploadResult up;
      upload_ms.push_back(timed(spans, "registry.upload", [&] {
                            up = registry.upload(tenant.model_id,
                                                 tenant.bundle_xml);
                          }) / 1e3);
      activate_us.push_back(timed(spans, "registry.activate", [&] {
        (void)registry.activate(up.id, up.version);
      }));
    }
    put(out, "registry.upload_ms", median(upload_ms), "ms", uploads);
    put(out, "registry.activate_us", median(activate_us), "us", uploads);
    const bool routed = w.keys.front().routed;
    constexpr std::size_t kAcquires = 20000;
    const double total_us = timed(spans, "registry.acquire", [&] {
      for (std::size_t i = 0; i < kAcquires; ++i) {
        auto model =
            routed ? registry.acquire(w.tenants[i % w.tenants.size()].model_id)
                   : registry.acquire_default();
        if (model == nullptr) throw upsim::Error("registry lost a model");
      }
    });
    put(out, "registry.acquire_ns", total_us * 1e3 / kAcquires, "ns",
        kAcquires);
  }

  LocalModel model(xml, w.composite);
  const std::vector<std::uint32_t> keys = distinct_keys(stream);
  const std::vector<std::uint32_t> perspectives = distinct_perspectives(w, keys);

  // pathdisc: the CSR projection and cold discovery of every distinct pair.
  {
    const upsim::graph::Graph graph =
        upsim::transform::project(*model.bundle.objects);
    std::vector<double> csr_ms;
    upsim::pathdisc::CsrView view;
    for (int r = 0; r < kRepeats; ++r) {
      csr_ms.push_back(timed(spans, "pathdisc.CsrView", [&] {
                         view = upsim::pathdisc::CsrView(graph);
                       }) / 1e3);
    }
    put(out, "pathdisc.csr_build_ms", median(csr_ms), "ms", kRepeats);
    std::set<std::pair<std::string, std::string>> pairs;
    for (const std::uint32_t k : perspectives) {
      for (const auto& p : w.keys[k].mapping.pairs()) {
        pairs.insert({p.requester, p.provider});
      }
    }
    std::vector<double> discover_us;
    std::vector<double> expanded;
    std::vector<double> paths;
    const upsim::pathdisc::Options options;
    for (const auto& [from, to] : pairs) {
      const auto s = graph.find_vertex(from);
      const auto t = graph.find_vertex(to);
      if (!s || !t) throw upsim::Error("pair endpoint not in graph");
      upsim::pathdisc::PathSet set;
      discover_us.push_back(timed(spans, "pathdisc.discover", [&] {
        set = view.discover(*s, *t, options);
      }));
      expanded.push_back(static_cast<double>(set.nodes_expanded));
      paths.push_back(static_cast<double>(set.count()));
    }
    put(out, "pathdisc.discover_us", median(discover_us), "us", pairs.size());
    put(out, "pathdisc.nodes_expanded_per_pair", mean(expanded), "count",
        pairs.size());
    put(out, "pathdisc.paths_per_pair", mean(paths), "count", pairs.size());
  }

  // engine: warm the path cache over every perspective, then time the warm
  // path; server: serialize what each key's method sends.
  std::map<std::uint32_t, upsim::core::UpsimResult> results;
  for (const std::uint32_t k : perspectives) {
    results.emplace(k, model.engine->query(*model.composite, w.keys[k].mapping,
                                           kPerspectiveName));
  }
  {
    std::vector<double> query_us;
    std::vector<double> vertices;
    std::vector<double> edges;
    for (const std::uint32_t k : perspectives) {
      query_us.push_back(timed(spans, "engine.query", [&] {
        results.at(k) = model.engine->query(*model.composite,
                                            w.keys[k].mapping, kPerspectiveName);
      }));
      vertices.push_back(
          static_cast<double>(results.at(k).upsim_graph.vertex_count()));
      edges.push_back(static_cast<double>(results.at(k).upsim_graph.edge_count()));
    }
    put(out, "engine.query_us", median(query_us), "us", perspectives.size());
    put(out, "engine.upsim_vertices", mean(vertices), "count",
        perspectives.size());
    put(out, "engine.upsim_edges", mean(edges), "count", perspectives.size());
  }

  std::map<std::pair<std::string, std::string>, std::uint32_t> by_perspective;
  for (const std::uint32_t k : perspectives) {
    by_perspective[{w.keys[k].client, w.keys[k].printer}] = k;
  }
  auto result_for = [&](std::uint32_t k) -> const upsim::core::UpsimResult& {
    return results.at(by_perspective.at({w.keys[k].client, w.keys[k].printer}));
  };

  {
    upsim::core::AnalysisOptions analysis;
    analysis.monte_carlo_samples = 0;  // as the server runs it
    std::vector<double> serialize_us;
    std::vector<double> analyze_us;
    std::size_t calls = 0;  // availability requests the stream sends
    for (const Scheduled& s : stream.requests) {
      calls += s.kind == Kind::Read && w.keys[s.key].method == "availability";
    }
    for (const std::uint32_t k : keys) {
      const upsim::core::UpsimResult& result = result_for(k);
      if (w.keys[k].method == "availability") {
        upsim::core::AvailabilityReport report;
        for (int r = 0; r < kRepeats; ++r) {
          analyze_us.push_back(timed(spans, "core.analyze_availability", [&] {
            report = upsim::core::analyze_availability(result, analysis);
          }));
        }
        serialize_us.push_back(timed(spans, "server.availability_json", [&] {
          (void)upsim::server::availability_json(report, result);
        }));
      } else {
        serialize_us.push_back(timed(spans, "server.upsim_result_json", [&] {
          (void)upsim::server::upsim_result_json(
              result, w.keys[k].method == "paths");
        }));
      }
    }
    // A workload that never asks for availability still gets the time one
    // analysis of its UPSIMs would take (the first perspectives, once
    // each); the base stays the number of calls its stream makes.
    constexpr std::size_t kAnalyses = 50;
    for (std::size_t i = 0; analyze_us.empty() && i < perspectives.size() &&
                            i < kAnalyses;
         ++i) {
      const upsim::core::UpsimResult& result = results.at(perspectives[i]);
      analyze_us.push_back(timed(spans, "core.analyze_availability", [&] {
        (void)upsim::core::analyze_availability(result, analysis);
      }));
    }
    put(out, "server.serialize_us", median(serialize_us), "us", keys.size());
    put(out, "core.analyze_availability_us", median(analyze_us), "us", calls);
  }

  {
    constexpr std::size_t kParses = 4000;
    const std::size_t n = std::min(kParses, stream.requests.size());
    const double total_us = timed(spans, "server.json_parse", [&] {
      for (std::size_t i = 0; i < n; ++i) {
        (void)upsim::obs::json_parse(stream.requests[i].payload);
      }
    });
    put(out, "server.request_parse_us", total_us / static_cast<double>(n),
        "us", n);
  }

  // The write path: the writes of `writes`, in order, on its own model.
  // Engine A takes the fail/repair events through set_element_state and
  // the observations through the registry's ObservationStore; engine B
  // replays the same events through ScenarioPlayer.  Both start with the
  // reverse index warmed by the stream's read perspectives.
  {
    LocalModel replay_a(writes_w.tenants.front().bundle_xml, writes_w.composite);
    LocalModel replay_b(writes_w.tenants.front().bundle_xml, writes_w.composite);
    for (const std::uint32_t k :
         distinct_perspectives(writes_w, distinct_keys(writes))) {
      for (LocalModel* m : {&replay_a, &replay_b}) {
        (void)m->engine->query(*m->composite, writes_w.keys[k].mapping,
                               kPerspectiveName);
      }
    }
    upsim::scenario::ScenarioPlayer player(*replay_b.engine);
    upsim::registry::ObservationStore store;
    std::vector<double> state_us;
    std::vector<double> apply_us;
    std::vector<double> observe_us;
    std::uint64_t affected = 0;
    std::uint64_t evicted = 0;
    std::uint64_t flushes = 0;
    std::size_t events = 0;
    for (const Scheduled& s : writes.requests) {
      if (s.kind == Kind::Read) continue;
      const upsim::obs::JsonValue doc = upsim::obs::json_parse(s.payload);
      const upsim::obs::JsonValue& params = doc.at("params");
      if (s.kind == Kind::ScenarioStep) {
        const auto event = upsim::scenario::Event::from_json(params.at("event"));
        upsim::engine::InvalidationReport report;
        state_us.push_back(timed(spans, "engine.set_element_state", [&] {
          report = replay_a.engine->set_element_state({event.element},
                                                      !event.is_failure());
        }));
        affected += report.affected_keys;
        evicted += report.evicted_keys;
        flushes += report.full_flush ? 1 : 0;
        ++events;
        apply_us.push_back(timed(spans, "scenario.ScenarioPlayer.apply",
                                 [&] { (void)player.apply(event); }));
      } else {
        std::vector<std::string> touched;
        observe_us.push_back(timed(spans, "registry.observations_apply", [&] {
          for (const auto& o : params.at("observations").array) {
            const std::string& kind = o.at("kind").string;
            (void)store.observe(o.at("element").string, kind == "fail",
                                o.at("t").number);
            touched.push_back(o.at("element").string);
          }
          std::sort(touched.begin(), touched.end());
          touched.erase(std::unique(touched.begin(), touched.end()),
                        touched.end());
          (void)store.apply_to(*replay_a.engine, &touched);
        }));
      }
    }
    const auto per_event = [&](std::uint64_t n) {
      return events == 0 ? 0.0
                         : static_cast<double>(n) / static_cast<double>(events);
    };
    put(out, "engine.set_element_state_us", median(state_us), "us", events);
    put(out, "engine.affected_keys_per_event", per_event(affected), "count",
        events);
    put(out, "engine.evicted_keys_per_event", per_event(evicted), "count",
        events);
    put(out, "engine.full_flushes", static_cast<double>(flushes), "count",
        events);
    put(out, "scenario.apply_us", median(apply_us), "us", apply_us.size());
    put(out, "registry.observations_apply_us", median(observe_us), "us",
        observe_us.size());
  }

  // net: the recorded responses through write_frame + read_frame over a
  // socketpair (no TCP, no server).
  {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw upsim::Error("socketpair failed");
    }
    upsim::net::Socket a(fds[0]);
    upsim::net::Socket b(fds[1]);
    std::vector<double> roundtrip_us;
    for (const std::string& r : responses) {
      roundtrip_us.push_back(timed(spans, "net.frame_roundtrip", [&] {
        upsim::net::write_frame(a, r);
        if (upsim::net::read_frame(b, 0)->size() != r.size()) {
          throw upsim::Error("frame roundtrip changed the payload");
        }
      }));
    }
    put(out, "net.frame_roundtrip_us", median(roundtrip_us), "us",
        responses.size());
  }
}

}  // namespace upbench
