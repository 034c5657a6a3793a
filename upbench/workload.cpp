#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "casestudy/usi.hpp"
#include "netgen/generators.hpp"
#include "obs/json.hpp"
#include "scenario/event.hpp"
#include "server/protocol.hpp"
#include "service/service.hpp"
#include "umlio/serialize.hpp"
#include "util/error.hpp"

namespace upbench {

namespace {

using upsim::Error;

/// SplitMix64: tiny, fast and identical on every platform and standard
/// library, unlike the <random> distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
  }

 private:
  std::uint64_t state_;
};

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
}

// campus-read / campus-churn shape: 2 core, 16 distribution, 4 edge per
// distribution, 16 clients per edge, 4 servers = 1,110 components and
// 1,024 clients.  srv0 is the front end, srv1..srv3 the printers.
upsim::netgen::CampusSpec campus_spec() {
  upsim::netgen::CampusSpec spec;
  spec.distribution = 16;
  spec.edge_per_distribution = 4;
  spec.clients_per_edge = 16;
  spec.servers = 4;
  return spec;
}

constexpr const char* kCampusComposite = "printing_like";
constexpr std::size_t kCampusPrinters = 3;

std::string campus_bundle_xml() {
  upsim::netgen::UmlNetwork net = upsim::netgen::uml_campus(campus_spec());
  auto services = std::make_unique<upsim::service::ServiceCatalog>();
  for (const char* atomic : {"request_print", "login", "send_list", "select",
                             "send_documents"}) {
    services->define_atomic(atomic);
  }
  (void)services->define_sequence(
      kCampusComposite,
      {"request_print", "login", "send_list", "select", "send_documents"});
  upsim::umlio::UmlBundle bundle;
  bundle.profiles.push_back(std::move(net.availability_profile));
  bundle.classes = std::move(net.classes);
  bundle.objects = std::move(net.infrastructure);
  bundle.services = std::move(services);
  return upsim::umlio::to_xml(bundle);
}

upsim::mapping::ServiceMapping campus_mapping(const std::string& client,
                                              const std::string& printer) {
  upsim::mapping::ServiceMapping m;
  m.map("request_print", client, "srv0");
  m.map("login", printer, "srv0");
  m.map("send_list", "srv0", printer);
  m.map("select", printer, "srv0");
  m.map("send_documents", "srv0", printer);
  return m;
}

std::string usi_bundle_xml() {
  auto cs = upsim::casestudy::make_usi_case_study();
  upsim::umlio::UmlBundle bundle;
  bundle.profiles.push_back(std::move(cs.availability_profile));
  bundle.profiles.push_back(std::move(cs.network_profile));
  bundle.classes = std::move(cs.classes);
  bundle.objects = std::move(cs.infrastructure);
  bundle.services = std::move(cs.services);
  return upsim::umlio::to_xml(bundle);
}

void add_campus_keys(Workload& w) {
  const upsim::netgen::CampusSpec spec = campus_spec();
  const std::size_t clients =
      spec.distribution * spec.edge_per_distribution * spec.clients_per_edge;
  // Key order: perspective-major, upsim before paths, so key 2p is the
  // upsim and 2p+1 the paths request of perspective p.
  for (std::size_t c = 0; c < clients; ++c) {
    for (std::size_t p = 1; p <= kCampusPrinters; ++p) {
      for (const char* method : {"upsim", "paths"}) {
        ReadKey key;
        key.method = method;
        key.client = 't' + std::to_string(c);
        key.printer = "srv" + std::to_string(p);
        key.mapping = campus_mapping(key.client, key.printer);
        key.params_json =
            upsim::server::query_params_json(w.composite, key.mapping);
        w.keys.push_back(std::move(key));
      }
    }
  }
}

std::vector<std::string> campus_churn_elements() {
  const upsim::netgen::CampusSpec spec = campus_spec();
  std::vector<std::string> out;
  for (std::size_t c = 0; c < spec.core; ++c) {
    out.push_back("core" + std::to_string(c));
  }
  out.push_back("core0--core1");
  for (std::size_t d = 0; d < spec.distribution; ++d) {
    out.push_back("dist" + std::to_string(d));
    for (std::size_t c = 0; c < spec.core; ++c) {
      out.push_back("dist" + std::to_string(d) + "--core" + std::to_string(c));
    }
  }
  for (std::size_t e = 0; e < spec.distribution * spec.edge_per_distribution;
       ++e) {
    out.push_back("edge" + std::to_string(e));
  }
  return out;
}

bool is_link(const std::string& element) {
  return element.find("--") != std::string::npos;
}

/// Exponent of the Zipf law the campus reads are drawn from.  At 1.2 about
/// 80% of reads hit the 1,024-entry response cache, so the read latency
/// median lies well inside the hits and p90 well inside the misses; at 1.0
/// (about 60% hits) the median sat on the edge between the two and jumped
/// with every change of the hit share (README.md, "Noise").
constexpr double kCampusZipf = 1.2;

/// Zipf(kCampusZipf) over ranks 0..n-1 as a cumulative table.
std::vector<double> zipf_cdf(std::size_t n) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += std::pow(static_cast<double>(r + 1), -kCampusZipf);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "campus-read", "usi-availability", "campus-churn"};
  return names;
}

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "campus-read" || name == "campus-churn") {
    w.composite = kCampusComposite;
    w.tenants.push_back({"default/default", campus_bundle_xml()});
    add_campus_keys(w);
    w.connections = 4;
    w.rate_per_s = 1000.0;
    w.setup_repeats = 3;
    if (name == "campus-churn") {
      w.churn_elements = campus_churn_elements();
      w.write_every = 20;
    }
  } else if (name == "usi-availability") {
    const auto cs = upsim::casestudy::make_usi_case_study();
    w.composite = upsim::casestudy::printing_service_name();
    const std::string xml = usi_bundle_xml();
    for (int t = 1; t <= 8; ++t) {
      w.tenants.push_back({"tenant" + std::to_string(t) + "/usi", xml});
    }
    for (std::size_t t = 0; t < w.tenants.size(); ++t) {
      for (const char* client : {"t1", "t6", "t9", "t13", "t15"}) {
        for (const char* printer : {"p1", "p2", "p3"}) {
          ReadKey key;
          key.method = "availability";
          key.tenant = t;
          key.routed = true;
          key.client = client;
          key.printer = printer;
          key.mapping = cs.printing_mapping(client, printer);
          key.params_json =
              upsim::server::query_params_json(w.composite, key.mapping);
          w.keys.push_back(std::move(key));
        }
      }
    }
    w.connections = 2;
    w.rate_per_s = 450.0;
    w.setup_repeats = 11;
  } else {
    throw Error("unknown workload '" + name + "'");
  }
  return w;
}

std::string envelope(std::uint64_t id, const std::string& method,
                     const std::string& params_json,
                     const std::string& model) {
  upsim::obs::JsonWriter w;
  w.begin_object();
  w.key("id");
  w.value(id);
  w.key("method");
  w.value(method);
  w.key("params");
  w.raw_value(params_json);
  if (!model.empty()) {
    w.key("model");
    w.value(model);
  }
  w.end_object();
  return std::move(w).str();
}

std::string read_payload(const Workload& workload, const ReadKey& key,
                         std::uint64_t id) {
  return envelope(id, key.method, key.params_json,
                  key.routed ? workload.tenants[key.tenant].model_id : "");
}

Stream make_stream(const Workload& w, std::uint64_t seed, double seconds) {
  Rng rng(seed * 0x2545F4914F6CDD1Dull + 0x5851F42D4C957F2Dull);
  Stream stream;
  const auto total =
      static_cast<std::size_t>(std::llround(w.rate_per_s * seconds));
  const double interval_us = 1e6 / w.rate_per_s;

  // Read contents.  Campus: a seeded rank -> perspective permutation under
  // Zipf(1.2), then 70/30 upsim/paths.  USI: a seeded permutation of the
  // 120 keys, cycled.
  std::vector<std::uint32_t> order(w.name == "usi-availability"
                                       ? w.keys.size()
                                       : w.keys.size() / 2);
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  shuffle(order, rng);
  const std::vector<double> cdf =
      w.name == "usi-availability" ? std::vector<double>{}
                                   : zipf_cdf(order.size());

  // Churn writer state: fail/repair events keep at most two elements down
  // and repair the oldest first; observation batches alternate each
  // element's observed state with strictly increasing times.
  std::deque<std::string> down;
  std::map<std::string, bool> observed_down;
  double clock_hours = 0.0;
  std::size_t writes = 0;
  std::size_t reads = 0;
  std::uint32_t next_read_conn = 0;

  for (std::size_t i = 0; i < total; ++i) {
    Scheduled s;
    s.at_us = static_cast<double>(i) * interval_us;
    s.id = i + 1;
    const bool write =
        w.write_every != 0 && i % w.write_every == w.write_every - 1;
    if (!write) {
      s.kind = Kind::Read;
      if (cdf.empty()) {
        s.key = order[reads % order.size()];
      } else {
        const double u = rng.uniform();
        const auto rank = static_cast<std::size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        const std::uint32_t perspective =
            order[std::min(rank, order.size() - 1)];
        s.key = 2 * perspective + (rng.uniform() < 0.7 ? 0 : 1);
      }
      s.conn = next_read_conn;
      next_read_conn = static_cast<std::uint32_t>((next_read_conn + 1) %
                                                  w.connections);
      s.payload = read_payload(w, w.keys[s.key], s.id);
      ++reads;
    } else if (writes++ % 2 == 0) {
      s.kind = Kind::ScenarioStep;
      s.conn = 0;
      clock_hours += 0.5 + rng.uniform();
      upsim::scenario::Event event;
      event.at_hours = clock_hours;
      const bool repair =
          down.size() == 2 || (!down.empty() && rng.uniform() < 0.5);
      if (repair) {
        event.element = down.front();
        down.pop_front();
      } else {
        do {
          event.element = w.churn_elements[rng.below(w.churn_elements.size())];
        } while (std::find(down.begin(), down.end(), event.element) !=
                 down.end());
        down.push_back(event.element);
      }
      using upsim::scenario::EventKind;
      event.kind = is_link(event.element)
                       ? (repair ? EventKind::RepairLink : EventKind::FailLink)
                       : (repair ? EventKind::RepairComponent
                                 : EventKind::FailComponent);
      s.payload = envelope(s.id, "scenario_step",
                           "{\"event\":" + event.to_json() + "}", "");
    } else {
      s.kind = Kind::Observations;
      s.conn = 0;
      upsim::obs::JsonWriter p;
      p.begin_object();
      p.key("observations");
      p.begin_array();
      for (int o = 0; o < 4; ++o) {
        const std::string& element =
            w.churn_elements[rng.below(w.churn_elements.size())];
        bool& is_down = observed_down[element];
        is_down = !is_down;
        clock_hours += 0.25 + rng.uniform();
        p.begin_object();
        p.key("element");
        p.value(element);
        p.key("kind");
        p.value(is_down ? "fail" : "repair");
        p.key("t");
        p.value(clock_hours);
        p.end_object();
      }
      p.end_array();
      p.end_object();
      s.payload = envelope(s.id, "report_observations", std::move(p).str(), "");
    }
    stream.requests.push_back(std::move(s));
  }
  stream.left_down.assign(down.begin(), down.end());
  return stream;
}

std::uint64_t stream_digest(const Stream& stream) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  auto mix = [&h](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 0x100000001B3ull;
    }
  };
  for (const Scheduled& s : stream.requests) {
    const auto at_ns = static_cast<std::int64_t>(std::llround(s.at_us * 1e3));
    mix(&at_ns, sizeof at_ns);
    mix(&s.conn, sizeof s.conn);
    mix(s.payload.data(), s.payload.size());
  }
  return h;
}

std::vector<std::string> stream_elements(const Stream& stream) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const Scheduled& s : stream.requests) {
    if (s.kind == Kind::Read) continue;
    const upsim::obs::JsonValue doc = upsim::obs::json_parse(s.payload);
    const upsim::obs::JsonValue& params = doc.at("params");
    std::vector<const upsim::obs::JsonValue*> items;
    if (params.has("event")) {
      items.push_back(&params.at("event"));
    } else {
      for (const auto& o : params.at("observations").array) items.push_back(&o);
    }
    for (const auto* item : items) {
      const std::string& element = item->at("element").string;
      if (seen.insert(element).second) out.push_back(element);
    }
  }
  return out;
}

}  // namespace upbench
