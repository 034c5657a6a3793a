// The benchmark's own tests: the request stream is a pure function of the
// seed, and a churn stream names only elements of the campus bundle.
//
//   upbench_selftest        (run.py --selftest builds and runs it)
#include <cstdio>
#include <set>
#include <string>

#include "obs/json.hpp"
#include "umlio/serialize.hpp"
#include "workload.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void test_determinism(const upbench::Workload& w) {
  const auto a = upbench::stream_digest(upbench::make_stream(w, 7, 2.0));
  const auto b = upbench::stream_digest(upbench::make_stream(w, 7, 2.0));
  const auto c = upbench::stream_digest(upbench::make_stream(w, 8, 2.0));
  std::printf("     %s digests: seed 7 %016llx, seed 8 %016llx\n",
              w.name.c_str(), static_cast<unsigned long long>(a),
              static_cast<unsigned long long>(c));
  check(a == b, w.name + ": the same seed gives the same stream");
  check(a != c, w.name + ": another seed gives another stream");
}

void test_churn_elements(const upbench::Workload& w) {
  const upsim::umlio::UmlBundle bundle =
      upsim::umlio::from_xml(w.tenants.front().bundle_xml);
  std::set<std::string> known;
  for (const auto& link : bundle.objects->links()) known.insert(link->name());
  for (const std::string& e : w.churn_elements) {
    if (bundle.objects->find_instance(e) != nullptr) known.insert(e);
  }
  for (const std::uint64_t seed : {1, 2, 3, 4, 5}) {
    const upbench::Stream s = upbench::make_stream(w, seed, 10.0);
    const auto named = upbench::stream_elements(s);
    std::size_t unknown = 0;
    for (const std::string& e : named) unknown += known.count(e) == 0 ? 1 : 0;
    check(!named.empty() && unknown == 0,
          "campus-churn seed " + std::to_string(seed) + ": all " +
              std::to_string(named.size()) +
              " named elements exist in the campus bundle");

    // Never more than two elements down, and every fail is repaired later
    // in the stream or left for the post-window repair sweep.
    std::set<std::string> down;
    std::size_t max_down = 0;
    for (const upbench::Scheduled& r : s.requests) {
      if (r.kind != upbench::Kind::ScenarioStep) continue;
      const auto event =
          upsim::obs::json_parse(r.payload).at("params").at("event");
      const std::string& kind = event.at("kind").string;
      if (kind.rfind("fail", 0) == 0) {
        down.insert(event.at("element").string);
      } else {
        down.erase(event.at("element").string);
      }
      max_down = std::max(max_down, down.size());
    }
    check(max_down <= 2 && down.size() == s.left_down.size(),
          "campus-churn seed " + std::to_string(seed) +
              ": at most two elements down at a time");
  }
}

}  // namespace

int main() {
  for (const std::string& name : upbench::workload_names()) {
    test_determinism(upbench::make_workload(name));
  }
  test_churn_elements(upbench::make_workload("campus-churn"));
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
