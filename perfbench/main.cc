// The benchmark program: runs whole rounds of one workload for --seconds of
// host time, checks every round, and prints one JSON object as its last
// line (metric values only; perfbench/run.py attaches the units from
// BENCHMARK.json). See README.md.
//
//   perfbench --workload smallfile|aged|tenants --seed N --seconds S
//             --trace 0|1 [--out DIR]
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      o->workload = v;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      o->seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      o->trace = std::strcmp(v, "1") == 0;
      if (!o->trace && std::strcmp(v, "0") != 0) return false;
    } else if (k == "--out") {
      o->out = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return (argc % 2) == 1 && !o->workload.empty() && o->seconds > 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// Host-clock values are medians over rounds; simulated ones are identical
// in every round (the simulator is deterministic), which is checked.
bool IsHostMetric(const std::string& name) {
  return name.find("host") != std::string::npos;
}

uint64_t Fnv(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string Num(double v) {
  char b[40];
  std::snprintf(b, sizeof b, "%.17g", v);
  return b;
}

std::string Hex(uint64_t v) {
  char b[20];
  std::snprintf(b, sizeof b, "%016" PRIx64, v);
  return b;
}

// Every simulated value a round produced: the end-to-end metrics and the
// per-layer values that are not host times.
std::map<std::string, double> Simulated(const RoundResult& r) {
  std::map<std::string, double> all = r.sim;
  for (const auto& [k, v] : r.layer) {
    if (!IsHostMetric(k)) all[k] = v;
  }
  return all;
}

// Writes the simulation digest: every simulated metric and the device
// image hashes of the round, plus one hash over all of them. Two runs of
// the same workload and seed on a simulator whose modelled machine did not
// change produce identical files (compare_digest.py diffs them).
std::string WriteDigest(const Options& o, const RoundResult& r) {
  uint64_t h = 1469598103934665603ull;
  std::string body = "{\n  \"workload\": \"" + o.workload +
                     "\",\n  \"seed\": " + std::to_string(o.seed) +
                     ",\n  \"images\": [";
  for (size_t i = 0; i < r.image_hashes.size(); ++i) {
    body += (i ? ", \"" : "\"") + Hex(r.image_hashes[i]) + "\"";
    h = Fnv(h, Hex(r.image_hashes[i]));
  }
  body += "],\n  \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : Simulated(r)) {
    body += std::string(first ? "\n" : ",\n") + "    \"" + k + "\": " + Num(v);
    h = Fnv(h, k + "=" + Num(v) + "\n");
    first = false;
  }
  const std::string digest = Hex(h);
  body += "\n  },\n  \"digest\": \"" + digest + "\"\n}\n";
  const std::string path = o.out + "/" + o.workload + ".seed" +
                           std::to_string(o.seed) + ".digest.json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(body.c_str(), f);
    std::fclose(f);
  }
  std::printf("digest %s seed=%" PRIu64 " sim=%s file=%s\n",
              o.workload.c_str(), o.seed, digest.c_str(), path.c_str());
  return digest;
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload smallfile|aged|tenants "
                 "--seed N --seconds S --trace 0|1 [--out DIR]\n");
    return 2;
  }
  RoundResult (*run)(const RoundContext&) = nullptr;
  if (o.workload == "smallfile") run = RunSmallfile;
  if (o.workload == "aged") run = RunAged;
  if (o.workload == "tenants") run = RunTenants;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(o.out);

  // Inputs are generated once per process from the seed; every round then
  // replays the same operations.
  const Content content(o.seed);
  Tracer tracer;
  std::vector<RoundResult> rounds;
  std::vector<bool> traced;
  const int64_t deadline =
      HostNowNs() + static_cast<int64_t>(o.seconds * 1e9);
  for (size_t i = 0;; ++i) {
    // A traced run alternates untraced and traced rounds, so the tracing
    // overhead is measured inside one process.
    const bool tr = o.trace && i % 2 == 1;
    tracer.set_enabled(tr);
    tracer.set_sim_clock(nullptr);  // the last round's machine is gone
    rounds.push_back(run(RoundContext{o.seed, &content, &tracer}));
    traced.push_back(tr);
    tracer.set_enabled(false);
    if (!rounds.back().problems.empty()) break;
    if (HostNowNs() >= deadline && (!o.trace || i >= 1)) break;
  }

  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  for (const RoundResult& r : rounds) {
    attempted += std::max<uint64_t>(r.ops, r.failed);
    failed += r.failed;
    for (const std::string& p : r.problems) {
      std::printf("CHECK FAILED: %s\n", p.c_str());
      correct = false;
    }
  }
  const RoundResult& first = rounds.front();
  const std::string digest = WriteDigest(o, first);
  for (size_t i = 1; i < rounds.size() && correct; ++i) {
    if (Simulated(rounds[i]) != Simulated(first) ||
        rounds[i].image_hashes != first.image_hashes) {
      std::printf("CHECK FAILED: round %zu simulated a different machine "
                  "than round 0\n", i);
      correct = false;
    }
  }

  std::map<std::string, double> metrics;
  std::vector<double> untraced_ops_s, traced_ops_s, setup_s;
  for (size_t i = 0; i < rounds.size(); ++i) {
    const double ops_s = rounds[i].ops / rounds[i].measured_host_s;
    (traced[i] ? traced_ops_s : untraced_ops_s).push_back(ops_s);
    setup_s.push_back(rounds[i].setup_s);
  }
  if (!o.trace) {
    metrics = first.sim;
    metrics["host_ops_per_s"] = Median(untraced_ops_s);
    metrics["setup_s"] = Median(setup_s);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metrics["peak_rss_mb"] = ru.ru_maxrss / 1024.0;  // ru_maxrss is in KB
  } else {
    uint64_t traced_ops = 0, trace_events = 0;
    std::map<std::string, std::vector<double>> values;
    for (size_t i = 0; i < rounds.size(); ++i) {
      if (!traced[i]) continue;
      traced_ops += rounds[i].ops;
      trace_events += rounds[i].trace_events;
      for (const auto& [k, v] : rounds[i].layer) values[k].push_back(v);
    }
    for (const auto& [k, v] : values) metrics[k] = Median(v);
    // Layers a workload does not reach through the benchmark's own calls
    // report 0: the fs calls of `tenants` are issued inside ShardDriver, and
    // the single-machine workloads have no scheduler or router.
    for (const char* k :
         {"fs.host_create_us", "fs.host_read_us", "fs.host_delete_us",
          "mt.queue_wait_ms_per_op", "mt.jain_fairness",
          "shard.host_us_per_op", "shard.max_over_mean_ops",
          "shard.cross_renames_per_kop"}) {
      metrics.emplace(k, 0.0);
    }
    const auto& m = tracer.measured();
    auto self_us = [&](const char* layer) {
      auto it = m.find(layer);
      return it == m.end() ? 0.0 : it->second.self_ns / 1e3 / traced_ops;
    };
    auto cache = m.find("cache");
    metrics["cache.host_sync_ms"] =
        cache == m.end() ? 0.0
                         : cache->second.self_ns / 1e6 / cache->second.calls;
    for (const char* layer : {"bench", "fs", "names", "cache", "sim"}) {
      metrics[std::string("self.") + layer + "_us_per_op"] = self_us(layer);
    }
    metrics["obs.traced_host_ops_per_s"] = Median(traced_ops_s);
    metrics["obs.trace_events_per_op"] =
        static_cast<double>(trace_events) / traced_ops;

    std::printf("per-layer host self time over the measured region "
                "(%zu traced rounds, %" PRIu64 " ops):\n",
                traced_ops_s.size(), traced_ops);
    std::printf("  %-8s %12s %12s %10s\n", "layer", "calls", "self_ms",
                "us/op");
    for (const auto& [layer, tot] : m) {
      std::printf("  %-8s %12" PRIu64 " %12.1f %10.3f\n", layer.c_str(),
                  tot.calls, tot.self_ns / 1e6,
                  tot.self_ns / 1e3 / traced_ops);
    }
    const double un = Median(untraced_ops_s), tr = Median(traced_ops_s);
    std::printf("tracing overhead: untraced %.1f ops/s, traced %.1f ops/s "
                "(%+.1f%% host time per op)\n",
                un, tr, 100.0 * (un / tr - 1.0));
    const std::string path = o.out + "/" + o.workload + ".seed" +
                             std::to_string(o.seed) + ".trace.json";
    if (tracer.WriteChromeTrace(path)) {
      std::printf("chrome trace: %s (%" PRIu64 " of %" PRIu64 " spans)\n",
                  path.c_str(), tracer.stored(), tracer.spans());
    }
  }
  std::printf("rounds=%zu digest=%s\n", rounds.size(), digest.c_str());

  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first_metric = true;
  for (const auto& [k, v] : metrics) {
    line += std::string(first_metric ? "" : ", ") + "\"" + k + "\": " + Num(v);
    first_metric = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
