// bench_compare: diff two trees of BENCH_*.json reports and fail on
// performance regressions. The CI perf gate: baselines are checked in under
// bench/baselines/, the bench job regenerates the same reports at head and
// this tool compares them metric by metric.
//
//   bench_compare --baseline=DIR --candidate=DIR [--tol=FRAC] [--verbose]
//
// Every BENCH_*.json in the baseline dir must exist in the candidate dir
// (a missing report is itself a failure — a silently-vanished benchmark is
// how perf gates rot). Within a report, the trees are walked in parallel
// and a curated set of numeric metrics is compared:
//
//   - keys ending in `_s`, `_ns`, `seconds`:        lower is better
//   - keys ending in `per_sec`, `speedup`, or under
//     a `*speedup*` parent (create_speedups.<cfg>):  higher is better
//   - disk_reads / disk_writes / sync_metadata_writes: lower is better
//
// A metric regresses when it is worse than baseline by more than --tol
// (relative, default 10%) AND by more than an absolute floor (100 us for
// times, 0.05 for rates/speedups, 8 for counts) — the floor keeps noise in
// near-zero metrics from tripping the gate. --tol=0 is the exact policy
// for deterministic simulated output: no floors, so any worse gated metric
// (even one more disk write) is a regression. Histogram internals
// (buckets, max_ns), sample timestamps and schema_version are skipped.
// Improvements are reported but never fail.
//
// Exit status: 0 = no regressions, 1 = regressions found, 2 = bad
// invocation or unreadable/unparseable input.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/json.h"

using namespace cffs;
namespace fsys = std::filesystem;

namespace {

struct Options {
  std::string baseline;
  std::string candidate;
  double tol = 0.10;
  bool verbose = false;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --baseline=DIR --candidate=DIR [--tol=FRAC] "
               "[--verbose]\n",
               argv0);
  return 2;
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

// Is this key a gated metric, and if so, is larger better? `path` is the
// full dotted path: speedup tables name their rows by config (e.g.
// create_speedups.cffs_create), so the direction hint can live in a parent.
bool GatedMetric(const std::string& key, const std::string& path,
                 bool* higher_better) {
  if (EndsWith(key, "per_sec") || EndsWith(key, "speedup") ||
      path.find("speedup") != std::string::npos) {
    *higher_better = true;
    return true;
  }
  if (EndsWith(key, "_s") || EndsWith(key, "_ns") ||
      EndsWith(key, "seconds")) {
    *higher_better = false;
    return true;
  }
  if (key == "disk_reads" || key == "disk_writes" ||
      key == "sync_metadata_writes") {
    *higher_better = false;
    return true;
  }
  return false;
}

// Subtrees / leaves that are distribution internals or timestamps, not
// metrics: comparing them is noise.
bool SkippedKey(const std::string& key) {
  return key == "buckets" || key == "max_ns" || key == "schema_version" ||
         key == "ts_ns" || key == "time_series" || key == "samples";
}

// Absolute regression floor per metric flavor (see file comment); not
// applied under --tol=0.
double AbsFloor(const std::string& key, const std::string& path) {
  if (EndsWith(key, "_ns")) return 100e3;  // 100 us
  if (EndsWith(key, "_s") || EndsWith(key, "seconds")) return 100e-6;
  if (EndsWith(key, "per_sec") || EndsWith(key, "speedup") ||
      path.find("speedup") != std::string::npos) {
    return 0.05;
  }
  return 8;  // counts
}

struct CompareState {
  const Options* opts;
  std::string report;  // file name, for messages
  std::vector<std::string> regressions;
  size_t compared = 0;
  size_t improved = 0;
};

void CompareNode(const obs::Json& base, const obs::Json& cand,
                 const std::string& path, CompareState* st);

void CompareMetric(const std::string& key, const obs::Json& base,
                   const obs::Json& cand, const std::string& path,
                   CompareState* st) {
  bool higher_better = false;
  if (!GatedMetric(key, path, &higher_better)) return;
  const double b = base.as_double();
  const double c = cand.as_double();
  ++st->compared;
  const double worse = higher_better ? b - c : c - b;
  const double rel =
      b != 0 ? worse / std::abs(b) : (worse > 0 ? 1.0 : 0.0);
  const double floor = st->opts->tol > 0 ? AbsFloor(key, path) : 0;
  if (worse > floor && rel > st->opts->tol) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s: %s: %.6g -> %.6g (%+.1f%% %s)", st->report.c_str(),
                  path.c_str(), b, c, 100.0 * (c - b) / (b != 0 ? std::abs(b) : 1.0),
                  higher_better ? "slower" : "worse");
    st->regressions.push_back(line);
  } else if (worse < 0) {
    ++st->improved;
    if (st->opts->verbose) {
      std::printf("  improved  %s: %s: %.6g -> %.6g\n", st->report.c_str(),
                  path.c_str(), b, c);
    }
  }
}

void CompareNode(const obs::Json& base, const obs::Json& cand,
                 const std::string& path, CompareState* st) {
  if (base.is_object() && cand.is_object()) {
    for (const auto& [key, value] : base.members()) {
      if (SkippedKey(key)) continue;
      const obs::Json* other = cand.Find(key);
      if (other == nullptr) continue;  // new/removed keys are not perf
      const std::string sub = path.empty() ? key : path + "." + key;
      if (value.is_number() && other->is_number()) {
        CompareMetric(key, value, *other, sub, st);
      } else {
        CompareNode(value, *other, sub, st);
      }
    }
  } else if (base.is_array() && cand.is_array()) {
    const size_t n = std::min(base.size(), cand.size());
    for (size_t i = 0; i < n; ++i) {
      CompareNode(base.at(i), cand.at(i), path + "[" + std::to_string(i) + "]",
                  st);
    }
  }
}

Result<obs::Json> LoadJson(const fsys::path& path) {
  std::ifstream in(path);
  if (!in) return IoError("cannot open " + path.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return obs::Json::Parse(buf.str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--baseline=", 11) == 0) {
      opts.baseline = arg + 11;
    } else if (std::strncmp(arg, "--candidate=", 12) == 0) {
      opts.candidate = arg + 12;
    } else if (std::strncmp(arg, "--tol=", 6) == 0) {
      opts.tol = std::atof(arg + 6);
    } else if (std::strcmp(arg, "--verbose") == 0) {
      opts.verbose = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (opts.baseline.empty() || opts.candidate.empty() || opts.tol < 0) {
    return Usage(argv[0]);
  }
  if (!fsys::is_directory(opts.baseline)) {
    std::fprintf(stderr, "baseline dir not found: %s\n",
                 opts.baseline.c_str());
    return 2;
  }
  if (!fsys::is_directory(opts.candidate)) {
    std::fprintf(stderr, "candidate dir not found: %s\n",
                 opts.candidate.c_str());
    return 2;
  }

  std::vector<std::string> all_regressions;
  size_t reports = 0, metrics = 0, improved = 0;
  std::vector<fsys::path> files;
  for (const auto& entry : fsys::directory_iterator(opts.baseline)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.rfind("BENCH_", 0) == 0 &&
        EndsWith(name, ".json")) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr, "no BENCH_*.json in %s\n", opts.baseline.c_str());
    return 2;
  }

  for (const fsys::path& base_path : files) {
    const std::string name = base_path.filename().string();
    const fsys::path cand_path = fsys::path(opts.candidate) / name;
    if (!fsys::exists(cand_path)) {
      all_regressions.push_back(name + ": missing from candidate dir");
      continue;
    }
    auto base = LoadJson(base_path);
    if (!base.ok()) {
      std::fprintf(stderr, "%s: %s\n", base_path.string().c_str(),
                   base.status().ToString().c_str());
      return 2;
    }
    auto cand = LoadJson(cand_path);
    if (!cand.ok()) {
      std::fprintf(stderr, "%s: %s\n", cand_path.string().c_str(),
                   cand.status().ToString().c_str());
      return 2;
    }
    CompareState st;
    st.opts = &opts;
    st.report = name;
    CompareNode(*base, *cand, "", &st);
    ++reports;
    metrics += st.compared;
    improved += st.improved;
    for (std::string& r : st.regressions) {
      all_regressions.push_back(std::move(r));
    }
  }

  std::printf("bench_compare: %zu reports, %zu metrics compared, "
              "%zu improved, %zu regressions (tol %.0f%%)\n",
              reports, metrics, improved, all_regressions.size(),
              100.0 * opts.tol);
  for (const std::string& r : all_regressions) {
    std::fprintf(stderr, "regression: %s\n", r.c_str());
  }
  return all_regressions.empty() ? 0 : 1;
}
