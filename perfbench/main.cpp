/// perfbench: the repo benchmark binary. Runs the cluster, cms and serve
/// phases (all three in every run, so every end-to-end metric is reported;
/// each does a fixed floor of work and the named workload's phase gets the
/// rest of the time), checks their
/// outputs, and writes one result file that perfbench/run.py turns into the
/// benchmark's result line.
///
///   perfbench --workload cluster|cms|serve --seed N --seconds S
///             --trace 0|1 --out RESULT.json [--spans SPANS.jsonl]

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "cms/engine.hpp"
#include "jit/jit.hpp"

namespace {

using namespace perfbench;

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetups = 5;
/// Series up to this long are written out sample by sample.
constexpr std::size_t kMaxListed = 256;
constexpr const char* kPhases[3] = {"cluster", "cms", "serve"};
/// Layers whose self time the traced run reports.
constexpr const char* kLayers[] = {"simnet", "npb", "treecode", "cms",
                                   "opt",    "prove", "wcet",  "jit",
                                   "serve"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string spans;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload cluster|cms|serve "
               "--seed N --seconds S --trace 0|1 --out FILE [--spans FILE]\n",
               why);
  return 2;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string env_or(const char* name, const char* dflt) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : dflt;
}

void json_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

void write_result(const Args& a, const Run& run, bool correct) {
  std::FILE* f = std::fopen(a.out.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + a.out);
  const Results& r = run.results;
  std::fprintf(f, "{\"schema\":\"perfbench-result-v1\",\"workload\":");
  json_string(f, a.workload);
  std::fprintf(f, ",\"seed\":%llu,\"seconds\":%.17g,\"trace\":%d,",
               static_cast<unsigned long long>(a.seed), a.seconds,
               a.trace ? 1 : 0);
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::fprintf(f, "\"provenance\":{\"compiler\":");
  json_string(f, PERFBENCH_COMPILER);
  std::fprintf(f, ",\"build_type\":");
  json_string(f, PERFBENCH_BUILD_TYPE);
  std::fprintf(f, ",\"cxx_flags\":");
  json_string(f, PERFBENCH_CXX_FLAGS);
  std::fprintf(f, ",\"ndebug\":%s,\"verify_translations_default\":%s,",
               ndebug ? "true" : "false",
               bladed::cms::kVerifyTranslationsDefault ? "true" : "false");
  std::fprintf(f, "\"BLADED_JIT\":");
  json_string(f, env_or("BLADED_JIT", ""));
  std::fprintf(f, ",\"jit_enabled\":%s,\"BLADED_HOST_THREADS\":",
               bladed::jit::env_enabled(true) ? "true" : "false");
  json_string(f, env_or("BLADED_HOST_THREADS", ""));
  std::fprintf(f, ",\"nproc\":%ld},", sysconf(_SC_NPROCESSORS_ONLN));
  std::fprintf(f,
               "\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
               "\"failed_ratio\":%.17g,",
               correct ? "true" : "false",
               static_cast<unsigned long long>(r.attempted()),
               static_cast<unsigned long long>(r.failed()),
               r.attempted() == 0 ? 1.0
                                  : static_cast<double>(r.failed()) /
                                        static_cast<double>(r.attempted()));
  std::fprintf(f, "\"end_to_end\":{");
  bool first = true;
  for (const auto& [name, s] : r.e2e()) {
    const Summary sum = summarize(s.values);
    std::fprintf(f,
                 "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"n\":%zu,"
                 "\"median\":%.17g,\"tail_pct\":%.17g,\"tail\":%.17g",
                 first ? "" : ",", name.c_str(),
                 sum.median, s.unit.c_str(), sum.n,
                 sum.median, sum.tail_pct, sum.tail);
    // Every sample of the small series, for spread analysis.
    if (s.values.size() <= kMaxListed) {
      std::fprintf(f, ",\"samples\":[");
      for (std::size_t i = 0; i < s.values.size(); ++i) {
        std::fprintf(f, "%s%.17g", i == 0 ? "" : ",", s.values[i]);
      }
      std::fprintf(f, "]");
    }
    std::fprintf(f, "}");
    first = false;
  }
  std::fprintf(f, "},\"per_layer\":{");
  first = true;
  for (const auto& [name, v] : r.layers()) {
    std::fprintf(f, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                 first ? "" : ",", name.c_str(), v.value, v.unit.c_str());
    first = false;
  }
  std::fprintf(f, "}}\n");
  std::fclose(f);
}

void print_report(const Run& run) {
  const Results& r = run.results;
  std::printf("\n%-22s %14s %6s %14s %8s %s\n", "end-to-end metric",
              "value", "unit", "tail", "at pct", "samples");
  for (const auto& [name, s] : r.e2e()) {
    const Summary sum = summarize(s.values);
    std::printf("%-22s %14.6g %6s %14.6g %8.1f %zu\n", name.c_str(),
                sum.median, s.unit.c_str(), sum.tail,
                sum.tail_pct, sum.n);
  }
  std::printf("%-22s %14.6g %6s\n", "failed_ratio",
              r.attempted() == 0
                  ? 1.0
                  : static_cast<double>(r.failed()) /
                        static_cast<double>(r.attempted()),
              "ratio");
  if (!r.layers().empty()) {
    std::printf("\n%-30s %14s %s\n", "per-layer metric", "value", "unit");
    for (const auto& [name, v] : r.layers()) {
      std::printf("%-30s %14.6g %s\n", name.c_str(), v.value,
                  v.unit.c_str());
    }
  }
}

/// Self time per layer, and the unattributed remainder, of every phase's
/// timed jobs. Only the layers under src/ count as named; the job spans
/// themselves and the serve client's own waiting do not.
void attribute(Run& run) {
  std::map<std::string, double> total;
  for (const char* phase : kPhases) {
    double wall = 0.0;
    const std::map<std::string, double> self =
        run.tracer.layer_self(std::string(phase) + ":", &wall);
    double named = 0.0;
    for (const char* layer : kLayers) {
      auto it = self.find(layer);
      if (it == self.end()) continue;
      total[layer] += it->second;
      named += it->second;
    }
    const double rest = wall - named;
    run.results.layer(std::string("unattributed_s.") + phase, "s", rest);
    run.results.layer(std::string("attributed_ratio.") + phase, "ratio",
                      wall > 0.0 ? named / wall : 0.0);
  }
  for (const char* layer : kLayers) {
    run.results.layer(std::string("self_s.") + layer, "s", total[layer]);
  }
}

int run_main(const Args& a) {
  int own = -1;
  for (int i = 0; i < 3; ++i) {
    if (a.workload == kPhases[i]) own = i;
  }
  if (own < 0) return usage("unknown workload");

  Run run(a.seed, a.trace);
  std::vector<double> setups;
  std::unique_ptr<Phase> phases[3];
  for (int k = 0; k < kSetups; ++k) {
    for (auto& p : phases) p.reset();
    const double t0 = now_s();
    phases[0] = make_cluster(run);
    phases[1] = make_cms(run);
    phases[2] = make_serve(run);
    setups.push_back(now_s() - t0);
  }
  run.results.samples("setup_s", "s", setups);

  // Every phase does its floor, the work it does in every run, taking
  // turns a unit at a time with the phase furthest behind on its floor
  // next. So each phase's samples spread over the whole run, and machine
  // noise that comes and goes during a run reaches every metric alike.
  // Then the named workload's phase goes on until --seconds is used up.
  const double t0 = now_s();
  double used[3] = {0.0, 0.0, 0.0};
  for (;;) {
    int pick = -1;
    for (int i = 0; i < 3; ++i) {
      const double p = phases[i]->progress();
      if (p < 1.0 && (pick < 0 || p < phases[pick]->progress())) pick = i;
    }
    if (pick < 0) {
      if (now_s() - t0 >= a.seconds) break;
      pick = own;
    }
    const double s0 = now_s();
    phases[pick]->step();
    used[pick] += now_s() - s0;
  }
  std::printf("timed: %.2f s (cluster %.2f, cms %.2f, serve %.2f; workload "
              "%s)\n",
              now_s() - t0, used[0], used[1], used[2], a.workload.c_str());
  for (auto& p : phases) p->finish();
  for (auto& p : phases) p.reset();

  run.results.sample("peak_rss_mb", "MB", peak_rss_mb());
  if (run.tracer.on()) {
    attribute(run);
    if (!a.spans.empty()) run.tracer.write(a.spans);
  }
  const bool correct = run.results.failed() == 0;
  print_report(run);
  write_result(a, run, correct);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (k == "--out") {
        a.out = v;
      } else if (k == "--spans") {
        a.spans = v;
      } else {
        return usage(("unknown option " + k).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + k).c_str());
    }
  }
  if (a.workload.empty() || a.out.empty()) return usage("missing option");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) {
    return usage("--seconds out of range");
  }
  try {
    return run_main(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
