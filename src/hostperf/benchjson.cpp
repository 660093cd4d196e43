#include "hostperf/benchjson.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/json.hpp"

namespace bladed::hostperf {

BenchReport BenchReport::from_env(std::string bench_name, int host_threads) {
  const char* path = std::getenv("BLADED_BENCH_JSON");
  return BenchReport(path != nullptr ? path : "", std::move(bench_name),
                     host_threads);
}

BenchReport::BenchReport(std::string path, std::string bench_name,
                         int host_threads)
    : path_(std::move(path)),
      bench_(std::move(bench_name)),
      host_threads_(host_threads) {}

BenchReport::~BenchReport() { write(); }

void BenchReport::add(BenchResult r) {
  if (!active()) return;
  results_.push_back(std::move(r));
}

void BenchReport::write() {
  if (!active() || written_ || results_.empty()) return;
  Json rows = Json::array();
  for (const BenchResult& r : results_) {
    Json row = Json::object();
    row.set("name", r.name)
        .set("wall_seconds", r.wall_seconds)
        .set("virtual_seconds", r.virtual_seconds)
        .set("ops", r.ops)
        .set("cycles", r.cycles);
    rows.push(std::move(row));
  }
  Json doc = Json::object();
  doc.set("schema", "bladed-bench-v1")
      .set("bench", bench_)
      .set("host_threads", host_threads_)
      .set("results", std::move(rows));
  const std::string line = doc.dump() + "\n";
  std::FILE* f = std::fopen(path_.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "benchjson: cannot open %s for append\n",
                 path_.c_str());
    return;
  }
  std::fwrite(line.data(), 1, line.size(), f);
  std::fclose(f);
  written_ = true;
}

}  // namespace bladed::hostperf
