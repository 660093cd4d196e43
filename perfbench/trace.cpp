#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

namespace {
const Clock::time_point kEpoch = Clock::now();
}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

int Tracer::begin(const char* name, const char* layer, int parent,
                  std::uint64_t request) {
  if (!on_) return -1;
  Span s;
  s.name = name;
  s.layer = layer;
  s.parent = parent;
  s.request = request;
  s.start = now_s();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end = now_s();
}

int Tracer::add(Span s) {
  if (!on_) return -1;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::layer_self(
    const std::string& job_prefix, double* jobs_wall) const {
  // Parents are always recorded before their children, so one forward pass
  // resolves every span's root job.
  std::vector<int> root(spans_.size(), -1);
  std::vector<double> child_sum(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    root[i] = s.parent < 0 ? static_cast<int>(i)
                           : root[static_cast<std::size_t>(s.parent)];
    if (s.parent >= 0) {
      child_sum[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> self;
  double wall = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& r = spans_[static_cast<std::size_t>(root[i])];
    if (r.name.rfind(job_prefix, 0) != 0) continue;
    const Span& s = spans_[i];
    const double d = s.end - s.start;
    if (s.parent < 0) wall += d;
    self[s.layer] += d - child_sum[i];
  }
  if (jobs_wall != nullptr) *jobs_wall = wall;
  return self;
}

void Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"layer\":\"%s\",\"start\":%.9f,"
                 "\"end\":%.9f,\"parent\":%d,\"request\":%llu,"
                 "\"estimated\":%s}\n",
                 s.name.c_str(), s.layer.c_str(), s.start, s.end, s.parent,
                 static_cast<unsigned long long>(s.request),
                 s.estimated ? "true" : "false");
  }
  std::fclose(f);
}

void Results::sample(const std::string& name, const std::string& unit,
                     double v) {
  Series& s = e2e_[name];
  s.unit = unit;
  s.values.push_back(v);
}

void Results::samples(const std::string& name, const std::string& unit,
                      const std::vector<double>& v) {
  Series& s = e2e_[name];
  s.unit = unit;
  s.values.insert(s.values.end(), v.begin(), v.end());
}

void Results::layer(const std::string& name, const std::string& unit,
                    double v) {
  layers_[name] = Value{unit, v};
}

bool Results::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

void Results::count(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

double Results::median(const std::string& name) const {
  auto it = e2e_.find(name);
  if (it == e2e_.end()) return 0.0;
  return summarize(it->second.values).median;
}

double percentile(std::vector<double>& v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  for (double pct : {99.9, 99.0, 95.0, 90.0}) {
    if (static_cast<double>(n) * (1.0 - pct / 100.0) >= 10.0) {
      s.tail_pct = pct;
      s.tail = percentile(v, pct);
      break;
    }
  }
  return s;
}

}  // namespace perfbench
