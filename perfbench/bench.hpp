#pragma once

/// Shared pieces of the repo benchmark: the span tracer, the run-wide
/// result collector (end-to-end samples, per-layer values, output checks)
/// and the three workload phases. Every phase runs in every run so that
/// each run reports every end-to-end metric; each phase does a fixed floor
/// of work, and the workload named on the command line decides which phase
/// gets the rest of the run's time.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since the process's benchmark epoch (steady clock).
[[nodiscard]] double now_s();

/// One timed call into a module under src/, recorded from the benchmark's
/// own files. Spans with parent -1 are timed jobs; a layer's self time is
/// its span duration minus what its child spans cover.
struct Span {
  std::string name;
  std::string layer;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::uint64_t request = 0;  ///< request id shared by one request's spans
  /// Duration derived from a count times a separately measured unit cost
  /// (e.g. messages x simnet handoff), not read off a clock.
  bool estimated = false;
};

/// In-memory span store; written out once when the run ends. Off, every
/// call is a branch and no clock is read.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  [[nodiscard]] bool on() const { return on_; }
  int begin(const char* name, const char* layer, int parent = -1,
            std::uint64_t request = 0);
  void end(int id);
  /// Record a finished span (start/end already known).
  int add(Span s);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Self seconds per layer over every span, and the summed wall time of
  /// the top-level (job) spans whose name starts with `job_prefix`.
  [[nodiscard]] std::map<std::string, double> layer_self(
      const std::string& job_prefix, double* jobs_wall) const;
  void write(const std::string& path) const;

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// RAII span; inert when the tracer is off.
class Scoped {
 public:
  Scoped(Tracer& t, const char* name, const char* layer, int parent = -1,
         std::uint64_t request = 0)
      : t_(t), id_(t.on() ? t.begin(name, layer, parent, request) : -1) {}
  ~Scoped() {
    if (id_ >= 0) t_.end(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

/// Everything a run measures and checks.
class Results {
 public:
  /// One sample of an end-to-end metric (reported as median + tail).
  void sample(const std::string& name, const std::string& unit, double v);
  void samples(const std::string& name, const std::string& unit,
               const std::vector<double>& v);
  /// A per-layer value.
  void layer(const std::string& name, const std::string& unit, double v);
  /// Count one output check; a failure is printed and counted.
  bool check(bool ok, const std::string& what);
  /// Count `attempted` requests of which `failed` failed.
  void count(std::uint64_t attempted, std::uint64_t failed);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] double median(const std::string& name) const;

  struct Series {
    std::string unit;
    std::vector<double> values;
  };
  struct Value {
    std::string unit;
    double value = 0.0;
  };
  [[nodiscard]] const std::map<std::string, Series>& e2e() const {
    return e2e_;
  }
  [[nodiscard]] const std::map<std::string, Value>& layers() const {
    return layers_;
  }

 private:
  std::map<std::string, Series> e2e_;
  std::map<std::string, Value> layers_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Median and the highest of p90/p95/p99/p99.9 that has at least ten
/// samples beyond it (0 = none qualifies).
struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double tail_pct = 0.0;
  double tail = 0.0;
};
[[nodiscard]] Summary summarize(std::vector<double> v);
/// Nearest-rank percentile of `v` (sorted in place).
[[nodiscard]] double percentile(std::vector<double>& v, double pct);

/// Shared run state handed to every phase.
struct Run {
  std::uint64_t seed = 1;
  Tracer tracer;
  Results results;
  Run(std::uint64_t s, bool trace) : seed(s), tracer(trace) {}
  /// A random stream of its own for each phase, drawn from the seed alone,
  /// so a phase's inputs do not depend on how the phases took turns.
  [[nodiscard]] std::mt19937_64 stream(std::uint64_t phase) const {
    std::seed_seq s{seed, phase};
    return std::mt19937_64(s);
  }
};

/// A workload phase. The constructor is set-up (counted in setup_s);
/// step() runs one timed unit (a job, a round of sets, a slice of
/// traffic); progress() is the share done of the phase's floor, the work it
/// does in every run whatever the workload (1 or more: done);
/// finish() runs the untimed reference jobs, checks and traced extras.
class Phase {
 public:
  virtual ~Phase() = default;
  Phase() = default;
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;
  virtual void step() = 0;
  [[nodiscard]] virtual double progress() const = 0;
  virtual void finish() = 0;
};

[[nodiscard]] std::unique_ptr<Phase> make_cluster(Run& run);
[[nodiscard]] std::unique_ptr<Phase> make_cms(Run& run);
[[nodiscard]] std::unique_ptr<Phase> make_serve(Run& run);

}  // namespace perfbench
