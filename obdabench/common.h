#ifndef OBDABENCH_COMMON_H_
#define OBDABENCH_COMMON_H_

// Shared pieces of the end-to-end OBDA benchmark: run options, the report
// every phase fills in, the in-memory span tracer, seeded randomness and
// small statistics helpers.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/rewriters.h"
#include "cq/cq.h"
#include "ndl/evaluator.h"

namespace obdabench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  bool smoke = false;  // Every phase at its smallest dose, all checks kept.
  // Whether this phase is the workload's own (whole rounds for `seconds`)
  // or a companion (a fixed, reduced dose).
  bool main = false;
  // The phase's work is cut into this many slices.  With `turns`, run.py
  // hands the turn from phase to phase between slices (AwaitTurn).
  int slices = 1;
  bool turns = false;
  std::string out_dir = ".";
  Clock::time_point process_start;
};

// What one phase produced.  The first value set under a name is kept.
class Report {
 public:
  void SetEndToEnd(const std::string& name, double value,
                   const std::string& unit);
  void SetLayer(const std::string& name, double value,
                const std::string& unit);
  void AddOps(long attempted, long failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  // Records a failed output check (printed to stderr; `correct` turns
  // false).
  void CheckFailed(const std::string& what);
  void Check(bool ok, const std::string& what) {
    if (!ok) CheckFailed(what);
  }
  bool correct() const { return correct_; }
  long failed() const { return failed_; }

  // The result line: {"correct", "attempted", "failed", "metrics"} with the
  // end-to-end metrics (trace=false) or the per-layer metrics (trace=true).
  std::string ToJson(bool trace) const;

 private:
  struct Value {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Value> end_to_end_;
  std::map<std::string, Value> layer_;
  long attempted_ = 0;
  long failed_ = 0;
  bool correct_ = true;
};

// Spans around every call the benchmark makes into a layer: name, start,
// end, parent span and request id, kept in memory and written out as JSON
// lines when the run ends.  Disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  // Returns the span id, or -1 when disabled.
  int Begin(const char* name, int parent, long request);
  void End(int id);
  bool WriteJsonLines(const std::string& path) const;
  size_t size() const;

 private:
  struct Span {
    const char* name;
    double start_ms;
    double end_ms;
    int parent;
    long request;
  };
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mutex_;  // Guards spans_.
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, int parent = -1,
            long request = -1)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
  ~SpanScope() { tracer_->End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  Tracer* const tracer_;
  const int id_;
};

// SplitMix64: portable and deterministic in the seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, n).
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Next() % i]);
    }
  }

 private:
  uint64_t state_;
};

// Turn-taking with run.py, which runs a workload's three phases in their own
// processes and interleaves their slices, so that every figure samples the
// whole run rather than one stretch of it (the VM's speed drifts over
// seconds).  A phase calls this once after its set-up and once after each
// slice: it prints "yield" and blocks until run.py writes "go".  Without
// `turns` it returns at once.
void AwaitTurn(const Options& options);

// The main phase's active time at which slice `slice` (0-based) ends: its
// share of `seconds`.
inline double SliceEndMs(const Options& options, int slice) {
  return options.seconds * 1e3 * (slice + 1) / options.slices;
}

double Median(std::vector<double> values);
// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

// Order-insensitive fingerprint of an answer set (sorted, then hashed).
uint64_t AnswerHash(std::vector<std::vector<int>> answers);

// getrusage(RUSAGE_SELF) sample.
struct Usage {
  long minor_faults = 0;
  double user_s = 0;
  double sys_s = 0;
  double max_rss_mb = 0;
};
Usage ReadUsage();

// Sets proc.minor_faults_per_op and proc.sys_cpu_share from two samples.
void SetProcLayer(const Usage& before, const Usage& after, long ops,
                  Report* report);

// Sets the ndl.* counts as per-operation means over `stats`.
void SetNdlCountLayer(const std::vector<owlqr::EvaluationStats>& stats,
                      Report* report);

// Phase entry points (one file each).  A workload's run executes all three
// phases, each in its own process, so that every end-to-end metric is
// reported by every workload: its own phase is the main one and runs whole
// rounds for the requested seconds, the other two run a fixed, reduced dose
// (README.md).  Each spreads its work over `options.slices` slices.
void RunPaperCold(const Options& options, Tracer* tracer, Report* report);
void RunWarmParallel(const Options& options, Tracer* tracer, Report* report);
void RunServeDurable(const Options& options, Tracer* tracer, Report* report);

}  // namespace obdabench

#endif  // OBDABENCH_COMMON_H_
