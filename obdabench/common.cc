#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "util/json.h"

namespace obdabench {

void Report::SetEndToEnd(const std::string& name, double value,
                         const std::string& unit) {
  end_to_end_.emplace(name, Value{value, unit});
}

void Report::SetLayer(const std::string& name, double value,
                      const std::string& unit) {
  layer_.emplace(name, Value{value, unit});
}

void Report::CheckFailed(const std::string& what) {
  correct_ = false;
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

std::string Report::ToJson(bool trace) const {
  owlqr::JsonWriter w;
  w.BeginObject();
  w.KV("correct", correct_);
  w.KV("attempted", attempted_);
  w.KV("failed", failed_);
  w.Key("metrics");
  w.BeginObject();
  for (const auto& [name, v] : trace ? layer_ : end_to_end_) {
    w.Key(name);
    w.BeginObject();
    w.KV("value", std::isfinite(v.value) ? v.value : 0.0);
    w.KV("unit", v.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

void AwaitTurn(const Options& options) {
  if (!options.turns) return;
  std::fputs("yield\n", stdout);
  std::fflush(stdout);
  std::string line;
  if (!std::getline(std::cin, line) || line != "go") {
    // run.py has gone: leave without the result line.
    std::fprintf(stderr, "obdabench: lost the turn protocol\n");
    std::_Exit(3);
  }
}

int Tracer::Begin(const char* name, int parent, long request) {
  if (!enabled_) return -1;
  const double now = MsSince(origin_);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, now, -1, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int id) {
  if (id < 0) return;
  const double now = MsSince(origin_);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end_ms = now;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    owlqr::JsonWriter w;
    w.BeginObject();
    w.KV("id", static_cast<long>(i));
    w.KV("name", std::string(s.name));
    w.KV("start_ms", s.start_ms);
    w.KV("end_ms", s.end_ms);
    w.KV("parent", static_cast<long>(s.parent));
    w.KV("request", s.request);
    w.EndObject();
    out << w.TakeString() << '\n';
  }
  return static_cast<bool>(out);
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  if (rank == 0) rank = 1;
  return values[std::min(rank, values.size()) - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

uint64_t AnswerHash(std::vector<std::vector<int>> answers) {
  std::sort(answers.begin(), answers.end());
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  mix(answers.size());
  for (const auto& tuple : answers) {
    mix(tuple.size());
    for (int v : tuple) mix(static_cast<uint32_t>(v));
  }
  return h;
}

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.minor_faults = ru.ru_minflt;
  u.user_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6;
  u.sys_s = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6;
  u.max_rss_mb = ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux.
  return u;
}

void SetProcLayer(const Usage& before, const Usage& after, long ops,
                  Report* report) {
  const double cpu = (after.user_s - before.user_s) +
                     (after.sys_s - before.sys_s);
  report->SetLayer("proc.minor_faults_per_op",
                   ops > 0 ? static_cast<double>(after.minor_faults -
                                                 before.minor_faults) /
                                 static_cast<double>(ops)
                           : 0,
                   "faults");
  report->SetLayer("proc.sys_cpu_share",
                   cpu > 0 ? (after.sys_s - before.sys_s) / cpu : 0,
                   "share");
}

void SetNdlCountLayer(const std::vector<owlqr::EvaluationStats>& stats,
                      Report* report) {
  const double n = stats.empty() ? 1 : static_cast<double>(stats.size());
  double generated = 0, emissions = 0, goal = 0, index_builds = 0,
         batch_rows = 0, batch_probes = 0, tasks = 0, morsels = 0,
         steals = 0, slowest = 0, high_water = 0;
  for (const owlqr::EvaluationStats& s : stats) {
    generated += s.generated_tuples;
    emissions += s.join_emissions;
    goal += s.goal_tuples;
    index_builds += s.index_builds;
    batch_rows += s.batch_rows;
    batch_probes += s.batch_probes;
    tasks += s.scheduler_tasks;
    morsels += s.morsels;
    steals += s.steals;
    slowest += s.slowest_task_ms;
    high_water = std::max(high_water, static_cast<double>(s.memory_high_water));
  }
  report->SetLayer("ndl.generated_tuples", generated / n, "tuples/op");
  report->SetLayer("ndl.join_emissions", emissions / n, "emissions/op");
  report->SetLayer("ndl.goal_tuples", goal / n, "tuples/op");
  report->SetLayer("ndl.answer_yield", generated > 0 ? goal / generated : 0,
                   "share");
  report->SetLayer("ndl.index_builds", index_builds / n, "builds/op");
  report->SetLayer("ndl.batch_rows", batch_rows / n, "rows/op");
  report->SetLayer("ndl.batch_probes", batch_probes / n, "probes/op");
  report->SetLayer("ndl.scheduler_tasks", tasks / n, "tasks/op");
  report->SetLayer("ndl.morsels", morsels / n, "morsels/op");
  report->SetLayer("ndl.steals", steals / n, "steals/op");
  report->SetLayer("ndl.slowest_task_ms", slowest / n, "ms");
  report->SetLayer("ndl.memory_high_water_mb", high_water / (1024.0 * 1024.0),
                   "MB");
}

}  // namespace obdabench
