// warm_parallel: prepared plans executed over and over with 4 evaluator
// workers and the answer cache off.  The plans are the heaviest ds3 Log and
// Tw cells that complete within the tuple budget, so one query runs on
// several workers and the DAG scheduler, morsels and stealing are measured.
// Rewriting does no work here.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "engine/engine.h"
#include "workloads/paper_workloads.h"

namespace obdabench {
namespace {

using owlqr::RewriterKind;

constexpr int kWorkers = 4;

struct WarmPlan {
  const char* sequence;
  int len;
  RewriterKind kind;
};

// The ten slowest ds3 Log/Tw cells at scale 0.1 that paper_cold keeps
// (README.md lists their sizes).
const WarmPlan kWarmPlans[] = {
    {owlqr::kSequence2, 6, RewriterKind::kLog},
    {owlqr::kSequence3, 14, RewriterKind::kTw},
    {owlqr::kSequence1, 14, RewriterKind::kTw},
    {owlqr::kSequence2, 8, RewriterKind::kTw},
    {owlqr::kSequence1, 13, RewriterKind::kTw},
    {owlqr::kSequence1, 9, RewriterKind::kLog},
    {owlqr::kSequence1, 9, RewriterKind::kTw},
    {owlqr::kSequence2, 11, RewriterKind::kLog},
    {owlqr::kSequence3, 15, RewriterKind::kTw},
    {owlqr::kSequence2, 7, RewriterKind::kTw},
};

struct Reference {
  uint64_t answer_hash = 0;
  size_t answers = 0;
  long generated_tuples = 0;
  long join_emissions = 0;
};

// No tuple budget: every plan completes at 1 worker, and the budget's
// parallel accounting aborts one of them at 4 (see CHANGES.md).
owlqr::ExecuteRequest WarmRequest(int threads) {
  owlqr::ExecuteRequest request;
  request.num_threads = threads;
  return request;
}

}  // namespace

void RunWarmParallel(const Options& options, Tracer* tracer, Report* report) {
  Rng rng(options.seed * 0xd1b54a32d192ed03ull + 5);
  owlqr::Vocabulary vocab;
  std::unique_ptr<owlqr::TBox> tbox = owlqr::MakeExample11TBox(&vocab);
  std::vector<owlqr::DatasetConfig> configs = owlqr::Table2Configs(0.1);
  owlqr::DatasetConfig config = configs[2];  // ds3
  owlqr::Engine engine(*tbox, owlqr::GenerateDataset(&vocab, *tbox, config));

  std::vector<std::shared_ptr<const owlqr::PreparedQuery>> plans;
  for (const WarmPlan& p : kWarmPlans) {
    owlqr::PrepareOptions prepare;
    prepare.auto_kind = false;
    prepare.kind = p.kind;
    owlqr::PrepareResult r = engine.Prepare(
        owlqr::SequenceQuery(&vocab,
                             std::string(p.sequence, 0,
                                         static_cast<size_t>(p.len))),
        prepare);
    if (!r.ok()) {
      report->CheckFailed("warm_parallel: prepare failed: " +
                          r.status.ToString());
      return;
    }
    plans.push_back(r.query);
  }
  // Warm-up: one 4-worker execution per plan fills the join-order hints.
  for (const auto& plan : plans) engine.Execute(*plan, WarmRequest(kWorkers));

  std::vector<size_t> order(plans.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<double> latency_ms;
  std::vector<owlqr::EvaluationStats> stats;
  std::vector<size_t> stats_plan;
  std::vector<std::vector<std::vector<int>>> first_answers(plans.size());
  long attempted = 0, failed = 0;
  double wall_ms = 0;  // Active time, summed over the slices.

  const Usage usage_before = ReadUsage();
  if (options.main) {
    report->SetEndToEnd(
        "setup_s",
        std::chrono::duration<double>(Clock::now() - options.process_start)
            .count(),
        "s");
  }
  AwaitTurn(options);
  // A companion runs one round per slice; the main phase at least one, and
  // more while its active time is short of the slice's share of --seconds.
  int round = 0;
  for (int slice = 0; slice < options.slices; ++slice) {
    const Clock::time_point slice_start = Clock::now();
    do {
      rng.Shuffle(&order);
      for (size_t i : order) {
        SpanScope span(tracer, "engine.execute", -1, attempted);
        const Clock::time_point t = Clock::now();
        owlqr::ExecuteResult result =
            engine.Execute(*plans[i], WarmRequest(kWorkers));
        latency_ms.push_back(MsSince(t));
        ++attempted;
        if (!result.status.ok() || result.partial || result.stats.aborted) {
          ++failed;
          std::fprintf(stderr,
                       "warm_parallel: plan %zu failed: %s partial=%d "
                       "generated=%ld\n",
                       i, result.status.ToString().c_str(), result.partial,
                       result.stats.generated_tuples);
        }
        stats.push_back(result.stats);
        stats_plan.push_back(i);
        if (round == 0) first_answers[i] = std::move(result.answers);
      }
      ++round;
    } while (options.main && !options.smoke &&
             wall_ms + MsSince(slice_start) < SliceEndMs(options, slice));
    wall_ms += MsSince(slice_start);
    AwaitTurn(options);
  }
  const Usage usage_after = ReadUsage();
  // Like setup_s, the peak resident set is the main phase's own, taken
  // before the output checks, which are not the workload's.
  if (options.main) {
    report->SetEndToEnd("peak_rss_mb", usage_after.max_rss_mb, "MB");
  }
  report->AddOps(attempted, failed);
  report->SetEndToEnd("warm_exec_per_s", attempted / (wall_ms / 1e3),
                      "exec/s");
  report->SetEndToEnd("warm_exec_p50_ms", Median(latency_ms), "ms");

  // --- Output checks: every 4-worker execution equals the plan's 1-worker
  // run in answers, generated_tuples and join_emissions, which the
  // evaluator documents as independent of the worker count.
  std::vector<Reference> reference(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    owlqr::ExecuteResult r = engine.Execute(*plans[i], WarmRequest(1));
    reference[i].answers = r.answers.size();
    reference[i].answer_hash = AnswerHash(std::move(r.answers));
    reference[i].generated_tuples = r.stats.generated_tuples;
    reference[i].join_emissions = r.stats.join_emissions;
    report->Check(AnswerHash(first_answers[i]) == reference[i].answer_hash,
                  "warm_parallel: plan " + std::to_string(i) +
                      " answers differ between 4 workers and 1");
  }
  for (size_t k = 0; k < stats.size(); ++k) {
    const Reference& ref = reference[stats_plan[k]];
    report->Check(stats[k].goal_tuples == static_cast<long>(ref.answers) &&
                      stats[k].generated_tuples == ref.generated_tuples &&
                      stats[k].join_emissions == ref.join_emissions,
                  "warm_parallel: plan " + std::to_string(stats_plan[k]) +
                      " counts differ between 4 workers and 1");
  }

  // --- Per-layer metrics ---------------------------------------------------
  SetNdlCountLayer(stats, report);
  SetProcLayer(usage_before, usage_after, attempted, report);
  if (!tracer->enabled()) return;
  // Self times below Engine::Execute: replay every plan through
  // Evaluator::Run on the engine's pinned snapshot, at 4 workers and at 1,
  // and through Engine::Execute at 4.
  std::shared_ptr<const owlqr::DataSnapshot> snap = engine.snapshot();
  std::vector<double> run4, run1, overhead;
  for (size_t i = 0; i < plans.size(); ++i) {
    std::vector<double> r4, r1, ex;
    for (int rep = 0; rep < 3; ++rep) {
      for (int threads : {kWorkers, 1}) {
        owlqr::Evaluator eval(plans[i]->program(), snap);
        eval.set_join_order_hints(plans[i]->join_order_hints());
        SpanScope span(tracer, "ndl.run", -1, static_cast<long>(i));
        const Clock::time_point t = Clock::now();
        eval.Run(WarmRequest(threads));
        (threads == 1 ? r1 : r4).push_back(MsSince(t));
      }
      SpanScope span(tracer, "engine.execute", -1, static_cast<long>(i));
      const Clock::time_point t = Clock::now();
      engine.Execute(*plans[i], WarmRequest(kWorkers));
      ex.push_back(MsSince(t));
    }
    run4.push_back(Median(r4));
    run1.push_back(Median(r1));
    overhead.push_back(Median(ex) - Median(r4));
  }
  report->SetLayer("ndl.run_ms", Mean(run4), "ms");
  report->SetLayer("ndl.run_t1_ms", Mean(run1), "ms");
  report->SetLayer("engine.execute_overhead_ms", Mean(overhead), "ms");
}

}  // namespace obdabench
