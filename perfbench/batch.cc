// batch_rules / batch_fs: a closed loop of Executor::Run over the whole
// generated corpus, one thread, the program's default executor options.

#include <cstdio>

#include "workloads.h"

namespace perfbench {

using namespace mdmatch;

namespace {

// K base tuples per relation: 18,000 records in all. One Run takes
// 0.1-0.2 s, so a 20 s run times a hundred or more; the corpus is large
// enough that candidate windowing and θ-DL evaluation, not per-Run fixed
// costs, dominate.
constexpr size_t kBatchK = 5000;

}  // namespace

void RunBatch(const Args& args, bool fs, Outcome* out, LayerMetrics* layers) {
  Tracer tracer(args.trace);
  PaperSetup setup;
  Status built = MakePaperSetup(kBatchK, args.seed, fs, &tracer, &setup);
  if (!built.ok()) {
    out->Fail("plan build: " + built.ToString());
    return;
  }
  const double setup_s = Now() - ProcessStart();
  const Instance& corpus = setup.data.instance;
  const size_t records = corpus.left().size() + corpus.right().size();
  api::Executor executor(setup.plan);

  // Untraced Runs for the whole run. A traced run alternates them with
  // traced Runs, so the host's slow periods fall on both alike and the
  // ratio of the fastest of each is the tracing overhead.
  std::vector<double> walls;
  std::vector<std::pair<uint32_t, uint32_t>> matches;
  api::ExecutionReport first;
  auto run_once = [&] {
    const double start = Now();
    auto report = executor.Run(corpus);
    walls.push_back(Now() - start);
    ++out->attempted;
    if (!report.ok()) {
      ++out->failed;
    } else if (matches.empty()) {
      matches = report->matches.pairs();
      first = std::move(*report);
    } else if (report->matches.pairs() != matches) {
      out->Fail("Executor::Run is not deterministic across Runs");
    }
  };
  ExecutorTrace executor_trace;
  std::vector<double> traced_walls;
  const double until = Now() + args.seconds;
  do {
    run_once();
    if (!args.trace) continue;
    const double wall = executor_trace.Run(executor, corpus, &tracer);
    ++out->attempted;
    if (wall < 0) {
      ++out->failed;
    } else {
      traced_walls.push_back(wall);
    }
  } while (Now() < until);
  const double peak_rss_mb = PeakRssMb();
  // Best of N: the host this runs on alternates between fast and slow
  // periods of a few seconds that move the median Run by up to 1.7x; the
  // fastest Run of the loop is the steady estimate of the program's cost.
  const double best_s = Percentile(walls, 0);

  std::printf("%s: %zu records, %zu Runs, best %.4f median %.4f max %.4f s; "
              "%zu candidates, %zu matches; precision %.4f recall %.4f "
              "F1 %.4f\n",
              fs ? "batch_fs" : "batch_rules", records, walls.size(), best_s,
              Percentile(walls, 0.5), Percentile(walls, 1),
              first.candidates.size(), first.matches.size(),
              first.match_quality.precision, first.match_quality.recall,
              first.match_quality.f1);
  CheckAgainstReference(*setup.plan, corpus, matches, args.seed, out);

  if (!args.trace) {
    out->Add("setup_s", setup_s, "s");
    out->Add("peak_rss_mb", peak_rss_mb, "MB");
    out->Add("records_per_s", static_cast<double>(records) / best_s,
             "records/s");
    out->Add("result_latency_ms", best_s * 1e3, "ms");
    return;
  }

  ProbeLayers(setup, corpus, &tracer, out, layers);
  executor_trace.Fill(&tracer, layers);
  (*layers)["trace.overhead_pct"] =
      (Percentile(traced_walls, 0) / best_s - 1.0) * 100.0;
  if (!args.spans_out.empty() && !tracer.Write(args.spans_out)) {
    out->Fail("cannot write spans to " + args.spans_out);
  }
}

}  // namespace perfbench
