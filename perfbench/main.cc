// perfbench: one end-to-end benchmark over the mdmatch library's public
// API. Usage (normally through run.py, which builds this binary first):
//
//   perfbench --workload <batch_rules|batch_fs|stream_churn> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-out <file>]
//
// The last stdout line is one JSON object: correct, attempted, failed and
// the metrics — the end-to-end metrics untraced, the per-layer metrics
// traced. See README.md.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

using perfbench::LayerMetrics;

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every traced run prints all of these; a layer a workload does not
// exercise reads 0 there (README.md maps metrics to workloads).
constexpr LayerMetric kLayerMetrics[] = {
    {"core.find_rcks_s", "s"},
    {"core.closure_calls", "count"},
    {"api.plan_build_s", "s"},
    {"match.fs_train_s", "s"},
    {"candidate.window_s", "s"},
    {"candidate.pairs", "count"},
    {"candidate.pairs_per_record", "pairs/record"},
    {"match.profile_s", "s"},
    {"match.eval_s", "s"},
    {"match.pairs_per_s", "pairs/s"},
    {"match.matches", "count"},
    {"match.match_ratio", "ratio"},
    {"sim.dl_s", "s"},
    {"sim.dl_calls", "count"},
    {"api.executor.run_s", "s"},
    {"api.executor.candidate_s", "s"},
    {"api.executor.match_s", "s"},
    {"api.executor.quality_s", "s"},
    {"api.executor.unattributed_s", "s"},
    {"match.strips", "count"},
    {"match.simd_lanes", "count"},
    {"api.session.upsert_s", "s"},
    {"api.session.flush_s", "s"},
    {"api.session.merge_s", "s"},
    {"api.session.scan_s", "s"},
    {"api.session.eval_s", "s"},
    {"api.session.rerank_s", "s"},
    {"api.session.cluster_s", "s"},
    {"api.session.publish_s", "s"},
    {"api.session.publish_bytes", "bytes"},
    {"api.session.pairs_evaluated", "count"},
    {"api.session.matches_added", "count"},
    {"api.session.matches_dropped", "count"},
    {"api.session.unattributed_s", "s"},
    {"stream.diff_s", "s"},
    {"stream.flushes", "count"},
    {"stream.ops_per_flush", "ops/flush"},
    {"stream.coalesced", "count"},
    {"stream.queue_depth_max", "ops"},
    {"stream.deltas_delivered", "count"},
    {"stream.resyncs", "count"},
    {"stream.generator_late_ms", "ms"},
    {"stream.delta_p99_ms", "ms"},
    {"api.view.query_us", "us"},
    {"api.view.query_per_s", "queries/s"},
    {"trace.overhead_pct", "%"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<batch_rules|batch_fs|stream_churn> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-out <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (!(args.seconds > 0 && args.seconds <= 600)) {
    return Usage("--seconds must be in (0, 600]");
  }

  perfbench::Outcome out;
  LayerMetrics layers;
  if (args.workload == "batch_rules") {
    perfbench::RunBatch(args, /*fs=*/false, &out, &layers);
  } else if (args.workload == "batch_fs") {
    perfbench::RunBatch(args, /*fs=*/true, &out, &layers);
  } else if (args.workload == "stream_churn") {
    perfbench::RunStream(args, &out, &layers);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }

  if (args.trace) {
    for (const LayerMetric& m : kLayerMetrics) {
      auto it = layers.find(m.name);
      out.Add(m.name, it == layers.end() ? 0.0 : it->second, m.unit);
      if (it != layers.end()) layers.erase(it);
    }
    for (const auto& [name, value] : layers) {
      out.Fail("workload produced unlisted metric " + name);
    }
  }
  if (out.attempted == 0) out.Fail("no operation was attempted");
  out.Print();
  return 0;
}
