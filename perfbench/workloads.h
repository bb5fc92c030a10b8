#ifndef MDMATCH_PERFBENCH_WORKLOADS_H_
#define MDMATCH_PERFBENCH_WORKLOADS_H_

#include <map>
#include <string>
#include <vector>

#include "api/executor.h"
#include "common.h"
#include "reference.h"

namespace perfbench {

/// Per-layer metric values of a traced run, by metric name.
using LayerMetrics = std::map<std::string, double>;

/// The batch workloads: a closed loop of Executor::Run over the whole
/// corpus under the rule plan (batch_rules) or the FS plan (batch_fs).
void RunBatch(const Args& args, bool fs, Outcome* out, LayerMetrics* layers);

/// The stream_churn workload (see stream.cc).
void RunStream(const Args& args, Outcome* out, LayerMetrics* layers);

/// Traced runs: calls core (findRCKs), match (FS training, profiles, the
/// compiled evaluator), candidate (windowing) and sim (θ-DL) directly over
/// `corpus`, each inside a span, and fills their per-layer metrics.
void ProbeLayers(const PaperSetup& setup, const mdmatch::Instance& corpus,
                 Tracer* tracer, Outcome* out, LayerMetrics* layers);

/// Accumulates Executor::Run reports of traced runs into the api.executor
/// and match batch-path metrics.
class ExecutorTrace {
 public:
  /// One Run over `corpus` inside an api.executor.run span; returns its
  /// wall seconds, or a negative value when Run failed.
  double Run(const mdmatch::api::Executor& executor,
             const mdmatch::Instance& corpus, Tracer* tracer);
  void Fill(Tracer* tracer, LayerMetrics* layers) const;

 private:
  size_t runs_ = 0;
  double candidate_ = 0;
  double match_ = 0;
  double other_stages_ = 0;  ///< closure + ground-truth quality
  size_t strips_ = 0;
  size_t simd_lanes_ = 0;
};

/// Runs the reference checker and its self-test over one result; records
/// a failure in `out` for either. Prints what the check looked at.
void CheckAgainstReference(const mdmatch::api::MatchPlan& plan,
                           const mdmatch::Instance& corpus,
                           const std::vector<ReferenceChecker::Pair>& matches,
                           uint64_t seed, Outcome* out);

}  // namespace perfbench

#endif  // MDMATCH_PERFBENCH_WORKLOADS_H_
