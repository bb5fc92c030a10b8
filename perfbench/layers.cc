// Traced calls into the layers below the api, and the reference check
// every workload runs.

#include <cstdio>
#include <set>

#include "candidate/windowing.h"
#include "core/find_rcks.h"
#include "match/fellegi_sunter.h"
#include "sim/edit_distance.h"
#include "workloads.h"

namespace perfbench {

using namespace mdmatch;

namespace {

// Candidate pairs the reference decides for its completeness sample.
constexpr size_t kReferenceSample = 20000;

}  // namespace

void ProbeLayers(const PaperSetup& setup, const Instance& corpus,
                 Tracer* tracer, Outcome* out, LayerMetrics* layers) {
  const api::MatchPlan& plan = *setup.plan;

  // core: the deduction Build ran, repeated from the same inputs.
  QualityModel quality = PaperQuality(setup.data);
  quality.EstimateLengthsFromData(setup.data.instance, plan.sigma(),
                                  plan.target());
  FindRcksOptions find_options;
  find_options.m = plan.options().num_rcks;
  FindRcksResult found;
  {
    Tracer::Scope span(tracer, "core.find_rcks");
    found = FindRcks(plan.pair(), plan.ops(), plan.sigma(), plan.target(),
                     find_options, &quality);
  }
  (*layers)["core.closure_calls"] = static_cast<double>(found.closure_calls);

  // match: FS training, repeated from the same vector and training data.
  if (plan.fs() != nullptr) {
    match::FellegiSunter fs(plan.fs()->vector(), plan.options().fs_options);
    Tracer::Scope span(tracer, "match.fs_train");
    Status trained = fs.Train(setup.data.instance, plan.ops());
    if (!trained.ok()) out->Fail("FS training: " + trained.ToString());
  }

  // candidate: the windowing passes over the corpus.
  match::CandidateSet candidates;
  {
    Tracer::Scope span(tracer, "candidate.window");
    candidates = candidate::WindowCandidatesMultiPass(
        corpus, plan.sort_keys(), plan.options().window_size);
  }
  const auto& pairs = candidates.pairs();
  const double records =
      static_cast<double>(corpus.left().size() + corpus.right().size());

  // match: per-record profiles, then the compiled decision per pair.
  const match::CompiledEvaluator& evaluator = plan.evaluator();
  std::vector<match::RecordProfile> profiles[2];
  {
    Tracer::Scope span(tracer, "match.profile");
    for (int side = 0; side < 2 && evaluator.needs_profiles(); ++side) {
      const Relation& rel = corpus.side(side);
      for (size_t i = 0; i < rel.size(); ++i) {
        profiles[side].push_back(evaluator.ProfileRecord(rel.tuple(i), side));
      }
    }
  }
  size_t matches = 0;
  {
    Tracer::Scope span(tracer, "match.eval");
    for (const auto& [l, r] : pairs) {
      matches += evaluator.Matches(
          corpus.left().tuple(l), corpus.right().tuple(r),
          profiles[0].empty() ? nullptr : &profiles[0][l],
          profiles[1].empty() ? nullptr : &profiles[1][r]);
    }
  }

  // sim: the θ-DL kernel on every DL atom of the basis for every pair —
  // the work a non-short-circuiting evaluator would hand the sim layer.
  std::set<Conjunct> dl_atoms;
  auto collect = [&](const std::vector<Conjunct>& atoms) {
    for (const Conjunct& c : atoms) {
      if (plan.ops().Info(c.op).kind == sim::SimOpKind::kDl) {
        dl_atoms.insert(c);
      }
    }
  };
  if (plan.fs() != nullptr) {
    collect(plan.fs()->vector().elements());
  } else {
    for (const auto& rule : plan.rules()) collect(rule.elements());
  }
  size_t dl_calls = 0;
  size_t dl_similar = 0;
  {
    Tracer::Scope span(tracer, "sim.dl");
    for (const auto& [l, r] : pairs) {
      for (const Conjunct& c : dl_atoms) {
        dl_similar +=
            sim::DlSimilar(corpus.left().tuple(l).value(c.attrs.left),
                           corpus.right().tuple(r).value(c.attrs.right),
                           plan.ops().Info(c.op).threshold);
        ++dl_calls;
      }
    }
  }
  std::printf("sim.dl: %zu of %zu calls similar\n", dl_similar, dl_calls);

  const auto self = tracer->SelfSeconds();
  auto seconds = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  (*layers)["core.find_rcks_s"] = seconds("core.find_rcks");
  (*layers)["api.plan_build_s"] = seconds("api.plan_build");
  (*layers)["match.fs_train_s"] = seconds("match.fs_train");
  (*layers)["candidate.window_s"] = seconds("candidate.window");
  (*layers)["candidate.pairs"] = static_cast<double>(pairs.size());
  (*layers)["candidate.pairs_per_record"] =
      static_cast<double>(pairs.size()) / records;
  (*layers)["match.profile_s"] = seconds("match.profile");
  (*layers)["match.eval_s"] = seconds("match.eval");
  (*layers)["match.pairs_per_s"] =
      static_cast<double>(pairs.size()) / seconds("match.eval");
  (*layers)["match.matches"] = static_cast<double>(matches);
  (*layers)["match.match_ratio"] =
      pairs.empty() ? 0 : static_cast<double>(matches) / pairs.size();
  (*layers)["sim.dl_s"] = seconds("sim.dl");
  (*layers)["sim.dl_calls"] = static_cast<double>(dl_calls);
}

double ExecutorTrace::Run(const api::Executor& executor,
                          const Instance& corpus, Tracer* tracer) {
  const double start = Now();
  Result<api::ExecutionReport> report = [&] {
    Tracer::Scope span(tracer, "api.executor.run");
    return executor.Run(corpus);
  }();
  const double wall = Now() - start;
  if (!report.ok()) return -1;
  ++runs_;
  candidate_ += report->timings.candidate_seconds;
  match_ += report->timings.match_seconds;
  other_stages_ +=
      report->timings.closure_seconds + report->timings.evaluate_seconds;
  strips_ = report->strips;
  simd_lanes_ = report->simd_lanes_evaluated;
  return wall;
}

void ExecutorTrace::Fill(Tracer* tracer, LayerMetrics* layers) const {
  if (runs_ == 0) return;
  const double n = static_cast<double>(runs_);
  const double run = tracer->TotalSeconds()["api.executor.run"] / n;
  (*layers)["api.executor.run_s"] = run;
  (*layers)["api.executor.candidate_s"] = candidate_ / n;
  (*layers)["api.executor.match_s"] = match_ / n;
  (*layers)["api.executor.quality_s"] = other_stages_ / n;
  (*layers)["api.executor.unattributed_s"] =
      run - (candidate_ + match_ + other_stages_) / n;
  (*layers)["match.strips"] = static_cast<double>(strips_);
  (*layers)["match.simd_lanes"] = static_cast<double>(simd_lanes_);
}

void CheckAgainstReference(const api::MatchPlan& plan, const Instance& corpus,
                           const std::vector<ReferenceChecker::Pair>& matches,
                           uint64_t seed, Outcome* out) {
  const double start = Now();
  ReferenceChecker reference(plan, corpus);
  ReferenceCounts counts;
  const std::string error =
      reference.Check(matches, seed, kReferenceSample, &counts);
  if (!error.empty()) out->Fail("reference: " + error);
  const std::string self_test =
      reference.SelfTest(matches, seed, kReferenceSample);
  if (!self_test.empty()) out->Fail("reference " + self_test);
  std::printf(
      "reference: %zu candidates, %zu reported matches sound, %zu of %zu "
      "sampled candidates are matches and reported; self-test %s (%.2fs)\n",
      counts.candidates, counts.reported, counts.sampled_matches,
      counts.sampled,
      self_test.empty() ? "rejected both perturbations" : "FAILED",
      Now() - start);
}

}  // namespace perfbench
