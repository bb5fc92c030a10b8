#ifndef MDMATCH_PERFBENCH_REFERENCE_H_
#define MDMATCH_PERFBENCH_REFERENCE_H_

// The benchmark's reference checker: an evaluation of the plan's rules
// made apart from the program's candidate generators and evaluators, used
// to check every run's matches.

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "api/plan.h"
#include "schema/instance.h"

namespace perfbench {

/// Unrestricted Damerau-Levenshtein distance from its definition (the
/// Lowrance-Wagner recurrence over the full matrix).
size_t ReferenceDlDistance(std::string_view a, std::string_view b);

/// θ-DL similarity from its definition: equal strings are similar, and
/// otherwise dist(a, b) <= floor((1 - θ) * max(|a|, |b|)).
bool ReferenceDlSimilar(std::string_view a, std::string_view b, double theta);

/// What one check looked at.
struct ReferenceCounts {
  size_t candidates = 0;       ///< reference windowing candidate pairs
  size_t reported = 0;         ///< program matches checked for soundness
  size_t sampled = 0;          ///< candidates in the completeness sample
  size_t sampled_matches = 0;  ///< of those, reference matches
};

/// \brief Checks a match result against the plan's own definition.
///
/// Candidates are enumerated here: per windowing pass, the rendered keys
/// of all records (left then right) are sorted stably and every
/// cross-relation pair fewer than w ranks apart is a candidate. Decisions
/// come from plan.rules() (any rule whose conjuncts all hold) or from
/// plan.fs()->model() (log2 agreement/disagreement weights summed in
/// vector order against the MAP threshold), with θ-DL atoms evaluated by
/// ReferenceDlSimilar.
class ReferenceChecker {
 public:
  using Pair = std::pair<uint32_t, uint32_t>;

  /// Both references must outlive the checker.
  ReferenceChecker(const mdmatch::api::MatchPlan& plan,
                   const mdmatch::Instance& corpus);

  /// Empty when the plan is outside what the reference implements.
  const std::string& unsupported() const { return unsupported_; }

  /// The reference decision for (left position, right position).
  bool Decide(uint32_t left, uint32_t right) const;

  /// Soundness: every reported pair is a reference candidate that the
  /// reference decides as a match. Completeness: every reference match in
  /// a `sample_size` sample of the candidates, drawn from `seed`, is
  /// reported. Returns "" when both hold, else the first violation.
  std::string Check(const std::vector<Pair>& reported, uint64_t seed,
                    size_t sample_size, ReferenceCounts* counts) const;

  /// Feeds Check the program's result with one decision perturbed each
  /// way — a non-match added, a sampled match dropped — and returns ""
  /// only when Check rejects both.
  std::string SelfTest(const std::vector<Pair>& reported, uint64_t seed,
                       size_t sample_size) const;

 private:
  bool AtomHolds(const mdmatch::Conjunct& atom, const mdmatch::Tuple& left,
                 const mdmatch::Tuple& right) const;
  std::vector<Pair> Sample(uint64_t seed, size_t sample_size) const;

  const mdmatch::api::MatchPlan& plan_;
  const mdmatch::Instance& corpus_;
  std::string unsupported_;
  std::vector<Pair> candidates_;  ///< sorted
  std::unordered_set<uint64_t> candidate_set_;
  std::vector<double> agree_weight_;
  std::vector<double> disagree_weight_;
  double threshold_ = 0;
};

}  // namespace perfbench

#endif  // MDMATCH_PERFBENCH_REFERENCE_H_
