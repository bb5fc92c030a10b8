#include "reference.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common.h"

namespace perfbench {

using mdmatch::Conjunct;
using mdmatch::Tuple;

namespace {

uint64_t Key(uint32_t l, uint32_t r) {
  return (static_cast<uint64_t>(l) << 32) | r;
}

// The FS model's probability clamp: probabilities are kept inside
// [1e-5, 1 - 1e-5] before they enter a log-ratio weight.
double ClampProbability(double p) {
  return std::min(1.0 - 1e-5, std::max(1e-5, p));
}

}  // namespace

size_t ReferenceDlDistance(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  const size_t inf = n + m;
  // d[i + 1][j + 1] is the distance between a[0, i) and b[0, j); row and
  // column 0 hold the sentinel.
  std::vector<size_t> d((n + 2) * (m + 2), 0);
  auto at = [&](size_t i, size_t j) -> size_t& {
    return d[i * (m + 2) + j];
  };
  at(0, 0) = inf;
  for (size_t i = 0; i <= n; ++i) {
    at(i + 1, 0) = inf;
    at(i + 1, 1) = i;
  }
  for (size_t j = 0; j <= m; ++j) {
    at(0, j + 1) = inf;
    at(1, j + 1) = j;
  }
  std::array<size_t, 256> last_row{};  // last row where a character occurred
  for (size_t i = 1; i <= n; ++i) {
    size_t last_match_col = 0;
    for (size_t j = 1; j <= m; ++j) {
      const size_t i1 = last_row[static_cast<unsigned char>(b[j - 1])];
      const size_t j1 = last_match_col;
      const size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
      if (cost == 0) last_match_col = j;
      const size_t transpose = at(i1, j1) + (i - i1 - 1) + 1 + (j - j1 - 1);
      at(i + 1, j + 1) = std::min(
          {at(i, j) + cost, at(i + 1, j) + 1, at(i, j + 1) + 1, transpose});
    }
    last_row[static_cast<unsigned char>(a[i - 1])] = i;
  }
  return at(n + 1, m + 1);
}

bool ReferenceDlSimilar(std::string_view a, std::string_view b, double theta) {
  if (a == b) return true;
  const double longest = static_cast<double>(std::max(a.size(), b.size()));
  // The allowance is a real number and the distance an integer, so the
  // comparison is against its floor; the epsilon keeps (1 - 0.8) * 5 at
  // exactly one edit.
  const double allowance = std::floor((1.0 - theta) * longest + 1e-9);
  return static_cast<double>(ReferenceDlDistance(a, b)) <= allowance;
}

ReferenceChecker::ReferenceChecker(const mdmatch::api::MatchPlan& plan,
                                   const mdmatch::Instance& corpus)
    : plan_(plan), corpus_(corpus) {
  using mdmatch::api::PlanOptions;
  if (plan.options().candidates != PlanOptions::Candidates::kWindowing) {
    unsupported_ = "reference enumerates windowing candidates only";
    return;
  }
  if (plan.options().transitive_closure) {
    unsupported_ = "reference has no transitive closure";
    return;
  }
  auto check_ops = [&](const std::vector<Conjunct>& atoms) {
    for (const Conjunct& c : atoms) {
      const auto kind = plan.ops().Info(c.op).kind;
      if (kind != mdmatch::sim::SimOpKind::kEquality &&
          kind != mdmatch::sim::SimOpKind::kDl) {
        unsupported_ = "reference implements = and θ-DL atoms only";
      }
    }
  };
  if (plan.fs() != nullptr) {
    const auto& model = plan.fs()->model();
    const size_t width = plan.fs()->vector().size();
    check_ops(plan.fs()->vector().elements());
    if (model.m.size() != width || model.u.size() != width) {
      unsupported_ = "FS model width differs from its vector";
      return;
    }
    for (size_t i = 0; i < width; ++i) {
      const double m = ClampProbability(model.m[i]);
      const double u = ClampProbability(model.u[i]);
      agree_weight_.push_back(std::log2(m / u));
      disagree_weight_.push_back(std::log2((1.0 - m) / (1.0 - u)));
    }
    const auto& fixed = plan.options().fs_options.match_threshold;
    const double p = ClampProbability(model.p);
    threshold_ = fixed.has_value() ? *fixed : std::log2((1.0 - p) / p);
  } else {
    for (const auto& rule : plan.rules()) check_ops(rule.elements());
  }
  if (!unsupported_.empty()) return;

  const size_t nl = corpus.left().size();
  const size_t n = nl + corpus.right().size();
  const size_t w = plan.options().window_size;
  std::vector<std::pair<std::string, uint32_t>> ranked(n);
  for (const auto& pass : plan.sort_keys()) {
    for (uint32_t i = 0; i < n; ++i) {
      const bool left = i < nl;
      const Tuple& t =
          left ? corpus.left().tuple(i) : corpus.right().tuple(i - nl);
      ranked[i] = {pass.Render(t, left ? 0 : 1), i};
    }
    std::stable_sort(
        ranked.begin(), ranked.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n && j < i + w; ++j) {
        const uint32_t a = ranked[i].second;
        const uint32_t b = ranked[j].second;
        if ((a < nl) == (b < nl)) continue;
        const uint32_t l = a < nl ? a : b;
        const uint32_t r = static_cast<uint32_t>((a < nl ? b : a) - nl);
        if (candidate_set_.insert(Key(l, r)).second) {
          candidates_.push_back({l, r});
        }
      }
    }
  }
  std::sort(candidates_.begin(), candidates_.end());
}

bool ReferenceChecker::AtomHolds(const Conjunct& atom, const Tuple& left,
                                 const Tuple& right) const {
  const std::string& a = left.value(atom.attrs.left);
  const std::string& b = right.value(atom.attrs.right);
  const auto& info = plan_.ops().Info(atom.op);
  if (info.kind == mdmatch::sim::SimOpKind::kEquality) return a == b;
  return ReferenceDlSimilar(a, b, info.threshold);
}

bool ReferenceChecker::Decide(uint32_t l, uint32_t r) const {
  const Tuple& left = corpus_.left().tuple(l);
  const Tuple& right = corpus_.right().tuple(r);
  if (plan_.fs() != nullptr) {
    const auto& atoms = plan_.fs()->vector().elements();
    double score = 0;
    for (size_t i = 0; i < atoms.size(); ++i) {
      score += AtomHolds(atoms[i], left, right) ? agree_weight_[i]
                                                : disagree_weight_[i];
    }
    return score >= threshold_;
  }
  for (const auto& rule : plan_.rules()) {
    bool all = true;
    for (const Conjunct& atom : rule.elements()) {
      if (!AtomHolds(atom, left, right)) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

std::vector<ReferenceChecker::Pair> ReferenceChecker::Sample(
    uint64_t seed, size_t sample_size) const {
  if (candidates_.size() <= sample_size) return candidates_;
  std::vector<Pair> out;
  SplitMix rng(seed ^ 0x5eedc0ffee);
  std::unordered_set<size_t> taken;
  while (out.size() < sample_size) {
    const size_t i = rng.Index(candidates_.size());
    if (taken.insert(i).second) out.push_back(candidates_[i]);
  }
  return out;
}

std::string ReferenceChecker::Check(const std::vector<Pair>& reported,
                                    uint64_t seed, size_t sample_size,
                                    ReferenceCounts* counts) const {
  if (!unsupported_.empty()) return unsupported_;
  ReferenceCounts local;
  local.candidates = candidates_.size();
  std::unordered_set<uint64_t> reported_set;
  for (const auto& [l, r] : reported) {
    if (l >= corpus_.left().size() || r >= corpus_.right().size()) {
      return "reported pair out of range";
    }
    if (!reported_set.insert(Key(l, r)).second) {
      return "pair reported twice: (" + std::to_string(l) + ", " +
             std::to_string(r) + ")";
    }
    if (candidate_set_.count(Key(l, r)) == 0) {
      return "reported pair (" + std::to_string(l) + ", " + std::to_string(r) +
             ") is no windowing candidate";
    }
    if (!Decide(l, r)) {
      return "reported pair (" + std::to_string(l) + ", " + std::to_string(r) +
             ") is no match under the plan";
    }
  }
  local.reported = reported.size();
  for (const auto& [l, r] : Sample(seed, sample_size)) {
    ++local.sampled;
    if (!Decide(l, r)) continue;
    ++local.sampled_matches;
    if (reported_set.count(Key(l, r)) == 0) {
      return "match (" + std::to_string(l) + ", " + std::to_string(r) +
             ") of the sample was not reported";
    }
  }
  if (counts != nullptr) *counts = local;
  return "";
}

std::string ReferenceChecker::SelfTest(const std::vector<Pair>& reported,
                                       uint64_t seed,
                                       size_t sample_size) const {
  if (!unsupported_.empty()) return unsupported_;
  std::unordered_set<uint64_t> reported_set;
  for (const auto& [l, r] : reported) reported_set.insert(Key(l, r));
  std::vector<Pair> sample = Sample(seed, sample_size);

  // A non-match turned into a match must break soundness.
  auto non_match =
      std::find_if(sample.begin(), sample.end(), [&](const Pair& p) {
        return reported_set.count(Key(p.first, p.second)) == 0 &&
               !Decide(p.first, p.second);
      });
  if (non_match == sample.end()) return "self-test: sample has no non-match";
  std::vector<Pair> added = reported;
  added.push_back(*non_match);
  if (Check(added, seed, sample_size, nullptr).empty()) {
    return "self-test: an added non-match passed the check";
  }

  // A sampled match turned into a non-match must break completeness.
  auto match = std::find_if(sample.begin(), sample.end(), [&](const Pair& p) {
    return reported_set.count(Key(p.first, p.second)) != 0;
  });
  if (match == sample.end()) return "self-test: sample has no reported match";
  std::vector<Pair> dropped;
  for (const Pair& p : reported) {
    if (p != *match) dropped.push_back(p);
  }
  if (Check(dropped, seed, sample_size, nullptr).empty()) {
    return "self-test: a dropped match passed the check";
  }
  return "";
}

}  // namespace perfbench
