#ifndef MDMATCH_PERFBENCH_COMMON_H_
#define MDMATCH_PERFBENCH_COMMON_H_

// Shared pieces of the perfbench binary: command-line arguments, the
// result line every run prints, the span tracer of traced runs, and the
// plan every workload compiles. See README.md for the workloads.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/plan.h"
#include "core/quality.h"
#include "datagen/credit_billing.h"
#include "sim/sim_op.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;  ///< where a traced run writes its spans ("" = none)
};

/// What one run reports: the last stdout line is this as JSON.
class Outcome {
 public:
  void Fail(const std::string& why);
  void Add(const std::string& name, double value, const std::string& unit);
  bool correct() const { return correct_; }
  /// Prints the human-readable lines, then the JSON result line.
  void Print() const;

  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  bool correct_ = true;
  std::vector<std::string> errors_;
  std::vector<Metric> metrics_;
};

/// Monotonic seconds, and the same clock's reading at process start (taken
/// during static initialization, before main).
double Now();
double ProcessStart();

/// Resident-set high-water mark of this process (getrusage ru_maxrss,
/// the same figure as VmHWM), in MB.
double PeakRssMb();

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

/// Deterministic generator for the benchmark's own choices (splitmix64),
/// independent of the library's Rng so a change there cannot move them.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  size_t Index(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

/// \brief Spans around the benchmark's calls into each layer.
///
/// A span has a name, a start, an end and the span that was open when it
/// started; spans of one traced request share the root's id. Spans are
/// kept in memory and written out at the end. A disabled tracer records
/// nothing, so one code path serves both modes.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    size_t index_ = 0;
  };

  bool enabled() const { return enabled_; }
  /// Self time per span name: each span's duration minus the time its
  /// child spans cover, summed over spans of that name.
  std::map<std::string, double> SelfSeconds() const;
  /// Total (inclusive) time per span name.
  std::map<std::string, double> TotalSeconds() const;
  /// Writes one JSON object per span to `path`; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int64_t parent = -1;
    size_t root = 0;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// The generated credit/billing corpus and the paper's plan over it.
struct PaperSetup {
  mdmatch::sim::SimOpRegistry ops;
  mdmatch::datagen::CreditBillingData data;
  mdmatch::api::PlanPtr plan;
};

/// The quality model of the Section 6 experiments (reliability drives the
/// RCK cost more than raw length); Build estimates the lengths into it.
mdmatch::QualityModel PaperQuality(
    const mdmatch::datagen::CreditBillingData& data);

/// Generates K base tuples per relation from `seed` and compiles the
/// Section 6 plan with the program's default options: findRCKs inside
/// PlanBuilder::Build, top-5 RCKs relaxed to θ = 0.8 DL, the three
/// standard windowing passes at w = 10, and — for `fs` — an EM-trained
/// Fellegi-Sunter model over the RCK-union comparison vector. The Build
/// call runs inside a span named api.plan_build.
mdmatch::Status MakePaperSetup(size_t k, uint64_t seed, bool fs,
                               Tracer* tracer, PaperSetup* out);

}  // namespace perfbench

#endif  // MDMATCH_PERFBENCH_COMMON_H_
