#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include <sys/resource.h>

#include "match/hs_rules.h"

namespace perfbench {

namespace {

const double kProcessStart = Now();

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Outcome::Fail(const std::string& why) {
  correct_ = false;
  errors_.push_back(why);
}

void Outcome::Add(const std::string& name, double value,
                  const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Outcome::Print() const {
  for (const std::string& e : errors_) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  for (const Metric& m : metrics_) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics_[i].name) + ": {\"value\": " +
            JsonNumber(metrics_[i].value) +
            ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessStart() { return kProcessStart; }

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: in kB
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  Span span;
  span.name = name;
  span.parent = tracer_->open_.empty()
                    ? -1
                    : static_cast<int64_t>(tracer_->open_.back());
  index_ = tracer_->spans_.size();
  span.root = span.parent < 0 ? index_ : tracer_->spans_[span.parent].root;
  span.start = Now();
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (!tracer_->enabled_) return;
  tracer_->spans_[index_].end = Now();
  tracer_->open_.pop_back();
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<double> child_time(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_time[s.parent] += s.end - s.start;
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += (spans_[i].end - spans_[i].start) - child_time[i];
  }
  return out;
}

std::map<std::string, double> Tracer::TotalSeconds() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += s.end - s.start;
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream file(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    file << "{\"id\": " << i << ", \"trace\": " << s.root
         << ", \"parent\": " << s.parent << ", \"name\": " << JsonString(s.name)
         << ", \"start_s\": " << JsonNumber(s.start - kProcessStart)
         << ", \"end_s\": " << JsonNumber(s.end - kProcessStart) << "}\n";
  }
  return static_cast<bool>(file);
}

mdmatch::QualityModel PaperQuality(
    const mdmatch::datagen::CreditBillingData& data) {
  mdmatch::QualityModel quality(1.0, 0.05, 3.0);
  mdmatch::datagen::ApplyDefaultAccuracies(data.pair, data.target, &quality);
  return quality;
}

mdmatch::Status MakePaperSetup(size_t k, uint64_t seed, bool fs,
                               Tracer* tracer, PaperSetup* out) {
  using namespace mdmatch;
  datagen::CreditBillingOptions gen;
  gen.num_base = k;
  gen.seed = seed;
  out->data = datagen::GenerateCreditBilling(gen, &out->ops);

  api::PlanOptions options;
  if (fs) options.matcher = api::PlanOptions::Matcher::kFellegiSunter;

  Tracer::Scope span(tracer, "api.plan_build");
  auto plan = api::PlanBuilder(out->data.pair, out->data.target, &out->ops)
                  .WithSigma(out->data.mds)
                  .WithQuality(PaperQuality(out->data))
                  .WithSortKeys(match::StandardWindowKeys(out->data.pair))
                  .WithTrainingInstance(&out->data.instance)
                  .WithOptions(options)
                  .Build();
  if (!plan.ok()) return plan.status();
  out->plan = *plan;
  return Status::OK();
}

}  // namespace perfbench
