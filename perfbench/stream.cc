// stream_churn: a standing corpus behind an IngestDriver takes an
// open-loop, fixed-rate stream of inserts, value-edit updates and removes
// (remove + reinsert keeps the corpus size steady) with one subscriber and
// one concurrent reader, alternating with unpaced bursts. The run repeats
// one such episode, each on a fresh IngestDriver loaded with the same
// standing corpus, until --seconds have passed.
//
// Threads: this one produces; one paced reader; the IngestDriver's flusher
// and the subscription's delivery thread — four in all, of which only the
// flusher is busy most of the time.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <optional>
#include <thread>
#include <unordered_set>

#include "api/session.h"
#include "stream/delta.h"
#include "stream/ingest_driver.h"
#include "util/thread_annotations.h"
#include "workloads.h"

namespace perfbench {

using namespace mdmatch;

namespace {

// K base tuples per relation: 7,200 generated records, 80% standing. A
// flush costs O(standing corpus) today (re-rank walks, cluster rebuilds),
// about a millisecond at this size.
constexpr size_t kStreamK = 2000;
constexpr double kStandingShare = 0.8;
// Standing records that are never removed; the reader queries only these,
// so every query names a live record.
constexpr double kStableShare = 0.25;
// Offered rate of the open-loop segments. With two probe pairs in every
// 20-op round it inserts 300 probe pairs a second. The flusher stays busy
// (coalescing about ten ops per flush) even in the host's fast periods,
// so the latency does not flip between an idle and a saturated regime,
// and the backlog does not grow in its slow ones.
constexpr double kOfferedRate = 3000;
// A round: 4 inserts, 4 removes, 4 value edits, two probe pairs inserted
// and two removed (two edits each while no probe is old enough).
constexpr size_t kRoundOps = 20;
// Probe pairs stay this many rounds (0.85 s at the offered rate), far
// longer than any flush, so an insert and its removal never coalesce.
constexpr size_t kProbeLagRounds = 128;
// An episode: kSegments open-loop segments of kSegmentRounds rounds
// (0.5 s at the offered rate, 150 probes), each followed by a burst of
// kBurstRounds rounds enqueued unpaced through Drain(). Every episode
// starts a fresh session from the same bulk load, so the samples of all
// episodes are alike. Inserts allocate ingestion sequence numbers, which
// are never reused; an episode allocates about 6,800, far below the point
// (4x the live corpus) past which every flush takes a far slower re-rank
// path (a FOUND line in CHANGES.md).
constexpr size_t kSegments = 8;
constexpr size_t kSegmentRounds = 75;
constexpr size_t kBurstRounds = 31;
// The reader's pace: a batch of this many ClusterOf + SameCluster pairs
// every kReaderPeriod. It reads while flushes publish but sleeps between
// batches, so it does not take a core from the flusher.
constexpr size_t kReaderBatch = 32;
constexpr auto kReaderPeriod = std::chrono::milliseconds(1);

constexpr TupleId kProbeBase = TupleId{1} << 30;

struct Phase {
  size_t begin = 0;  ///< op range [begin, end)
  size_t end = 0;
  bool open = false;  ///< open-loop segment, else burst
};

struct Op {
  int side = 0;
  TupleId id = 0;
  std::optional<Tuple> tuple;  ///< nullopt = remove
  int64_t probe = -1;          ///< probe number, on the op completing a pair
};

uint64_t IdKey(TupleId left, TupleId right) {
  return (static_cast<uint64_t>(left) << 32) | static_cast<uint64_t>(right);
}

/// Builds the bulk-load set and the op schedule from the seed.
class Schedule {
 public:
  Schedule(const Instance& generated, uint64_t seed) : rng_(seed ^ 0x5c4ed) {
    for (int s = 0; s < 2; ++s) {
      Side& side = side_[s];
      side.current = generated.side(s).tuples();
      std::vector<size_t> order(side.current.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng_.Index(i)]);
      }
      const size_t standing =
          static_cast<size_t>(order.size() * kStandingShare);
      const size_t stable = static_cast<size_t>(standing * kStableShare);
      for (size_t i = 0; i < order.size(); ++i) {
        const size_t idx = order[i];
        if (i < stable) {
          side.stable.push_back(idx);
          stable_ids.emplace_back(s, side.current[idx].id());
        } else if (i < standing) {
          side.standing.push_back(idx);
        } else {
          side.pool.push_back(idx);
          continue;
        }
        bulk.push_back(Op{s, side.current[idx].id(), side.current[idx], -1});
      }
    }
  }

  void AppendRounds(size_t rounds, std::vector<Op>* ops) {
    for (size_t i = 0; i < rounds; ++i, ++round_) {
      for (const char slot : std::string("IRUPXIRUPXIRUIRU")) {
        switch (slot) {
          case 'I': Insert(ops); break;
          case 'R': Remove(ops); break;
          case 'U': Update(ops); break;
          case 'P': ProbeInsert(ops); break;
          case 'X': ProbeRemove(ops); break;
        }
      }
    }
  }

  size_t probes() const { return next_probe_; }

  std::vector<Op> bulk;  ///< the standing corpus, loaded as set-up
  std::vector<std::pair<int, TupleId>> stable_ids;

 private:
  struct Side {
    std::vector<Tuple> current;
    std::vector<size_t> stable;    ///< standing, never removed
    std::vector<size_t> standing;  ///< standing, removable
    std::vector<size_t> pool;      ///< not in the corpus
  };

  static size_t TakeRandom(std::vector<size_t>* from, SplitMix* rng) {
    const size_t i = rng->Index(from->size());
    const size_t idx = (*from)[i];
    (*from)[i] = from->back();
    from->pop_back();
    return idx;
  }

  int PickSide(bool from_pool) {
    const int s = static_cast<int>(rng_.Index(2));
    const auto& v = from_pool ? side_[s].pool : side_[s].standing;
    return v.empty() ? 1 - s : s;
  }

  void Insert(std::vector<Op>* ops) {
    const int s = PickSide(/*from_pool=*/true);
    const size_t idx = TakeRandom(&side_[s].pool, &rng_);
    side_[s].standing.push_back(idx);
    const Tuple& t = side_[s].current[idx];
    ops->push_back(Op{s, t.id(), t, -1});
  }

  void Remove(std::vector<Op>* ops) {
    const int s = PickSide(/*from_pool=*/false);
    const size_t idx = TakeRandom(&side_[s].standing, &rng_);
    side_[s].pool.push_back(idx);
    ops->push_back(Op{s, side_[s].current[idx].id(), std::nullopt, -1});
  }

  // A one-character edit of one attribute of a standing record.
  void Update(std::vector<Op>* ops) {
    const int s = static_cast<int>(rng_.Index(2));
    Side& side = side_[s];
    const size_t k = rng_.Index(side.stable.size() + side.standing.size());
    const size_t idx = k < side.stable.size()
                           ? side.stable[k]
                           : side.standing[k - side.stable.size()];
    Tuple& t = side.current[idx];
    const AttrId attr = static_cast<AttrId>(rng_.Index(t.arity()));
    std::string value = t.value(attr);
    if (value.empty()) {
      value = "x";
    } else {
      const size_t pos = rng_.Index(value.size());
      value[pos] = value[pos] == 'q' ? 'z' : 'q';
    }
    t.set_value(attr, std::move(value));
    ops->push_back(Op{s, t.id(), t, -1});
  }

  // Removes the oldest probe pair once it is kProbeLagRounds old; two
  // edits instead until then, so every round has kRoundOps ops.
  void ProbeRemove(std::vector<Op>* ops) {
    if (live_probes_.empty() ||
        live_probes_.front().first + kProbeLagRounds > round_) {
      Update(ops);
      Update(ops);
      return;
    }
    const TupleId id = live_probes_.front().second;
    live_probes_.pop_front();
    ops->push_back(Op{0, id, std::nullopt, -1});
    ops->push_back(Op{1, id, std::nullopt, -1});
  }

  // A left/right pair whose every attribute holds one fresh random word:
  // the pair matches under every rule, so its delta is identifiable.
  void ProbeInsert(std::vector<Op>* ops) {
    std::string word;
    for (int i = 0; i < 12; ++i) {
      word += static_cast<char>('a' + rng_.Index(26));
    }
    const TupleId id = kProbeBase + static_cast<TupleId>(next_probe_);
    for (int s = 0; s < 2; ++s) {
      const size_t arity = side_[s].current.front().arity();
      Tuple probe(id, std::vector<std::string>(arity, word), /*entity=*/id);
      ops->push_back(Op{s, id, std::move(probe),
                        s == 1 ? static_cast<int64_t>(next_probe_) : -1});
    }
    live_probes_.emplace_back(round_, id);
    ++next_probe_;
  }

  SplitMix rng_;
  Side side_[2];
  size_t round_ = 0;
  size_t next_probe_ = 0;
  std::deque<std::pair<size_t, TupleId>> live_probes_;  ///< (round, id)
};

/// A match-state replica built only from deltas, by record ids.
class IdReplica {
 public:
  /// Applies one delta; returns "" or the first inconsistency (a gap in
  /// the generation chain, a retire of an absent pair, a duplicate add).
  std::string Apply(const stream::MatchDelta& delta) {
    if (delta.resync) {
      pairs_.clear();
      ++resyncs_;
    } else if (delta.from_generation != generation_) {
      return "delta from generation " + std::to_string(delta.from_generation) +
             " follows generation " + std::to_string(generation_);
    }
    for (const auto& p : delta.retired) {
      if (pairs_.erase(IdKey(p.left, p.right)) == 0) {
        return "retired an absent pair";
      }
    }
    for (const auto& p : delta.added) {
      if (!pairs_.insert(IdKey(p.left, p.right)).second) {
        return "added a present pair";
      }
    }
    generation_ = delta.to_generation;
    return "";
  }

  uint64_t generation() const { return generation_; }
  size_t resyncs() const { return resyncs_; }
  const std::unordered_set<uint64_t>& pairs() const { return pairs_; }

 private:
  uint64_t generation_ = 0;
  size_t resyncs_ = 0;
  std::unordered_set<uint64_t> pairs_;
};

/// The subscriber: keeps an IdReplica and stamps each probe's arrival.
class ProbeSink : public stream::MatchDeltaSink {
 public:
  explicit ProbeSink(size_t probes) : probes_(probes), arrival_(probes, -1.0) {}

  size_t probes() const { return probes_; }

  void OnDelta(const stream::MatchDelta& delta) override {
    const double now = Now();
    {
      util::MutexLock lock(mu_);
      const std::string error = replica_.Apply(delta);
      if (!error.empty() && error_.empty()) error_ = error;
      for (const auto& p : delta.added) {
        if (p.left < kProbeBase || p.left != p.right) continue;
        const size_t k = static_cast<size_t>(p.left - kProbeBase);
        if (k < arrival_.size() && arrival_[k] < 0) arrival_[k] = now;
      }
    }
    cv_.NotifyAll();
  }

  void AwaitGeneration(uint64_t generation) {
    util::MutexLock lock(mu_);
    while (replica_.generation() < generation) cv_.Wait(mu_);
  }

  /// Delta latency of probe k from due[k] (NaN where due[k] < 0); a probe
  /// whose delta never came counts as infinitely late.
  std::vector<double> Latencies(const std::vector<double>& due) {
    util::MutexLock lock(mu_);
    std::vector<double> out(due.size(), NAN);
    for (size_t k = 0; k < due.size() && k < arrival_.size(); ++k) {
      if (due[k] < 0) continue;
      out[k] = arrival_[k] < 0 ? INFINITY : arrival_[k] - due[k];
    }
    return out;
  }

  std::string error() {
    util::MutexLock lock(mu_);
    return error_;
  }
  IdReplica replica() {
    util::MutexLock lock(mu_);
    return replica_;
  }

 private:
  const size_t probes_;
  util::Mutex mu_;
  util::CondVar cv_;
  IdReplica replica_ GUARDED_BY(mu_);
  std::vector<double> arrival_ GUARDED_BY(mu_);
  std::string error_ GUARDED_BY(mu_);
};

std::unordered_set<uint64_t> IdPairs(const Instance& corpus,
                                     const match::MatchResult& matches) {
  std::unordered_set<uint64_t> out;
  for (const auto& [l, r] : matches.pairs()) {
    out.insert(
        IdKey(corpus.left().tuple(l).id(), corpus.right().tuple(r).id()));
  }
  return out;
}

std::vector<std::pair<uint32_t, uint32_t>> Sorted(const match::MatchResult& m) {
  auto pairs = m.pairs();
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// The equivalence contract on one session state: its matches equal a
/// one-shot Executor::Run over its corpus.
std::string CheckAgainstExecutor(const api::PlanPtr& plan,
                                 const api::SessionView& view) {
  const Instance corpus = view.Corpus();
  auto report = api::Executor(plan).Run(corpus);
  if (!report.ok()) return "Executor::Run: " + report.status().ToString();
  if (Sorted(report->matches) != Sorted(view.Matches())) {
    return "session matches differ from Executor::Run over its corpus";
  }
  return "";
}

struct ReplayTotals {
  double wall = 0;
  size_t flushes = 0;
  size_t publish_bytes = 0;
  size_t pairs_evaluated = 0;
  size_t matches_added = 0;
  size_t matches_dropped = 0;
  double merge = 0, scan = 0, eval = 0, rerank = 0, cluster = 0, publish = 0;
};

/// Replays the bulk load and then, one Step per IngestDriver flush batch,
/// the op schedule through a synchronous MatchSession, GenerationDiff and
/// a replica.
class Replayer {
 public:
  Replayer(const api::PlanPtr& plan, const std::vector<Op>& bulk)
      : plan_(plan), session_(plan) {
    for (const Op& op : bulk) {
      if (!session_.Upsert(op.side, *op.tuple).ok()) {
        error_ = "bulk upsert failed";
      }
    }
    if (!session_.Flush().ok()) error_ = "bulk flush failed";
    prev_ = session_.View().state();
    if (error_.empty()) error_ = replica_.Apply(stream::FullStateDelta(*prev_));
  }

  /// Applies ops [begin, end) and flushes, inside spans of `tracer`.
  void Step(const std::vector<Op>& ops, size_t begin, size_t end,
            Tracer* tracer) {
    if (!error_.empty()) return;
    const double start = Now();
    Tracer::Scope cycle(tracer, "stream.flush_cycle");
    {
      Tracer::Scope span(tracer, "api.session.upsert");
      for (size_t i = begin; i < end; ++i) {
        const Op& op = ops[i];
        Status st = op.tuple ? session_.Upsert(op.side, *op.tuple)
                             : session_.Remove(op.side, op.id);
        if (!st.ok() && error_.empty()) {
          error_ = "replayed op: " + st.ToString();
        }
      }
    }
    Result<api::IngestReport> report = [&] {
      Tracer::Scope span(tracer, "api.session.flush");
      return session_.Flush();
    }();
    if (!report.ok()) {
      error_ = "replayed flush: " + report.status().ToString();
      return;
    }
    ++totals.flushes;
    totals.merge += report->merge_seconds;
    totals.scan += report->scan_seconds;
    totals.eval += report->eval_seconds;
    totals.rerank += report->rerank_seconds;
    totals.publish += report->publish_seconds;
    totals.cluster += report->cluster_seconds - report->rerank_seconds -
                      report->publish_seconds;
    totals.publish_bytes += report->publish_bytes_copied;
    totals.pairs_evaluated += report->pairs_evaluated;
    totals.matches_added += report->matches_added;
    totals.matches_dropped += report->matches_dropped;
    if (report->generation != prev_->generation) {
      api::SessionGenerationPtr now = session_.View().state();
      stream::MatchDelta delta = [&] {
        Tracer::Scope span(tracer, "stream.diff");
        return stream::GenerationDiff(*prev_, *now);
      }();
      if (error_.empty()) error_ = replica_.Apply(delta);
      prev_ = std::move(now);
    }
    totals.wall += Now() - start;
  }

  /// "" when the replay ran clean and its end state holds the contract.
  std::string Finish() const {
    if (!error_.empty()) return error_;
    const api::SessionView view = session_.View();
    if (replica_.pairs() != IdPairs(view.Corpus(), view.Matches())) {
      return "replay replica differs from the session's matches";
    }
    return CheckAgainstExecutor(plan_, view);
  }

  ReplayTotals totals;

 private:
  api::PlanPtr plan_;
  api::MatchSession session_;
  api::SessionGenerationPtr prev_;
  IdReplica replica_;
  std::string error_;
};

/// Counts the driver ops of one episode: attempted and failed in the
/// run's outcome, accepted for the episode's ops_enqueued check.
struct OpCounter {
  void Count(const Status& st) {
    ++out->attempted;
    if (st.ok()) {
      ++accepted;
    } else {
      ++out->failed;
    }
  }
  Outcome* out;
  uint64_t accepted = 0;
};

/// What one episode measured.
struct Episode {
  std::vector<double> segment_p50;  ///< per open-loop segment, seconds
  std::vector<double> burst_rates;  ///< ops/s per burst
  std::vector<double> latencies;    ///< every probe, seconds
  std::vector<double> lateness;     ///< open-loop enqueue past due, seconds
  double open_seconds = 0;
  uint64_t open_queries = 0;
  double query_seconds = 0;  ///< reader time spent inside query batches
  size_t depth_max = 0;
  stream::IngestStats stats;  ///< counters since the bulk load
  /// batch_start[i]: op i began a flush batch (see Enqueue).
  std::vector<char> batch_start;
};

/// A fresh IngestDriver with the standing corpus bulk-loaded through it
/// and one subscription: every episode starts from this same state.
class EpisodeDriver {
 public:
  EpisodeDriver(const api::PlanPtr& plan, const Schedule& schedule,
                size_t probes, Outcome* out)
      : counter{out}, sink(probes), driver(plan) {
    for (const Op& op : schedule.bulk) {
      counter.Count(driver.Upsert(op.side, *op.tuple));
    }
    if (!driver.Drain().ok()) out->Fail("bulk-load Drain failed");
    stream::SubscribeOptions subscribe;
    subscribe.initial_snapshot = true;
    driver.Subscribe(&sink, subscribe);
    after_load = driver.stats();
  }

  OpCounter counter;
  ProbeSink sink;
  stream::IngestDriver driver;
  stream::IngestStats after_load;
};

/// Runs the op schedule once through `d`: open-loop segments alternating
/// with unpaced bursts, one concurrent closed-loop reader; then Stop().
void RunEpisode(const std::vector<Op>& ops, const std::vector<Phase>& phases,
                const std::vector<std::pair<int, TupleId>>& stable_ids,
                uint64_t seed, EpisodeDriver* d, Outcome* out, Episode* ep) {
  stream::IngestDriver& driver = d->driver;
  // Enqueues op i and records which flush batch it fell into: the flusher
  // takes the whole queue at once, so with one producer the ops queued
  // right after an enqueue are exactly the newest ones, all bound for one
  // batch, and an op enqueued into an empty queue starts a batch.
  ep->batch_start.assign(ops.size() + 1, 0);
  auto enqueue = [&](size_t i) {
    const Op& op = ops[i];
    const size_t before = driver.stats().queue_depth;
    d->counter.Count(op.tuple ? driver.Upsert(op.side, *op.tuple)
                              : driver.Remove(op.side, op.id));
    const size_t after = driver.stats().queue_depth;
    if (before == 0) ep->batch_start[i] = 1;
    if (after >= 1 && after <= i + 1) ep->batch_start[i + 1 - after] = 1;
    ep->depth_max = std::max(ep->depth_max, after);
  };

  // The reader: every kReaderPeriod, a closed loop of kReaderBatch
  // queries over stable records, each pinning the current generation.
  std::atomic<bool> stop_reader{false};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> query_failures{0};
  std::atomic<uint64_t> query_nanos{0};  ///< time inside the batches
  std::thread reader([&] {
    SplitMix rng(seed ^ 0x4ead);
    while (!stop_reader.load(std::memory_order_relaxed)) {
      const double start = Now();
      for (size_t q = 0; q < kReaderBatch; ++q) {
        const api::SessionView view = driver.View();
        const auto& [sa, ia] = stable_ids[rng.Index(stable_ids.size())];
        const auto& [sb, ib] = stable_ids[rng.Index(stable_ids.size())];
        const bool ok = view.ClusterOf(sa, ia).ok() &&
                        view.SameCluster(sa, ia, sb, ib).ok();
        if (!ok) query_failures.fetch_add(1, std::memory_order_relaxed);
      }
      query_nanos.fetch_add(static_cast<uint64_t>((Now() - start) * 1e9),
                            std::memory_order_relaxed);
      queries.fetch_add(2 * kReaderBatch, std::memory_order_relaxed);
      std::this_thread::sleep_for(kReaderPeriod);
    }
  });

  // In an open-loop segment op i is due at the segment start + i / rate
  // whether or not the system kept up (latency counts from the due time);
  // a burst enqueues its ops unpaced and then Drain()s.
  std::vector<double> probe_due(d->sink.probes(), -1.0);
  std::vector<size_t> probe_segment(d->sink.probes(), 0);
  size_t segment = 0;
  for (const Phase& phase : phases) {
    if (!phase.open) {
      const double burst_start = Now();
      for (size_t i = phase.begin; i < phase.end; ++i) enqueue(i);
      if (!driver.Drain().ok()) out->Fail("burst Drain failed");
      ep->burst_rates.push_back((phase.end - phase.begin) /
                                (Now() - burst_start));
      continue;
    }
    const double start = Now();
    const uint64_t queries_before = queries.load();
    const uint64_t nanos_before = query_nanos.load();
    for (size_t i = phase.begin; i < phase.end; ++i) {
      const double due = start + (i - phase.begin) / kOfferedRate;
      const double now = Now();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
      }
      ep->lateness.push_back(Now() - due);
      if (ops[i].probe >= 0) {
        probe_due[ops[i].probe] = due;
        probe_segment[ops[i].probe] = segment;
      }
      enqueue(i);
    }
    ep->open_seconds += Now() - start;
    ep->open_queries += queries.load() - queries_before;
    ep->query_seconds += (query_nanos.load() - nanos_before) * 1e-9;
    ++segment;
    if (!driver.Drain().ok()) out->Fail("open-loop Drain failed");
  }
  stop_reader.store(true);
  reader.join();
  driver.Stop();
  out->attempted += ep->open_queries;
  out->failed += query_failures.load();
  const stream::IngestStats stats = driver.stats();
  ep->stats = stats;
  ep->stats.flushes -= d->after_load.flushes;
  ep->stats.ops_flushed -= d->after_load.ops_flushed;
  ep->stats.coalesced_deltas -= d->after_load.coalesced_deltas;

  std::vector<std::vector<double>> by_segment(segment);
  const std::vector<double> by_probe = d->sink.Latencies(probe_due);
  for (size_t k = 0; k < by_probe.size(); ++k) {
    if (std::isnan(by_probe[k])) continue;
    ep->latencies.push_back(by_probe[k]);
    by_segment[probe_segment[k]].push_back(by_probe[k]);
  }
  for (const auto& v : by_segment) {
    ep->segment_p50.push_back(Percentile(v, 0.5));
  }
}

/// The end-state properties of one stopped episode; failures go to `out`.
void CheckEndState(const api::PlanPtr& plan, EpisodeDriver* d, Outcome* out) {
  stream::IngestDriver& driver = d->driver;
  const stream::IngestStats stats = driver.stats();
  if (d->counter.accepted != stats.ops_enqueued) {
    out->Fail("accepted " + std::to_string(d->counter.accepted) +
              " ops, IngestStats counts " +
              std::to_string(stats.ops_enqueued));
  }
  d->sink.AwaitGeneration(driver.generation());
  if (!d->sink.error().empty()) out->Fail("delta stream: " + d->sink.error());
  const IdReplica replica = d->sink.replica();
  if (replica.generation() != driver.generation()) {
    out->Fail("replica stopped at generation " +
              std::to_string(replica.generation()));
  }
  // The initial snapshot is one resync; any other is an overflow resync,
  // which IngestStats::resyncs counts.
  if (replica.resyncs() != 1 + stats.resyncs) {
    out->Fail("subscriber saw " + std::to_string(replica.resyncs()) +
              " resyncs; IngestStats counts " + std::to_string(stats.resyncs) +
              " past the initial snapshot");
  }
  const api::SessionView view = driver.View();
  const Instance corpus = view.Corpus();
  const match::MatchResult matches = view.Matches();
  if (replica.pairs() != IdPairs(corpus, matches)) {
    out->Fail("replica built from deltas differs from View().Matches()");
  }
  const std::string executor_error = CheckAgainstExecutor(plan, view);
  if (!executor_error.empty()) out->Fail(executor_error);
  for (const auto& [l, r] : matches.pairs()) {
    const TupleId il = corpus.left().tuple(l).id();
    const TupleId ir = corpus.right().tuple(r).id();
    auto same = view.SameCluster(0, il, 1, ir);
    auto hl = view.ClusterOf(0, il);
    auto hr = view.ClusterOf(1, ir);
    if (!same.ok() || !*same || !hl.ok() || !hr.ok() || *hl != *hr) {
      out->Fail("matched pair (" + std::to_string(il) + ", " +
                std::to_string(ir) + ") is not one cluster in its view");
      break;
    }
  }
}

template <typename T>
void Append(const std::vector<T>& from, std::vector<T>* to) {
  to->insert(to->end(), from.begin(), from.end());
}

}  // namespace

void RunStream(const Args& args, Outcome* out, LayerMetrics* layers) {
  Tracer tracer(args.trace);
  PaperSetup setup;
  Status built =
      MakePaperSetup(kStreamK, args.seed, /*fs=*/false, &tracer, &setup);
  if (!built.ok()) {
    out->Fail("plan build: " + built.ToString());
    return;
  }
  // One episode's op schedule; every episode replays it from the same
  // bulk-loaded corpus.
  Schedule schedule(setup.data.instance, args.seed);
  std::vector<Op> ops;
  std::vector<Phase> phases;
  for (size_t p = 0; p < 2 * kSegments; ++p) {
    const size_t begin = ops.size();
    schedule.AppendRounds(p % 2 == 0 ? kSegmentRounds : kBurstRounds, &ops);
    phases.push_back(Phase{begin, ops.size(), p % 2 == 0});
  }
  // The first episode's driver is loaded as set-up; later ones are loaded
  // between episodes, outside every measurement.
  auto d = std::make_unique<EpisodeDriver>(setup.plan, schedule,
                                           schedule.probes(), out);
  const double setup_s = Now() - ProcessStart();

  // Whole episodes until --seconds have passed, each checked at its end.
  std::vector<Episode> episodes;
  double peak_rss_mb = 0;
  const double until = Now() + args.seconds;
  while (true) {
    episodes.emplace_back();
    RunEpisode(ops, phases, schedule.stable_ids, args.seed, d.get(), out,
               &episodes.back());
    peak_rss_mb = std::max(peak_rss_mb, PeakRssMb());
    CheckEndState(setup.plan, d.get(), out);
    if (Now() >= until || !out->correct()) break;
    d.reset();  // one session alive at a time
    d = std::make_unique<EpisodeDriver>(setup.plan, schedule,
                                        schedule.probes(), out);
  }
  const api::SessionView final_view = d->driver.View();
  const Instance corpus = final_view.Corpus();
  CheckAgainstReference(*setup.plan, corpus, final_view.Matches().pairs(),
                        args.seed, out);

  // Best of N, as in the batch workloads: the host alternates between
  // fast and slow periods of a few seconds, so the run reports its best
  // open-loop segment (lowest median delta latency) and its best burst.
  Episode all;
  for (const Episode& ep : episodes) {
    Append(ep.segment_p50, &all.segment_p50);
    Append(ep.burst_rates, &all.burst_rates);
    Append(ep.latencies, &all.latencies);
    Append(ep.lateness, &all.lateness);
    all.open_seconds += ep.open_seconds;
    all.open_queries += ep.open_queries;
    all.query_seconds += ep.query_seconds;
  }
  size_t lost = 0;
  for (double l : all.latencies) lost += std::isinf(l);
  const double best_p50 = Percentile(all.segment_p50, 0);
  const double p50 = Percentile(all.latencies, 0.5);
  const double p99 = Percentile(all.latencies, 0.99);
  const double query_per_s = all.open_queries / all.query_seconds;
  const double best_ingest = Percentile(all.burst_rates, 1);
  std::printf(
      "stream_churn: %zu standing records; %zu episodes of %zu ops; %zu "
      "open-loop ops at %.0f/s over %.2fs; %zu probes (%zu lost): delta p50 "
      "%.3f ms p99 %.3f ms, best segment p50 %.3f ms, worst %.3f ms; bursts "
      "of %zu ops: best %.0f, median %.0f, worst %.0f ops/s; %.0f "
      "queries/s; final corpus %zu+%zu\n",
      schedule.bulk.size(), episodes.size(), ops.size(),
      all.lateness.size(), kOfferedRate, all.open_seconds,
      all.latencies.size(), lost, p50 * 1e3, p99 * 1e3, best_p50 * 1e3,
      Percentile(all.segment_p50, 1) * 1e3, kBurstRounds * kRoundOps,
      best_ingest, Percentile(all.burst_rates, 0.5),
      Percentile(all.burst_rates, 0), query_per_s, corpus.left().size(),
      corpus.right().size());

  if (!args.trace) {
    out->Add("setup_s", setup_s, "s");
    out->Add("peak_rss_mb", peak_rss_mb, "MB");
    out->Add("records_per_s", best_ingest, "records/s");
    out->Add("result_latency_ms", best_p50 * 1e3, "ms");
    return;
  }

  // --- traced: the IngestDriver's counters of the first episode, the
  // layers over the final corpus, and the first episode replayed
  // synchronously with and without spans ---
  const Episode& first = episodes.front();
  const size_t flushes = first.stats.flushes;
  (*layers)["stream.flushes"] = static_cast<double>(flushes);
  (*layers)["stream.ops_per_flush"] =
      static_cast<double>(first.stats.ops_flushed) / flushes;
  (*layers)["stream.coalesced"] =
      static_cast<double>(first.stats.coalesced_deltas);
  (*layers)["stream.queue_depth_max"] = static_cast<double>(first.depth_max);
  (*layers)["stream.deltas_delivered"] =
      static_cast<double>(first.stats.deltas_delivered);
  (*layers)["stream.resyncs"] = static_cast<double>(first.stats.resyncs);
  (*layers)["stream.generator_late_ms"] = Percentile(all.lateness, 0.99) * 1e3;
  (*layers)["stream.delta_p99_ms"] = p99 * 1e3;
  (*layers)["api.view.query_us"] = all.query_seconds / all.open_queries * 1e6;
  (*layers)["api.view.query_per_s"] = query_per_s;

  ProbeLayers(setup, corpus, &tracer, out, layers);
  const api::Executor executor(setup.plan);
  ExecutorTrace executor_trace;
  for (int i = 0; i < 3; ++i) {
    ++out->attempted;
    if (executor_trace.Run(executor, corpus, &tracer) < 0) ++out->failed;
  }
  executor_trace.Fill(&tracer, layers);

  // Two replays in lockstep, one batch each in turn, so the host's slow
  // and fast periods fall on both alike: without spans and with them.
  std::vector<char> batch_start = first.batch_start;
  batch_start[0] = 1;
  Tracer untraced(false);
  Replayer plain(setup.plan, schedule.bulk);
  Replayer traced_replay(setup.plan, schedule.bulk);
  for (size_t i = 0; i < ops.size();) {
    size_t end = i + 1;
    while (end < ops.size() && !batch_start[end]) ++end;
    plain.Step(ops, i, end, &untraced);
    traced_replay.Step(ops, i, end, &tracer);
    i = end;
  }
  for (const Replayer* r : {&plain, &traced_replay}) {
    const std::string error = r->Finish();
    if (!error.empty()) out->Fail("replay: " + error);
  }
  const ReplayTotals& traced = traced_replay.totals;
  const auto total = tracer.TotalSeconds();
  auto seconds = [&](const char* name) {
    auto it = total.find(name);
    return it == total.end() ? 0.0 : it->second;
  };
  const double flush_s = seconds("api.session.flush");
  (*layers)["api.session.upsert_s"] = seconds("api.session.upsert");
  (*layers)["api.session.flush_s"] = flush_s;
  (*layers)["api.session.merge_s"] = traced.merge;
  (*layers)["api.session.scan_s"] = traced.scan;
  (*layers)["api.session.eval_s"] = traced.eval;
  (*layers)["api.session.rerank_s"] = traced.rerank;
  (*layers)["api.session.cluster_s"] = traced.cluster;
  (*layers)["api.session.publish_s"] = traced.publish;
  for (const auto& [name, count] :
       {std::pair<const char*, size_t>{"api.session.publish_bytes",
                                       traced.publish_bytes},
        {"api.session.pairs_evaluated", traced.pairs_evaluated},
        {"api.session.matches_added", traced.matches_added},
        {"api.session.matches_dropped", traced.matches_dropped}}) {
    (*layers)[name] = static_cast<double>(count);
  }
  (*layers)["api.session.unattributed_s"] =
      flush_s - (traced.merge + traced.scan + traced.eval + traced.rerank +
                 traced.cluster + traced.publish);
  (*layers)["stream.diff_s"] = seconds("stream.diff");
  (*layers)["trace.overhead_pct"] =
      (traced.wall / plain.totals.wall - 1.0) * 100.0;
  std::printf("replay: %zu flushes, %.3fs untraced, %.3fs traced\n",
              traced.flushes, plain.totals.wall, traced.wall);
  if (!args.spans_out.empty() && !tracer.Write(args.spans_out)) {
    out->Fail("cannot write spans to " + args.spans_out);
  }
}

}  // namespace perfbench
