// Shared plumbing for the benchmark's workloads: run options, timing,
// the in-memory span log, answer digests, pre-generated input, and the
// result record every workload fills in.
//
// Every workload follows the same shape. Input and reference answers
// are generated from --seed before any clock starts. Then the workload
// runs closed-loop "episodes" (construct, ingest the whole input in
// chunks, query after every chunk) until --seconds have passed. Each
// query's answer is digested outside the timed region and compared
// with the reference digest for that point of the input.
//
// A run reports, over a fixed number K of its episodes spread evenly
// over the run, each ingest chunk's and each query's fastest time: the
// ingest rate is the arrivals over the sum of the chunks' fastest times,
// and the query p50 and p99 are taken over the queries' fastest times.
// Every workload is deterministic for its seed (serial engine, fresh
// deployment per episode), so a chunk or query does the same work in
// every episode, and a cost the program has repeats in each of them
// while the host's noise does not. On a shared 4-vCPU VM the noise only
// ever adds time and comes in phases of seconds: a memory-bound loop
// swings between two speeds, 1.9x apart, while an ALU loop stays within
// 5%, and sliding_exact's per-episode ingest rate ranged over 186k-267k
// arrivals/s within one 20 s run. K is the same for every
// build, so a faster build, which fits more episodes into the run, does
// not take the minimum of more draws. The vCPUs also differ (the same
// loop pinned to each of four ran 13% apart at the median), so
// successive episodes are pinned to the allowed CPUs in turn.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/engine.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every input (the self-test's fast mode).
  bool small = false;
  /// Perturbs one reference answer, so a correct program must show one
  /// failed operation per episode (proves the oracle can fail).
  bool corrupt_reference = false;
  /// Where the traced run writes its spans (Chrome trace-event JSON).
  std::string trace_out;
};

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Median of `v` (copied; empty gives 0).
double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1] (copied; empty gives 0).
double percentile(std::vector<double> v, double q);

/// The heap's high-water mark above the bytes live when the watch was
/// made, counting every operator new in the process at malloc's usable
/// size (heap.cpp). Making a watch restarts the mark, so one is live at
/// a time, and the benchmark's own containers are sized before it.
class HeapWatch {
 public:
  HeapWatch();
  std::int64_t peak_bytes() const;

 private:
  std::int64_t base_;
};

/// Pins the calling thread to the `i`-th allowed CPU (mod their
/// count), as captured at the first call. A failure leaves it unpinned.
void pin_to_cpu(std::uint64_t i);

/// One span: a named interval on the benchmark's side of a call into a
/// layer. `parent` indexes the enclosing span (-1 at top level);
/// `episode` groups the spans of one episode or ladder rung.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t episode = 0;
};

/// Spans kept in memory and written out when the run ends.
class SpanLog {
 public:
  std::int32_t open(const char* name);
  void close(std::int32_t index);
  void set_episode(std::uint32_t episode) { episode_ = episode; }

  /// Per span name: count, inclusive nanoseconds, and self nanoseconds
  /// (duration minus the part covered by direct children).
  struct Totals {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  std::map<std::string, Totals> totals() const;

  /// Writes the spans of episodes up to `last_episode` (0 holds the
  /// ladder rungs) as Chrome trace-event JSON ("X" events, µs since the
  /// first span); returns false if the file cannot be written.
  bool write_chrome_json(const std::string& path,
                         std::uint32_t last_episode) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint32_t episode_ = 0;
};

/// RAII span; a null log records nothing (the untraced path).
class Scope {
 public:
  Scope(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->open(name) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::int32_t index_;
};

/// Order-sensitive 64-bit fingerprint of a word sequence (a multiply-
/// xorshift chain): what an answer is checked by.
class Digest {
 public:
  void add(std::uint64_t word) {
    h_ = (h_ ^ word) * 0x9E3779B97F4A7C15ULL;
    h_ ^= h_ >> 31;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Pre-generated arrivals: arrival i carries elements[i], lands at
/// sites[i] and belongs to slot i / per_slot.
struct Input {
  std::vector<std::uint64_t> elements;
  std::vector<std::uint8_t> sites;
  std::uint64_t per_slot = 1;

  std::size_t size() const { return elements.size(); }
  dds::sim::Slot slot_of(std::size_t i) const {
    return static_cast<dds::sim::Slot>(i / per_slot);
  }
};

/// Uniform elements over [1, domain], uniform sites, `per_slot`
/// arrivals per slot.
Input uniform_input(std::uint64_t seed, std::size_t arrivals,
                    std::uint64_t domain, std::uint32_t num_sites,
                    std::uint64_t per_slot);

/// Replays input arrivals [begin, end).
class InputSource final : public dds::sim::ArrivalSource {
 public:
  InputSource(const Input& input, std::size_t begin, std::size_t end)
      : input_(input), pos_(begin), end_(end) {}
  std::optional<dds::sim::Arrival> next() override {
    if (pos_ >= end_) return std::nullopt;
    const std::size_t i = pos_++;
    return dds::sim::Arrival{input_.slot_of(i), input_.sites[i],
                             input_.elements[i]};
  }

 private:
  const Input& input_;
  std::size_t pos_;
  std::size_t end_;
};

/// What a workload measured. The end-to-end figures come from the K
/// reported untraced episodes; `layers` is filled only by the traced run.
struct Result {
  std::vector<double> setup_s;   ///< median of each setup batch
  std::vector<double> heap_kib;  ///< the deployment's peak heap
  double ingest_arr_per_s = 0.0;
  double p50_us = 0.0;  ///< over the queries' fastest times
  double p99_us = 0.0;
  /// Sums of the fastest chunk and query times, ns per arrival: ingest
  /// alone, queries alone, and both (the denominator of the layer
  /// shares).
  double ingest_ns = 0.0;
  double query_ns = 0.0;
  double wall_ns = 0.0;
  /// The current episode's ingest chunk times (s) and query latencies
  /// (µs), in input order. Workloads reserve both before the first
  /// episode, so that filling them allocates nothing inside it.
  std::vector<double> chunk_s;
  std::vector<double> query_us;
  std::uint64_t queries_per_episode = 0;
  std::uint64_t arrivals = 0;  ///< per episode
  std::uint64_t msgs = 0;      ///< per episode
  std::uint64_t wire_bytes = 0;
  std::uint64_t site_reports = 0;  ///< site -> coordinator messages
  std::uint64_t state_peak = 0;
  std::uint64_t checked = 0;
  std::uint64_t failed = 0;
  std::uint64_t episodes = 0;  ///< untraced episodes run
  std::uint64_t reported = 0;  ///< of which reported (K, or all if fewer)
  /// Per-layer metrics (name -> value), traced run only.
  std::map<std::string, double> layers;
  /// Human-readable lines printed before the result (ladders, spans).
  std::vector<std::string> notes;

  /// Records one ingest chunk's time.
  void ingested(double s) { chunk_s.push_back(s); }
  /// Records one query's latency and checks its answer.
  void check(double us, std::uint64_t got, std::uint64_t want) {
    query_us.push_back(us);
    verify(got, want);
  }
  /// Checks one answer (digest) against its reference digest.
  void verify(std::uint64_t got, std::uint64_t want) {
    ++checked;
    if (got != want) ++failed;
  }
};

/// Seconds since `start`.
inline double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Constructs `reps` objects with `build` and returns the median
/// construction time in seconds; each object is destroyed outside the
/// timed region.
template <typename Build>
double setup_batch(Build&& build, int reps) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    auto built = build();
    times.push_back(since(t0));
    (void)built;
  }
  return median(std::move(times));
}

/// Smallest element (0 when empty). Best-of statistics: the noise on
/// this kind of host only adds time (see the top comment).
inline double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Smallest of `reps` results of `f()` (a ladder rung's time).
template <typename F>
double best_of(int reps, F&& f) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) v.push_back(f());
  return min_of(v);
}

/// Keeps a timed result observable, so the optimizer cannot drop the
/// work that produced it.
inline void keep(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

/// Clamps a rung difference at zero: noise can make an upper rung read
/// faster than the one below it.
inline double nonneg(double x) { return x > 0.0 ? x : 0.0; }

/// Episodes reported per run (see the top comment). A 20 s run fits
/// 35 to 110 episodes of each workload on a shared 4-vCPU VM.
constexpr std::size_t kReportEpisodes = 16;

/// What one episode measured besides its chunk and query times.
struct EpisodeSummary {
  std::uint64_t arrivals = 0;
  /// HeapWatch::peak_bytes over setup, ingest and queries.
  std::int64_t heap_bytes = 0;
};

/// Chunk or query times of one episode each, in input order.
using History = std::vector<std::vector<double>>;

/// Indices of `k` episodes spread evenly over `n` (all of them if fewer).
std::vector<std::size_t> spread_picks(std::size_t n, std::size_t k);

/// Position by position, the smallest time over the picked episodes.
std::vector<double> fastest(const History& history,
                            const std::vector<std::size_t>& picks);

inline double sum_of(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// Repetitions of a ladder rung that is timed chunk by chunk.
constexpr std::size_t kRungReps = 8;

/// Times a rung like the episodes: runs `pass(times)` kRungReps times,
/// each filling `times` with its chunks' times (s) in input order, and
/// returns the sum of each chunk's fastest time.
template <typename Pass>
double fastest_total(Pass&& pass) {
  History history(kRungReps);
  for (std::vector<double>& times : history) pass(times);
  return sum_of(fastest(history, spread_picks(kRungReps, kRungReps)));
}

/// The closed loop: runs `episode(log)` until `options.seconds` have
/// passed since `start` (at least once), then reports over
/// kReportEpisodes of them spread over the run. Untraced episodes get a
/// null log and give the end-to-end figures; before the first of them,
/// kReportEpisodes batches of constructions are timed with `build`. The
/// traced run follows
/// each untraced episode with a traced one (spans on) instead, and the
/// ratio of their ingest times is trace.overhead_ratio.
template <typename Episode, typename Build>
void run_episodes(const Options& options, Clock::time_point start,
                  SpanLog* log, Result& r, Episode&& episode, Build&& build) {
  constexpr int kSetupReps = 51;
  History chunks, queries, traced_chunks;
  std::vector<double> heap_kib;
  double n = 0.0;  // arrivals per episode
  const auto clear = [&r] {
    r.chunk_s.clear();
    r.query_us.clear();
  };
  // Set-up is timed before the first episode: UDP construction slowed
  // from 50 to 80-120 µs over a run whose episodes came in between.
  for (std::size_t b = 0; log == nullptr && b < kReportEpisodes; ++b) {
    pin_to_cpu(b);
    r.setup_s.push_back(setup_batch(build, kSetupReps));
  }
  do {
    pin_to_cpu(r.episodes);
    clear();
    const EpisodeSummary t = episode(nullptr);
    chunks.push_back(r.chunk_s);
    queries.push_back(r.query_us);
    heap_kib.push_back(static_cast<double>(t.heap_bytes) / 1024.0);
    n = static_cast<double>(t.arrivals);
    ++r.episodes;
    if (log != nullptr) {
      log->set_episode(static_cast<std::uint32_t>(r.episodes));
      Scope scope(log, "episode");
      clear();
      episode(log);
      traced_chunks.push_back(r.chunk_s);
    }
  } while (since(start) < options.seconds);
  clear();
  const auto picks = spread_picks(chunks.size(), kReportEpisodes);
  r.reported = picks.size();
  for (const std::size_t i : picks) r.heap_kib.push_back(heap_kib[i]);
  const double ingest_s = sum_of(fastest(chunks, picks));
  const std::vector<double> query_us = fastest(queries, picks);
  r.queries_per_episode = query_us.size();
  r.ingest_arr_per_s = n / ingest_s;
  r.p50_us = percentile(query_us, 0.50);
  r.p99_us = percentile(query_us, 0.99);
  r.ingest_ns = ingest_s * 1e9 / n;
  r.query_ns = sum_of(query_us) * 1e3 / n;
  r.wall_ns = r.ingest_ns + r.query_ns;
  if (log != nullptr) {
    const auto traced_picks = spread_picks(traced_chunks.size(), kReportEpisodes);
    r.layers["trace.overhead_ratio"] =
        sum_of(fastest(traced_chunks, traced_picks)) / ingest_s;
  }
}

/// Adds the span-derived per-layer figures and the span summary (over
/// every span) to `r`, and writes the ladder's and the first traced
/// episode's spans to options.trace_out (if set), which keeps the file
/// to a few MB.
void finish_trace(const Options& options, const SpanLog& log, Result& r);

/// share.<layer> = self ns per arrival / wall ns per arrival.
void set_shares(Result& r, const std::map<std::string, double>& self_ns);

Result run_infinite_sharded(const Options& options);
Result run_sliding_exact(const Options& options);
Result run_tenant_serving(const Options& options);
Result run_sliding_udp(const Options& options);

}  // namespace perfbench
