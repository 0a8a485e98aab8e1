// infinite_sharded: Algorithms 1-2 (InfiniteSystem with duplicate
// suppression), k=32 sites, s=16, 4 coordinator shards on the Bus, fed
// the repo's OC48-like synthetic trace. Almost every arrival stops at
// the site threshold filter, so per-arrival cost is hash, route and
// filter; routing is the layer this workload exists to expose. A merged
// sample() query runs every 1024 arrivals (4128 per trace).
//
// An episode runs three independent traces, each on a fresh deployment,
// and site_state_peak and heap_peak_kib are the means of their peaks: a
// site's suppression set keeps every element that entered the sample
// when the site reported it, so the peak hinges on which heavy hitters
// got in early, and one trace's peak moved 11% (interquartile range
// over median) across ten seeds.
#include <memory>
#include <set>
#include <utility>

#include "core/system.h"
#include "layers.h"
#include "obs/metrics.h"
#include "stream/trace_synth.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using dds::core::InfiniteSystem;

constexpr std::uint32_t kSites = 32;
constexpr std::size_t kSampleSize = 16;
constexpr std::uint32_t kShards = 4;
constexpr std::size_t kQueryEvery = 1024;
constexpr std::size_t kTraces = 3;

const InfiniteSystem::Options kOptions{/*eager_threshold=*/false,
                                       /*suppress_duplicates=*/true};

dds::core::SystemConfig make_config(std::uint64_t seed, std::uint32_t shards,
                                    bool metrics) {
  dds::core::SystemConfig config;
  config.num_sites = kSites;
  config.sample_size = kSampleSize;
  config.seed = seed;
  config.num_shards = shards;
  config.network.kind = dds::net::TransportKind::kBus;
  config.observability.metrics = metrics;
  return config;
}

Input make_input(const Options& options, std::uint64_t trace) {
  const double scale = options.small ? 0.002 : 0.05;
  auto stream = dds::stream::make_trace(
      dds::stream::Dataset::kOc48, scale,
      dds::util::derive_seed(options.seed, 0x0C48 + trace));
  Input input;
  input.elements.reserve(stream->length());
  input.sites.reserve(stream->length());
  dds::util::SplitMix64 sites(
      dds::util::derive_seed(options.seed, 0x517E + trace));
  while (const auto e = stream->next()) {
    input.elements.push_back(*e);
    input.sites.push_back(static_cast<std::uint8_t>(sites.next() % kSites));
  }
  return input;
}

std::uint64_t digest(const dds::core::BottomSSample& sample) {
  Digest d;
  for (const auto& entry : sample.entries()) {
    d.add(entry.element);
    d.add(entry.hash);
  }
  return d.value();
}

/// Exact bottom-s of the distinct elements seen so far, after each
/// query chunk: kept as the s smallest (hash, element) pairs, which is
/// all a bottom-s of a growing set ever needs.
std::vector<std::uint64_t> reference(const Input& input,
                                     const dds::hash::HashFunction& hash_fn,
                                     bool corrupt) {
  std::set<std::pair<std::uint64_t, std::uint64_t>> bottom;
  std::vector<std::uint64_t> digests;
  const std::size_t queries = (input.size() + kQueryEvery - 1) / kQueryEvery;
  for (std::size_t q = 0; q < queries; ++q) {
    const std::size_t end = std::min(input.size(), (q + 1) * kQueryEvery);
    for (std::size_t i = q * kQueryEvery; i < end; ++i) {
      const std::uint64_t e = input.elements[i];
      const std::uint64_t h = hash_fn(e);
      if (bottom.size() < kSampleSize || h < std::prev(bottom.end())->first) {
        bottom.emplace(h, e);
        if (bottom.size() > kSampleSize) bottom.erase(std::prev(bottom.end()));
      }
    }
    Digest d;
    std::size_t n = 0;
    const bool drop_last = corrupt && q == queries / 2;
    for (const auto& [h, e] : bottom) {
      if (drop_last && ++n == bottom.size()) break;
      d.add(e);
      d.add(h);
    }
    digests.push_back(d.value());
  }
  return digests;
}

/// One pass of the input through a fresh deployment without queries
/// (a ladder rung), recording each chunk's time in `times`. Optionally
/// captures every message.
void deployment_rung(const Input& input, std::uint32_t shards,
                     std::uint64_t seed, std::vector<double>& times,
                     std::vector<dds::sim::Message>* capture,
                     std::uint64_t* msgs) {
  InfiniteSystem system(make_config(seed, shards, false), kOptions);
  if (capture != nullptr) {
    system.bus().set_tap(
        [capture](const dds::sim::Message& m) { capture->push_back(m); });
  }
  for (std::size_t b = 0; b < input.size(); b += kQueryEvery) {
    InputSource source(input, b, std::min(input.size(), b + kQueryEvery));
    const auto t0 = Clock::now();
    system.run(source);
    times.push_back(since(t0));
  }
  if (msgs != nullptr) *msgs = system.bus().counters().total;
}

}  // namespace

Result run_infinite_sharded(const Options& options) {
  Result r;
  const auto config = make_config(options.seed, kShards, false);
  const InfiniteSystem probe(config, kOptions);
  const dds::hash::HashFunction& hash_fn = probe.hash_fn();
  struct Trace {
    Input input;
    std::vector<std::uint64_t> want;
  };
  std::vector<Trace> traces(kTraces);
  std::size_t queries = 0;
  for (std::size_t k = 0; k < kTraces; ++k) {
    traces[k].input = make_input(options, k);
    traces[k].want =
        reference(traces[k].input, hash_fn, options.corrupt_reference);
    queries += traces[k].want.size();
  }
  r.query_us.reserve(queries);
  r.chunk_s.reserve(queries);
  // The ladder runs on the first trace.
  const Input& ladder_input = traces[0].input;

  SpanLog spans;
  SpanLog* log = options.trace ? &spans : nullptr;
  std::vector<double> merged_ns, single_ns;
  std::uint64_t route_hits = 0, route_lookups = 0;
  std::uint64_t msgs = 0, wire_bytes = 0, site_reports = 0, state_peak = 0;

  // One trace through a fresh deployment; adds its times to `t` and
  // returns its peak site state.
  const auto run_trace = [&](const Trace& trace, SpanLog* elog,
                             EpisodeSummary& t) {
    const Input& input = trace.input;
    const std::vector<std::uint64_t>& want = trace.want;
    std::uint64_t peak = 0;
    const HeapWatch heap;
    std::unique_ptr<InfiniteSystem> system;
    {
      Scope s(elog, "setup");
      system = std::make_unique<InfiniteSystem>(
          make_config(options.seed, kShards, elog != nullptr), kOptions);
    }
    for (std::size_t q = 0; q < want.size(); ++q) {
      const std::size_t b = q * kQueryEvery;
      InputSource source(input, b, std::min(input.size(), b + kQueryEvery));
      auto t0 = Clock::now();
      {
        Scope s(elog, "ingest");
        system->run(source);
      }
      r.ingested(since(t0));
      t0 = Clock::now();
      dds::core::BottomSSample sample = [&] {
        Scope s(elog, "query");
        return system->sample();
      }();
      const double q_us = since(t0) * 1e6;
      Scope s(elog, "check");
      r.check(q_us, digest(sample), want[q]);
      peak = std::max<std::uint64_t>(peak, system->total_site_state());
      if (elog != nullptr) {
        // The merge layer's self time: merged answer vs one shard's.
        auto m0 = Clock::now();
        const auto merged = system->sample().entries();
        merged_ns.push_back(since(m0) * 1e9);
        m0 = Clock::now();
        const auto single = system->coordinator(0).sample().entries();
        single_ns.push_back(since(m0) * 1e9);
        keep(merged.data());
        keep(single.data());
      }
    }
    t.arrivals += input.size();
    t.heap_bytes += heap.peak_bytes();
    msgs += system->bus().counters().total;
    wire_bytes += system->bus().counters().bytes;
    site_reports += system->bus().counters().site_to_coordinator;
    if (elog != nullptr) {
      const auto snap = system->observability().snapshot();
      route_hits += snap.counter_or("deployment.route_cache.hits");
      route_lookups += snap.counter_or("deployment.route_cache.lookups");
    }
    return peak;
  };
  // Per-episode figures are means over the traces (counts per trace).
  const auto episode = [&](SpanLog* elog) {
    EpisodeSummary t;
    msgs = wire_bytes = site_reports = state_peak = 0;
    for (const Trace& trace : traces) state_peak += run_trace(trace, elog, t);
    t.heap_bytes /= static_cast<std::int64_t>(kTraces);
    r.arrivals = t.arrivals / kTraces;
    r.msgs = msgs / kTraces;
    r.wire_bytes = wire_bytes / kTraces;
    r.site_reports = site_reports / kTraces;
    r.state_peak = (state_peak + kTraces / 2) / kTraces;
    return t;
  };

  const auto build = [&] {
    return std::make_unique<InfiniteSystem>(config, kOptions);
  };
  const auto start = Clock::now();
  if (!options.trace) {
    run_episodes(options, start, nullptr, r, episode, build);
    return r;
  }

  // Ladder: each rung feeds the same input to one more layer.
  double hash_ns = 0, route_ns = 0, dispatch_ns = 0, t1_ns = 0, t4_ns = 0;
  double bus_ns = 0;
  std::uint64_t msgs1 = 0, msgs4 = 0;
  std::vector<dds::sim::Message> captured;
  CodecCost codec;
  {
    Scope s(log, "rung.hash");
    hash_ns = hash_ns_per_key(hash_fn, ladder_input);
  }
  {
    Scope s(log, "rung.route");
    route_ns = route_ns_per_lookup(probe.router(), ladder_input);
  }
  {
    Scope s(log, "rung.dispatch");
    dispatch_ns = dispatch_ns_per_arrival(ladder_input, kSites, false);
  }
  const double ladder_n = static_cast<double>(ladder_input.size());
  {
    Scope s(log, "rung.deployment_1_shard");
    t1_ns = fastest_total([&](std::vector<double>& times) {
      deployment_rung(ladder_input, 1, options.seed, times, nullptr, &msgs1);
    }) * 1e9 / ladder_n;
  }
  {
    Scope s(log, "rung.deployment_4_shards");
    std::vector<double> unused;
    deployment_rung(ladder_input, kShards, options.seed, unused, &captured,
                    &msgs4);
    t4_ns = fastest_total([&](std::vector<double>& times) {
      deployment_rung(ladder_input, kShards, options.seed, times, nullptr,
                      nullptr);
    }) * 1e9 / ladder_n;
  }
  {
    Scope s(log, "rung.bus");
    bus_ns = bus_ns_per_msg(captured, kSites, kShards);
  }
  {
    Scope s(log, "rung.codec");
    codec = codec_ns_per_msg(captured);
  }
  route_hits = route_lookups = 0;
  run_episodes(options, start, log, r, episode, build);

  const double n = static_cast<double>(r.arrivals);
  auto& L = r.layers;
  L["hash.ns_per_key"] = hash_ns;
  L["core.route.ns_per_lookup"] = route_ns;
  L["core.route.cache_hit_ratio"] =
      route_lookups == 0 ? 0.0
                         : static_cast<double>(route_hits) /
                               static_cast<double>(route_lookups);
  L["core.site.report_ratio"] = static_cast<double>(r.site_reports) / n;
  L["query.merge.ns_per_query"] = nonneg(median(merged_ns) - median(single_ns));
  L["net.wire.encode_ns_per_msg"] = codec.encode_ns;
  L["net.wire.decode_ns_per_msg"] = codec.decode_ns;
  L["net.msgs_per_arrival"] = static_cast<double>(r.msgs) / n;
  L["net.wire_bytes_per_arrival"] = static_cast<double>(r.wire_bytes) / n;
  L["sim.engine.dispatch_ns_per_arrival"] = dispatch_ns;
  const double net1 = bus_ns * static_cast<double>(msgs1) / ladder_n;
  const double net4 = bus_ns * static_cast<double>(msgs4) / ladder_n;
  set_shares(r, {{"sim", dispatch_ns},
                 {"hash", hash_ns},
                 {"core.route", t4_ns - t1_ns - (net4 - net1)},
                 {"core.site", t1_ns - dispatch_ns - hash_ns - net1},
                 {"net", net4},
                 {"query", r.query_ns}});
  char line[200];
  std::snprintf(line, sizeof line,
                "ladder ns/arrival: dispatch %.1f, hash %.1f, 1 shard %.1f, "
                "4 shards %.1f, bus %.1f ns/msg",
                dispatch_ns, hash_ns, t1_ns, t4_ns, bus_ns);
  r.notes.insert(r.notes.begin(), line);
  finish_trace(options, spans, r);
  return r;
}

}  // namespace perfbench
