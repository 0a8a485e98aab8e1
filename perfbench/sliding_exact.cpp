// sliding_exact: the exact sliding-window bottom-s deployment
// (baseline::BottomSSlidingSystem), k=8, s=16, w=500 slots, 64 uniform
// arrivals per slot over a 1M domain, 1 shard on the Bus, a sample(now)
// query every slot. Nearly all the time goes to the per-site candidate
// substrate (SDominanceSet) and the per-arrival local bottom-s sync; it
// routes nothing and sends few messages.
#include <algorithm>
#include <memory>

#include "baseline/baseline_system.h"
#include "core/windowed_bottom_s.h"
#include "layers.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "window_reference.h"

namespace perfbench {
namespace {

using dds::baseline::BottomSSlidingSystem;
using dds::sim::Slot;

constexpr std::uint32_t kSites = 8;
constexpr std::size_t kSampleSize = 16;
constexpr Slot kWindow = 500;
constexpr std::uint64_t kPerSlot = 64;
constexpr std::uint64_t kDomain = 1'000'000;

dds::core::SystemConfig make_config(std::uint64_t seed, bool metrics) {
  dds::core::SystemConfig config;
  config.num_sites = kSites;
  config.sample_size = kSampleSize;
  config.seed = seed;
  config.window = kWindow;
  config.num_shards = 1;
  config.network.kind = dds::net::TransportKind::kBus;
  config.observability.metrics = metrics;
  return config;
}

/// Reference digests, one per slot.
std::vector<std::uint64_t> reference(const Input& input, Slot slots,
                                     const dds::hash::HashFunction& hash_fn,
                                     bool corrupt) {
  WindowReference window;
  std::vector<std::uint64_t> digests;
  for (Slot t = 0; t < slots; ++t) {
    window.advance(input, t, kWindow, hash_fn);
    digests.push_back(
        window.digest(kSampleSize, t, kWindow, corrupt && t == slots / 2));
  }
  return digests;
}

}  // namespace

Result run_sliding_exact(const Options& options) {
  Result r;
  const Slot slots = options.small ? 700 : 2000;
  const Input input =
      uniform_input(dds::util::derive_seed(options.seed, 0x5E), slots * kPerSlot,
                    kDomain, kSites, kPerSlot);
  const auto config = make_config(options.seed, false);
  const BottomSSlidingSystem probe(config);
  const dds::hash::HashFunction& hash_fn = probe.hash_fn();
  const std::vector<std::uint64_t> want =
      reference(input, slots, hash_fn, options.corrupt_reference);
  r.arrivals = input.size();
  r.query_us.reserve(want.size());
  r.chunk_s.reserve(want.size());

  SpanLog spans;
  SpanLog* log = options.trace ? &spans : nullptr;
  std::uint64_t swept = 0, sweep_updates = 0;
  std::vector<dds::sim::Message> captured;

  const auto episode = [&](SpanLog* elog, std::vector<dds::sim::Message>* tap) {
    EpisodeSummary t;
    t.arrivals = input.size();
    const HeapWatch heap;
    std::unique_ptr<BottomSSlidingSystem> system;
    {
      Scope s(elog, "setup");
      system = std::make_unique<BottomSSlidingSystem>(
          make_config(options.seed, elog != nullptr));
    }
    if (tap != nullptr) {
      system->bus().set_tap(
          [tap](const dds::sim::Message& m) { tap->push_back(m); });
    }
    std::vector<dds::treap::Candidate> answer;
    for (Slot now = 0; now < slots; ++now) {
      InputSource source(input, now * kPerSlot, (now + 1) * kPerSlot);
      auto t0 = Clock::now();
      {
        Scope s(elog, "ingest");
        system->run(source);
      }
      r.ingested(since(t0));
      t0 = Clock::now();
      {
        Scope s(elog, "query");
        answer = system->sample(now);
      }
      const double q_us = since(t0) * 1e6;
      Scope s(elog, "check");
      r.check(q_us, digest_candidates(answer), want[now]);
      r.state_peak = std::max<std::uint64_t>(r.state_peak,
                                             system->total_site_state());
    }
    t.heap_bytes = heap.peak_bytes();
    r.msgs = system->bus().counters().total;
    r.wire_bytes = system->bus().counters().bytes;
    r.site_reports = system->bus().counters().site_to_coordinator;
    if (elog != nullptr) {
      const auto snap = system->observability().snapshot();
      swept = snap.counter_or("substrate.sweep.tuples");
      sweep_updates = snap.counter_or("substrate.sweep.updates");
    }
    return t;
  };
  const auto plain = [&](SpanLog* elog) { return episode(elog, nullptr); };

  const auto build = [&] {
    return std::make_unique<BottomSSlidingSystem>(config);
  };
  const auto start = Clock::now();
  if (!options.trace) {
    run_episodes(options, start, nullptr, r, plain, build);
    return r;
  }

  double hash_ns = 0, route_ns = 0, dispatch_ns = 0, sampler_ns = 0;
  double bytes_per_tuple = 0, bus_ns = 0;
  CodecCost codec;
  {
    Scope s(log, "rung.hash");
    hash_ns = hash_ns_per_key(hash_fn, input);
  }
  {
    Scope s(log, "rung.route");
    route_ns = route_ns_per_lookup(probe.router(), input);
  }
  {
    Scope s(log, "rung.dispatch");
    dispatch_ns = dispatch_ns_per_arrival(input, kSites, true);
  }
  {
    // The substrate alone: one WindowedBottomSSampler per site, fed that
    // site's substream element by element, timed slot by slot.
    Scope s(log, "rung.sampler");
    sampler_ns = fastest_total([&](std::vector<double>& times) {
      std::vector<dds::core::WindowedBottomSSampler> samplers;
      samplers.reserve(kSites);
      for (std::uint32_t i = 0; i < kSites; ++i) {
        samplers.emplace_back(kSampleSize, kWindow, hash_fn);
      }
      for (std::size_t b = 0; b < input.size(); b += kPerSlot) {
        const auto t0 = Clock::now();
        for (std::size_t i = b; i < b + kPerSlot; ++i) {
          samplers[input.sites[i]].observe(input.elements[i],
                                           input.slot_of(i));
        }
        times.push_back(since(t0));
      }
      std::size_t bytes = 0, tuples = 0;
      for (const auto& sampler : samplers) {
        bytes += sampler.footprint_bytes();
        tuples += sampler.state_size();
      }
      bytes_per_tuple = tuples == 0 ? 0.0
                                    : static_cast<double>(bytes) /
                                          static_cast<double>(tuples);
    }) * 1e9 / static_cast<double>(input.size());
  }
  {
    Scope s(log, "rung.capture");
    episode(nullptr, &captured);
  }
  {
    Scope s(log, "rung.bus");
    bus_ns = bus_ns_per_msg(captured, kSites, 1);
  }
  {
    Scope s(log, "rung.codec");
    codec = codec_ns_per_msg(captured);
  }
  run_episodes(options, start, log, r, plain, build);

  const double n = static_cast<double>(input.size());
  const double net_ns = bus_ns * static_cast<double>(r.msgs) / n;
  auto& L = r.layers;
  L["hash.ns_per_key"] = hash_ns;
  L["core.route.ns_per_lookup"] = route_ns;
  L["core.site.report_ratio"] = static_cast<double>(r.site_reports) / n;
  L["baseline.sync.ns_per_arrival"] = nonneg(r.ingest_ns - sampler_ns);
  L["treap.observe_ns"] = sampler_ns;
  L["treap.sweep_tuples_per_update"] =
      sweep_updates == 0 ? 0.0
                         : static_cast<double>(swept) /
                               static_cast<double>(sweep_updates);
  L["treap.bytes_per_tuple"] = bytes_per_tuple;
  L["net.wire.encode_ns_per_msg"] = codec.encode_ns;
  L["net.wire.decode_ns_per_msg"] = codec.decode_ns;
  L["net.msgs_per_arrival"] = static_cast<double>(r.msgs) / n;
  L["net.wire_bytes_per_arrival"] = static_cast<double>(r.wire_bytes) / n;
  L["sim.engine.dispatch_ns_per_arrival"] = dispatch_ns;
  // Noise can make the samplers alone read slower than the deployment
  // around them; their self time is capped at the deployment's.
  set_shares(r, {{"sim", dispatch_ns},
                 {"hash", hash_ns},
                 {"treap", std::min(sampler_ns, r.ingest_ns) - hash_ns},
                 {"baseline.sync", r.ingest_ns - sampler_ns - dispatch_ns - net_ns},
                 {"net", net_ns},
                 {"query", r.query_ns}});
  char line[200];
  std::snprintf(line, sizeof line,
                "ladder ns/arrival: dispatch %.1f, hash %.1f, sampler %.1f, "
                "deployment %.1f, bus %.1f ns/msg",
                dispatch_ns, hash_ns, sampler_ns, r.ingest_ns, bus_ns);
  r.notes.insert(r.notes.begin(), line);
  finish_trace(options, spans, r);
  return r;
}

}  // namespace perfbench
