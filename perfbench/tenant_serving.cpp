// tenant_serving: query::TenantRegistry with 64 tenants at widths
// W/64 ... W (W=5000 slots) over one stream, 4 uniform arrivals per slot
// ingested with update_batch, serve_all every slot. The read-heavy use
// of the sliding substrate: most of the time goes to the thresholded
// width queries, so a substrate change that speeds writes but slows the
// expiry-threshold walk shows here as a loss.
#include <algorithm>
#include <memory>

#include "core/windowed_bottom_s.h"
#include "layers.h"
#include "query/service.h"
#include "util/rng.h"
#include "window_reference.h"

namespace perfbench {
namespace {

using dds::query::TenantRegistry;
using dds::sim::Slot;

constexpr std::size_t kSampleSize = 16;
constexpr Slot kMaxWidth = 5000;
constexpr std::size_t kTenants = 64;
constexpr std::uint64_t kPerSlot = 4;
constexpr std::uint64_t kDomain = 1'000'000;

Slot width_of(std::size_t tenant) {
  return kMaxWidth * static_cast<Slot>(tenant + 1) /
         static_cast<Slot>(kTenants);
}

std::unique_ptr<TenantRegistry> make_registry(std::uint64_t seed) {
  auto registry = std::make_unique<TenantRegistry>(
      kSampleSize, kMaxWidth, 1, dds::hash::HashKind::kMurmur2,
      dds::util::derive_seed(seed, 0x7E4A));
  for (std::size_t i = 0; i < kTenants; ++i) {
    registry->register_tenant(width_of(i));
  }
  return registry;
}

/// Reference digests, kTenants per slot (tenant-major within a slot).
std::vector<std::uint64_t> reference(const Input& input, Slot slots,
                                     const dds::hash::HashFunction& hash_fn,
                                     bool corrupt) {
  WindowReference window;
  std::vector<std::uint64_t> digests;
  digests.reserve(static_cast<std::size_t>(slots) * kTenants);
  for (Slot t = 0; t < slots; ++t) {
    window.advance(input, t, kMaxWidth, hash_fn);
    for (std::size_t tenant = 0; tenant < kTenants; ++tenant) {
      digests.push_back(window.digest(
          kSampleSize, t, width_of(tenant),
          corrupt && t == slots / 2 && tenant == kTenants / 2));
    }
  }
  return digests;
}

}  // namespace

Result run_tenant_serving(const Options& options) {
  Result r;
  const Slot slots = options.small ? 6000 : 15000;
  const Input input =
      uniform_input(dds::util::derive_seed(options.seed, 0x7E), slots * kPerSlot,
                    kDomain, 1, kPerSlot);
  const auto probe = make_registry(options.seed);
  const dds::hash::HashFunction& hash_fn = probe->sampler().hash_fn();
  const std::vector<std::uint64_t> want =
      reference(input, slots, hash_fn, options.corrupt_reference);
  r.arrivals = input.size();
  r.query_us.reserve(static_cast<std::size_t>(slots));
  r.chunk_s.reserve(static_cast<std::size_t>(slots));

  SpanLog spans;
  SpanLog* log = options.trace ? &spans : nullptr;
  std::uint64_t swept = 0, sweep_updates = 0;
  double bytes_per_tuple = 0;

  const auto episode = [&](SpanLog* elog) {
    EpisodeSummary t;
    t.arrivals = input.size();
    const HeapWatch heap;
    std::unique_ptr<TenantRegistry> registry;
    {
      Scope s(elog, "setup");
      registry = make_registry(options.seed);
    }
    for (Slot now = 0; now < slots; ++now) {
      const std::span<const std::uint64_t> batch(
          input.elements.data() + now * kPerSlot, kPerSlot);
      auto t0 = Clock::now();
      {
        Scope s(elog, "ingest");
        registry->update_batch(0, batch, now);
      }
      r.ingested(since(t0));
      t0 = Clock::now();
      const std::vector<std::vector<dds::treap::Candidate>>* answers = nullptr;
      {
        Scope s(elog, "query");
        answers = &registry->serve_all(now);
      }
      const double q_us = since(t0) * 1e6;
      Scope s(elog, "check");
      r.query_us.push_back(q_us);
      for (std::size_t i = 0; i < kTenants; ++i) {
        r.verify(digest_candidates((*answers)[i]),
                 want[static_cast<std::size_t>(now) * kTenants + i]);
      }
      r.state_peak =
          std::max<std::uint64_t>(r.state_peak, registry->state_size());
    }
    t.heap_bytes = heap.peak_bytes();
    const auto& candidates = registry->sampler().candidates();
    swept = candidates.swept_tuples();
    sweep_updates = candidates.updates();
    bytes_per_tuple = static_cast<double>(registry->sampler().footprint_bytes()) /
                      static_cast<double>(registry->sampler().state_size());
    return t;
  };

  const auto build = [&] { return make_registry(options.seed); };
  const auto start = Clock::now();
  if (!options.trace) {
    run_episodes(options, start, nullptr, r, episode, build);
    return r;
  }

  double hash_ns = 0, observe_ns = 0, width_ns = 0;
  {
    Scope s(log, "rung.hash");
    hash_ns = hash_ns_per_key(hash_fn, input);
  }
  {
    // The substrate alone: one sampler keyed at W, fed by observe_batch
    // like the registry, with every tenant width queried every slot;
    // each slot's ingest and queries take their fastest time over the
    // repetitions, like the episodes.
    Scope s(log, "rung.sampler");
    History ingest_s(kRungReps), query_s(kRungReps);
    for (std::size_t rep = 0; rep < kRungReps; ++rep) {
      dds::core::WindowedBottomSSampler sampler(kSampleSize, kMaxWidth, hash_fn);
      std::vector<dds::treap::Candidate> out;
      for (Slot now = 0; now < slots; ++now) {
        auto t0 = Clock::now();
        sampler.observe_batch({input.elements.data() + now * kPerSlot, kPerSlot},
                              now);
        ingest_s[rep].push_back(since(t0));
        t0 = Clock::now();
        for (std::size_t i = 0; i < kTenants; ++i) {
          sampler.sample_at_width_into(now, width_of(i), out);
        }
        query_s[rep].push_back(since(t0));
        keep(out.data());
      }
    }
    const auto all = spread_picks(kRungReps, kRungReps);
    observe_ns = sum_of(fastest(ingest_s, all)) * 1e9 /
                 static_cast<double>(input.size());
    width_ns = sum_of(fastest(query_s, all)) * 1e9 /
               static_cast<double>(static_cast<std::size_t>(slots) * kTenants);
  }
  run_episodes(options, start, log, r, episode, build);

  const double serve_all_ns = r.p50_us * 1e3;
  const double per_slot = static_cast<double>(kPerSlot);
  const double width_per_arrival = width_ns * kTenants / per_slot;
  auto& L = r.layers;
  L["hash.ns_per_key"] = hash_ns;
  L["treap.observe_ns"] = observe_ns;
  L["treap.sweep_tuples_per_update"] =
      sweep_updates == 0 ? 0.0
                         : static_cast<double>(swept) /
                               static_cast<double>(sweep_updates);
  L["treap.bytes_per_tuple"] = bytes_per_tuple;
  L["treap.width_query_ns"] = width_ns;
  L["query.service.serve_all_ns"] = serve_all_ns;
  L["query.service.ingest_ns_per_arrival"] = r.ingest_ns;
  // Noise can make the substrate alone read slower than the registry
  // around it; the substrate's self time is capped at the registry's.
  const double substrate_in = std::min(observe_ns, r.ingest_ns);
  const double substrate_q = std::min(width_per_arrival, r.query_ns);
  set_shares(r, {{"hash", hash_ns},
                 {"treap", substrate_in - hash_ns + substrate_q},
                 {"query", (r.ingest_ns - substrate_in) +
                               (r.query_ns - substrate_q)}});
  char line[200];
  std::snprintf(line, sizeof line,
                "ladder: hash %.1f ns/key, sampler observe %.1f ns/arrival, "
                "width query %.1f ns, registry ingest %.1f ns/arrival, "
                "serve_all %.1f ns",
                hash_ns, observe_ns, width_ns, r.ingest_ns, serve_all_ns);
  r.notes.insert(r.notes.begin(), line);
  finish_trace(options, spans, r);
  return r;
}

}  // namespace perfbench
