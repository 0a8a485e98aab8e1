// sliding_udp: Algorithms 3-4 (core::SlidingSystem, s=16 copies), k=3
// sites and 1 coordinator over real UDP sockets on 127.0.0.1, w=50
// slots, 16 uniform arrivals per slot, sample(now) every slot. The only
// workload where net does real work: the wire codec, the ack-bit
// connections and poll/sendto/recvfrom all sit on its path.
//
// The lazy sliding scheme is not exact (core/sliding_coordinator.h), so
// the oracle is twofold: every per-slot answer must equal a Bus run of
// the same input (the Bus == UDP contract), and every returned element
// must have arrived inside the window.
#include <algorithm>
#include <memory>
#include <utility>

#include "core/system.h"
#include "layers.h"
#include "net/udp_transport.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using dds::core::SlidingSystem;
using dds::sim::Slot;

constexpr std::uint32_t kSites = 3;
constexpr std::size_t kSampleSize = 16;
constexpr Slot kWindow = 50;
constexpr std::uint64_t kPerSlot = 16;
constexpr std::uint64_t kDomain = 1'000'000;

dds::core::SystemConfig make_config(std::uint64_t seed,
                                    dds::net::TransportKind kind) {
  dds::core::SystemConfig config;
  config.num_sites = kSites;
  config.sample_size = kSampleSize;
  config.seed = seed;
  config.window = kWindow;
  config.num_shards = 1;
  config.network.kind = kind;
  return config;
}

std::uint64_t digest(const std::vector<dds::stream::Element>& sample,
                     bool drop_last) {
  Digest d;
  const std::size_t n = drop_last && !sample.empty() ? sample.size() - 1
                                                     : sample.size();
  for (std::size_t i = 0; i < n; ++i) d.add(sample[i]);
  return d.value();
}

}  // namespace

Result run_sliding_udp(const Options& options) {
  Result r;
  const Slot slots = options.small ? 600 : 4000;
  const Input input =
      uniform_input(dds::util::derive_seed(options.seed, 0x0D), slots * kPerSlot,
                    kDomain, kSites, kPerSlot);
  r.arrivals = input.size();
  r.query_us.reserve(static_cast<std::size_t>(slots));
  r.chunk_s.reserve(static_cast<std::size_t>(slots));
  // Every (element, slot) arrival, sorted: an answer's element is in
  // the window at `now` if it arrived in (now - kWindow, now].
  std::vector<std::pair<std::uint64_t, Slot>> arrived;
  arrived.reserve(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    arrived.emplace_back(input.elements[i], input.slot_of(i));
  }
  std::sort(arrived.begin(), arrived.end());
  const auto in_window = [&](std::uint64_t e, Slot now) {
    const auto it = std::lower_bound(arrived.begin(), arrived.end(),
                                     std::make_pair(e, now - kWindow + 1));
    return it != arrived.end() && it->first == e && it->second <= now;
  };
  SpanLog spans;
  SpanLog* log = options.trace ? &spans : nullptr;

  // One pass over the input on `kind`. With `record` set it records the
  // per-slot digests there (the Bus reference) and checks nothing;
  // otherwise it checks each answer against `want` and the window.
  std::vector<std::uint64_t> want;
  std::vector<dds::sim::Message>* tap = nullptr;
  dds::net::ConnStats conn;
  std::uint64_t logical_msgs = 0;
  const auto pass = [&](dds::net::TransportKind kind, SpanLog* elog,
                        std::vector<std::uint64_t>* record) {
    EpisodeSummary t;
    t.arrivals = input.size();
    const HeapWatch heap;
    std::unique_ptr<SlidingSystem> system;
    {
      Scope s(elog, "setup");
      system = std::make_unique<SlidingSystem>(make_config(options.seed, kind));
    }
    if (tap != nullptr) {
      system->bus().set_tap(
          [sink = tap](const dds::sim::Message& m) { sink->push_back(m); });
    }
    std::vector<dds::stream::Element> answer;
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
      if (record != nullptr) {
        const bool corrupt = options.corrupt_reference && now == slots / 2;
        record->push_back(digest(answer, corrupt));
        continue;
      }
      const bool inside = std::all_of(answer.begin(), answer.end(),
                                      [&](auto e) { return in_window(e, now); });
      const std::uint64_t got = digest(answer, false);
      r.check(q_us, inside ? got : ~got, want[now]);
      r.state_peak = std::max<std::uint64_t>(r.state_peak,
                                             system->total_site_state());
    }
    t.heap_bytes = heap.peak_bytes();
    if (record != nullptr) {
      logical_msgs = system->bus().counters().total;
    } else {
      r.msgs = system->bus().counters().total;
      r.wire_bytes = system->bus().counters().bytes;
      r.site_reports = system->bus().counters().site_to_coordinator;
      if (const auto* udp =
              dynamic_cast<const dds::net::UdpTransport*>(&system->bus())) {
        conn = udp->conn_totals();
      }
    }
    return t;
  };
  using dds::net::TransportKind;
  // The Bus reference, computed before any clock starts.
  pass(TransportKind::kBus, nullptr, &want);
  History bus_chunks{r.chunk_s};
  const auto udp_episode = [&](SpanLog* elog) {
    return pass(TransportKind::kUdp, elog, nullptr);
  };

  const auto build = [&] {
    return std::make_unique<SlidingSystem>(
        make_config(options.seed, TransportKind::kUdp));
  };
  const auto start = Clock::now();
  if (!options.trace) {
    run_episodes(options, start, nullptr, r, udp_episode, build);
    return r;
  }

  // Ladder. The Bus rung re-runs the reference pass, which times the
  // same calls as a UDP pass, kRungReps times, and takes each chunk's
  // fastest time like the episodes.
  const SlidingSystem probe(make_config(options.seed, TransportKind::kBus));
  double hash_ns = 0, route_ns = 0, dispatch_ns = 0, bus_deploy_ns = 0;
  double bus_ns = 0;
  std::vector<dds::sim::Message> captured;
  CodecCost codec;
  {
    Scope s(log, "rung.hash");
    hash_ns = hash_ns_per_key(probe.family().at(0), input);
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
    Scope s(log, "rung.deployment_bus");
    while (bus_chunks.size() < kRungReps) {
      std::vector<std::uint64_t> again;
      r.chunk_s.clear();
      pass(TransportKind::kBus, nullptr, &again);
      bus_chunks.push_back(r.chunk_s);
    }
    const auto all = spread_picks(bus_chunks.size(), bus_chunks.size());
    bus_deploy_ns = sum_of(fastest(bus_chunks, all)) * 1e9 /
                    static_cast<double>(input.size());
  }
  {
    Scope s(log, "rung.capture");
    std::vector<std::uint64_t> again;
    tap = &captured;
    pass(TransportKind::kBus, nullptr, &again);
    tap = nullptr;
  }
  {
    Scope s(log, "rung.bus");
    bus_ns = bus_ns_per_msg(captured, kSites, 1);
  }
  {
    Scope s(log, "rung.codec");
    codec = codec_ns_per_msg(captured);
  }
  run_episodes(options, start, log, r, udp_episode, build);

  const double n = static_cast<double>(input.size());
  const double bus_net = bus_ns * static_cast<double>(logical_msgs) / n;
  const double transport_ns = r.ingest_ns - bus_deploy_ns;
  const double hash_per_arrival = hash_ns * kSampleSize;
  auto& L = r.layers;
  L["hash.ns_per_key"] = hash_ns;
  L["core.route.ns_per_lookup"] = route_ns;
  L["core.site.report_ratio"] = static_cast<double>(r.site_reports) / n;
  L["net.wire.encode_ns_per_msg"] = codec.encode_ns;
  L["net.wire.decode_ns_per_msg"] = codec.decode_ns;
  L["net.transport.ns_per_msg"] =
      logical_msgs == 0 ? 0.0
                        : nonneg(transport_ns) * n /
                              static_cast<double>(logical_msgs);
  L["net.conn.retransmits"] = static_cast<double>(conn.retransmits);
  L["net.conn.ack_only_per_msg"] =
      conn.data_sent == 0 ? 0.0
                          : static_cast<double>(conn.ack_only_sent) /
                                static_cast<double>(conn.data_sent);
  L["net.msgs_per_arrival"] = static_cast<double>(r.msgs) / n;
  L["net.wire_bytes_per_arrival"] = static_cast<double>(r.wire_bytes) / n;
  L["sim.engine.dispatch_ns_per_arrival"] = dispatch_ns;
  set_shares(r, {{"sim", dispatch_ns},
                 {"hash", hash_per_arrival},
                 {"core.site",
                  bus_deploy_ns - dispatch_ns - hash_per_arrival - bus_net},
                 {"net", transport_ns + bus_net},
                 {"query", r.query_ns}});
  char line[200];
  std::snprintf(line, sizeof line,
                "ladder ns/arrival: dispatch %.1f, hash %.1f (x%zu), "
                "deployment on Bus %.1f, on UDP %.1f; bus %.1f ns/msg",
                dispatch_ns, hash_ns, kSampleSize, bus_deploy_ns, r.ingest_ns,
                bus_ns);
  r.notes.insert(r.notes.begin(), line);
  finish_trace(options, spans, r);
  return r;
}

}  // namespace perfbench
