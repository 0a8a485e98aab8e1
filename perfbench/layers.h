// Ladder rungs for the traced run: each feeds the workload's own input
// to one layer's public functions, so a layer's self time is the
// difference between a rung and the rungs below it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/shard_router.h"
#include "hash/hash_function.h"
#include "harness.h"
#include "sim/message.h"

namespace perfbench {

/// hash: HashFunction::hash_batch over every input element, ns per key.
double hash_ns_per_key(const dds::hash::HashFunction& hash_fn,
                       const Input& input);

/// core: ShardRouter::owner over every input element, ns per lookup.
double route_ns_per_lookup(const dds::core::ShardRouter& router,
                           const Input& input);

/// sim: a SerialEngine from sim::make_engine over no-op StreamNodes on a
/// Bus, driven by the whole input; ns per arrival.
double dispatch_ns_per_arrival(const Input& input, std::uint32_t num_sites,
                               bool invoke_slot_begin);

/// net: Bus send + drain of each captured message, delivered to no-op
/// nodes; ns per message (0 when nothing was captured).
double bus_ns_per_msg(const std::vector<dds::sim::Message>& msgs,
                      std::uint32_t num_sites, std::uint32_t num_shards);

/// net: wire::encode_message / wire::decode_frame over the captured
/// messages, ns per message each (0 when nothing was captured).
struct CodecCost {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
};
CodecCost codec_ns_per_msg(const std::vector<dds::sim::Message>& msgs);

}  // namespace perfbench
