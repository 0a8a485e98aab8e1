#include "layers.h"

#include <memory>
#include <stdexcept>

#include "net/config.h"
#include "net/factory.h"
#include "net/wire.h"
#include "sim/engine.h"
#include "sim/node.h"

namespace perfbench {
namespace {

using dds::sim::Message;

constexpr int kReps = 3;

/// A site or coordinator that does nothing: what remains of a rung is
/// the layer under test.
class NoopNode final : public dds::sim::StreamNode {
 public:
  void on_element(std::uint64_t /*element*/, dds::sim::Slot /*t*/,
                  dds::net::Transport& /*net*/) override {}
  void on_message(const Message& /*msg*/,
                  dds::net::Transport& /*net*/) override {}
};

std::unique_ptr<dds::net::Transport> make_bus(std::uint32_t num_sites,
                                              std::uint32_t num_shards) {
  dds::net::NetworkConfig network;
  network.kind = dds::net::TransportKind::kBus;
  return dds::net::make_transport(num_sites, network, num_shards);
}

}  // namespace

double hash_ns_per_key(const dds::hash::HashFunction& hash_fn,
                       const Input& input) {
  std::vector<std::uint64_t> out(input.size());
  const double seconds = best_of(kReps, [&] {
    const auto t0 = Clock::now();
    hash_fn.hash_batch(input.elements.data(), input.size(), out.data());
    const double s = since(t0);
    keep(out.data());
    return s;
  });
  return seconds * 1e9 / static_cast<double>(input.size());
}

double route_ns_per_lookup(const dds::core::ShardRouter& router,
                           const Input& input) {
  std::uint64_t sink = 0;
  const double seconds = best_of(kReps, [&] {
    const auto t0 = Clock::now();
    for (const std::uint64_t e : input.elements) sink += router.owner(e);
    return since(t0);
  });
  keep(&sink);
  return seconds * 1e9 / static_cast<double>(input.size());
}

double dispatch_ns_per_arrival(const Input& input, std::uint32_t num_sites,
                               bool invoke_slot_begin) {
  const double seconds = best_of(kReps, [&] {
    auto bus = make_bus(num_sites, 1);
    std::vector<NoopNode> nodes(num_sites + 1);
    std::vector<dds::sim::StreamNode*> sites;
    for (std::uint32_t i = 0; i <= num_sites; ++i) {
      bus->attach(i, &nodes[i]);
      if (i < num_sites) sites.push_back(&nodes[i]);
    }
    auto engine = dds::sim::make_engine(*bus, sites, invoke_slot_begin);
    InputSource source(input, 0, input.size());
    const auto t0 = Clock::now();
    engine->run(source);
    return since(t0);
  });
  return seconds * 1e9 / static_cast<double>(input.size());
}

double bus_ns_per_msg(const std::vector<Message>& msgs,
                      std::uint32_t num_sites, std::uint32_t num_shards) {
  if (msgs.empty()) return 0.0;
  const double seconds = best_of(kReps, [&] {
    auto bus = make_bus(num_sites, num_shards);
    std::vector<NoopNode> nodes(num_sites + num_shards);
    for (std::uint32_t i = 0; i < nodes.size(); ++i) bus->attach(i, &nodes[i]);
    const auto t0 = Clock::now();
    for (const Message& msg : msgs) {
      bus->send(msg);
      bus->drain();
    }
    return since(t0);
  });
  return seconds * 1e9 / static_cast<double>(msgs.size());
}

CodecCost codec_ns_per_msg(const std::vector<Message>& msgs) {
  if (msgs.empty()) return {};
  dds::net::wire::Buffer buffer;
  buffer.reserve(msgs.size() * dds::net::wire::message_frame_bytes());
  const double encode_s = best_of(kReps, [&] {
    buffer.clear();
    const auto t0 = Clock::now();
    for (const Message& msg : msgs) dds::net::wire::encode_message(msg, buffer);
    return since(t0);
  });
  std::size_t decoded = 0;
  const double decode_s = best_of(kReps, [&] {
    decoded = 0;
    std::size_t pos = 0;
    const auto t0 = Clock::now();
    while (pos < buffer.size()) {
      const auto frame = dds::net::wire::decode_frame(buffer, pos);
      if (!frame) break;
      decoded += frame->msgs.size();
    }
    return since(t0);
  });
  if (decoded != msgs.size()) {
    throw std::runtime_error("codec rung: decoded frames do not match");
  }
  const auto n = static_cast<double>(msgs.size());
  return {encode_s * 1e9 / n, decode_s * 1e9 / n};
}

}  // namespace perfbench
