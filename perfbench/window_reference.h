// Brute-force sliding-window oracle: every arrival of the last W slots
// kept in one ordered map, so the exact bottom-s of any width w <= W
// window is a scan in hash order.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "harness.h"
#include "hash/hash_function.h"

namespace perfbench {

class WindowReference {
 public:
  /// Slides a width-`window` window over `input` to slot `t`: forgets
  /// the arrivals of slot t - window and adds those of slot t.
  void advance(const Input& input, dds::sim::Slot t, dds::sim::Slot window,
               const dds::hash::HashFunction& hash_fn) {
    const auto per_slot = static_cast<dds::sim::Slot>(input.per_slot);
    const auto slot_arrivals = [&](dds::sim::Slot slot) {
      return std::pair<std::size_t, std::size_t>(
          static_cast<std::size_t>(slot * per_slot),
          static_cast<std::size_t>((slot + 1) * per_slot));
    };
    if (t >= window) {
      const auto [begin, end] = slot_arrivals(t - window);
      for (std::size_t i = begin; i < end; ++i) {
        remove(input.elements[i], hash_fn(input.elements[i]));
      }
    }
    const auto [begin, end] = slot_arrivals(t);
    for (std::size_t i = begin; i < end; ++i) {
      add(input.elements[i], hash_fn(input.elements[i]), t);
    }
  }

  /// Digest of the exact bottom-s of the width-`width` window ending at
  /// `now` (arrivals at slots > now - width), hash-ascending, each as
  /// (element, hash, expiry = last arrival + width). `drop_last` leaves
  /// the largest member out: a deliberately wrong answer.
  std::uint64_t digest(std::size_t s, dds::sim::Slot now,
                       dds::sim::Slot width, bool drop_last) const {
    Digest d;
    std::size_t taken = 0;
    const std::size_t want = drop_last && s > 0 ? s - 1 : s;
    for (const auto& [key, entry] : window_) {
      if (taken == want) break;
      if (entry.last <= now - width) continue;
      d.add(key.second);
      d.add(key.first);
      d.add(static_cast<std::uint64_t>(entry.last + width));
      ++taken;
    }
    return d.value();
  }

 private:
  /// An arrival of `element` (hash `hash`) at slot `t`.
  void add(std::uint64_t element, std::uint64_t hash, dds::sim::Slot t) {
    Entry& entry = window_[{hash, element}];
    ++entry.count;
    entry.last = t;
  }

  /// Forgets the oldest arrival of `element` (it left the window).
  void remove(std::uint64_t element, std::uint64_t hash) {
    const auto it = window_.find({hash, element});
    if (it != window_.end() && --it->second.count == 0) window_.erase(it);
  }

  struct Entry {
    std::uint64_t count = 0;
    dds::sim::Slot last = 0;
  };
  std::map<std::pair<std::uint64_t, std::uint64_t>, Entry> window_;
};

/// Digest of a candidate list in the same word order as
/// WindowReference::digest.
template <typename Candidates>
std::uint64_t digest_candidates(const Candidates& candidates) {
  Digest d;
  for (const auto& c : candidates) {
    d.add(c.element);
    d.add(c.hash);
    d.add(static_cast<std::uint64_t>(c.expiry));
  }
  return d.value();
}

}  // namespace perfbench
