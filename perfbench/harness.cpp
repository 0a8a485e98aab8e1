#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "util/rng.h"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double upper = v[mid];
  const double lower = *std::max_element(v.begin(), v.begin() + mid);
  return 0.5 * (lower + upper);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

std::vector<std::size_t> spread_picks(std::size_t n, std::size_t k) {
  std::vector<std::size_t> picks;
  if (n <= k || k < 2) {
    for (std::size_t i = 0; i < n; ++i) picks.push_back(i);
    return picks;
  }
  // Steps of (n - 1) / (k - 1) >= 1 keep the picks distinct.
  for (std::size_t i = 0; i < k; ++i) picks.push_back(i * (n - 1) / (k - 1));
  return picks;
}

std::vector<double> fastest(const History& history,
                            const std::vector<std::size_t>& picks) {
  std::vector<double> out = history.at(picks.at(0));
  for (const std::size_t i : picks) {
    if (history[i].size() != out.size()) {
      throw std::logic_error("episodes timed different numbers of steps");
    }
    for (std::size_t j = 0; j < out.size(); ++j) {
      out[j] = std::min(out[j], history[i][j]);
    }
  }
  return out;
}

std::int32_t SpanLog::open(const char* name) {
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, now_ns(), 0,
                        stack_.empty() ? -1 : stack_.back(), episode_});
  stack_.push_back(index);
  return index;
}

void SpanLog::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double duration =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    Totals& t = out[spans_[i].name];
    ++t.count;
    t.total_ns += duration;
    t.self_ns += duration - child_ns[i];
  }
  return out;
}

bool SpanLog::write_chrome_json(const std::string& path,
                                std::uint32_t last_episode) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.episode > last_episode) continue;
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"episode\":%u}}",
                  first ? "" : ",", s.name,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent, s.episode);
    out << line;
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void pin_to_cpu(std::uint64_t i) {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[i % cpus.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}

void finish_trace(const Options& options, const SpanLog& log, Result& r) {
  const auto totals = log.totals();
  const auto total_of = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_ns;
  };
  const double query = total_of("query");
  const double busy = total_of("ingest") + query;
  r.layers["span.query_share"] = busy > 0.0 ? query / busy : 0.0;
  char line[160];
  r.notes.emplace_back("span                       count    total_ms     self_ms");
  for (const auto& [name, t] : totals) {
    std::snprintf(line, sizeof line, "%-24s %8llu %11.3f %11.3f", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_ns / 1e6,
                  t.self_ns / 1e6);
    r.notes.emplace_back(line);
  }
  if (!options.trace_out.empty() &&
      !log.write_chrome_json(options.trace_out, 1)) {
    throw std::runtime_error("cannot write " + options.trace_out);
  }
}

void set_shares(Result& r, const std::map<std::string, double>& self_ns) {
  static const char* const kLayers[] = {"hash",          "sim",   "core.route",
                                        "core.site",     "baseline.sync",
                                        "treap",         "query", "net"};
  char line[160];
  std::snprintf(line, sizeof line, "layer self time, ns/arrival (wall %.1f):",
                r.wall_ns);
  r.notes.emplace_back(line);
  for (const char* layer : kLayers) {
    const auto it = self_ns.find(layer);
    const double ns = it == self_ns.end() ? 0.0 : nonneg(it->second);
    r.layers[std::string("share.") + layer] = ns / r.wall_ns;
    std::snprintf(line, sizeof line, "  %-14s %10.1f  share %.3f", layer, ns,
                  ns / r.wall_ns);
    r.notes.emplace_back(line);
  }
}

Input uniform_input(std::uint64_t seed, std::size_t arrivals,
                    std::uint64_t domain, std::uint32_t num_sites,
                    std::uint64_t per_slot) {
  Input input;
  input.per_slot = per_slot;
  input.elements.reserve(arrivals);
  input.sites.reserve(arrivals);
  dds::util::Xoshiro256StarStar rng(seed);
  for (std::size_t i = 0; i < arrivals; ++i) {
    input.elements.push_back(1 + rng.next_below(domain));
    input.sites.push_back(static_cast<std::uint8_t>(rng.next_below(num_sites)));
  }
  return input;
}

}  // namespace perfbench
