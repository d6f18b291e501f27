#include "stage_table.h"

#include <algorithm>
#include <charconv>
#include <iomanip>
#include <iostream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "bench.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

// Text after `key` in `line`, or an empty view when the key is missing.
std::string_view after(std::string_view line, std::string_view key) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return {};
  return line.substr(at + key.size());
}

std::uint64_t parse_uint(std::string_view text) {
  std::uint64_t value = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc() || end == text.data())
    throw std::runtime_error("stage table: malformed integer in trace");
  return value;
}

// The tracer prints times as microseconds with exactly three decimals;
// read them back as integral nanoseconds so sums stay exact.
std::uint64_t parse_us_as_ns(std::string_view text) {
  const std::size_t dot = text.find('.');
  if (dot == std::string_view::npos || dot + 4 > text.size())
    throw std::runtime_error("stage table: malformed time in trace");
  return parse_uint(text.substr(0, dot)) * 1000 +
         parse_uint(text.substr(dot + 1, 3));
}

std::string_view quoted(std::string_view text) {
  const std::size_t end = text.find('"');
  if (end == std::string_view::npos)
    throw std::runtime_error("stage table: unterminated string in trace");
  return text.substr(0, end);
}

struct OpenSpan {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t child_ns = 0;
  StageStats* stats = nullptr;
  bool in_root = false;
};

}  // namespace

void StageTable::drain() {
  std::ostringstream buffer;
  odn::obs::write_trace_json(buffer);
  const std::string text = buffer.str();

  std::unordered_map<std::uint64_t, std::vector<OpenSpan>> stacks;
  auto close = [this](const OpenSpan& span) {
    const std::uint64_t self = span.end_ns - span.start_ns - span.child_ns;
    span.stats->self_ns += self;
    if (span.in_root) root_self_ns_ += self;
  };

  std::string_view rest(text);
  while (!rest.empty()) {
    const std::size_t newline = rest.find('\n');
    const std::string_view line = rest.substr(0, newline);
    rest = newline == std::string_view::npos ? std::string_view{}
                                             : rest.substr(newline + 1);
    const std::string_view phase = after(line, "\"ph\":\"");
    if (phase.empty() || phase.front() != 'X') continue;  // instants, framing

    const std::string name(quoted(after(line, "\"name\":\"")));
    const std::uint64_t start = parse_us_as_ns(after(line, "\"ts\":"));
    const std::uint64_t duration = parse_us_as_ns(after(line, "\"dur\":"));
    const std::uint64_t tid = parse_uint(after(line, "\"tid\":"));
    ++events_;

    StageStats& stats = stages_[name];
    stats.total_ns += duration;
    ++stats.count;
    stats.durations_us.push_back(static_cast<double>(duration) * 1e-3);

    // Events arrive sorted by begin time (ties: parent first), so the
    // innermost open span that has not ended yet is this one's parent.
    std::vector<OpenSpan>& stack = stacks[tid];
    while (!stack.empty() && stack.back().end_ns <= start) {
      close(stack.back());
      stack.pop_back();
    }
    OpenSpan span{start, start + duration, 0, &stats, name == kRootSpan};
    if (!stack.empty()) {
      stack.back().child_ns += duration;
      span.in_root = span.in_root || stack.back().in_root;
    }
    if (name == kRootSpan) root_ns_ += duration;
    stack.push_back(span);
  }
  for (auto& [tid, stack] : stacks)
    for (; !stack.empty(); stack.pop_back()) close(stack.back());
}

const StageStats& StageTable::at(const std::string& name) const {
  static const StageStats kEmpty;
  const auto found = stages_.find(name);
  return found == stages_.end() ? kEmpty : found->second;
}

void print_stage_table(const StageTable& table, std::ostream& out) {
  std::vector<std::pair<std::string, const StageStats*>> rows;
  for (const auto& [name, stats] : table.stages())
    rows.emplace_back(name, &stats);
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second->self_ns > b.second->self_ns;
  });
  const double root = static_cast<double>(table.root_ns());
  out << "stage table (" << table.events() << " spans; root "
      << root * 1e-9 << " s, self-time sum under root "
      << static_cast<double>(table.root_self_sum_ns()) * 1e-9 << " s)\n";
  out << std::left << std::setw(30) << "span" << std::right << std::setw(10)
      << "calls" << std::setw(12) << "self_s" << std::setw(12) << "total_s"
      << std::setw(12) << "p50_us" << std::setw(12) << "p99_us"
      << std::setw(10) << "self%" << "\n";
  for (const auto& [name, stats] : rows) {
    out << std::left << std::setw(30) << name << std::right << std::setw(10)
        << stats->count << std::setw(12) << std::fixed << std::setprecision(4)
        << static_cast<double>(stats->self_ns) * 1e-9 << std::setw(12)
        << static_cast<double>(stats->total_ns) * 1e-9 << std::setw(12)
        << std::setprecision(1) << percentile(stats->durations_us, 0.5)
        << std::setw(12) << percentile(stats->durations_us, 0.99)
        << std::setw(10)
        << (root > 0 ? 100.0 * static_cast<double>(stats->self_ns) / root
                     : 0.0)
        << std::defaultfloat << std::setprecision(6) << "\n";
  }
}

void report_trace(const StageTable& table, double traced_s,
                  double untraced_s, Result& result) {
  const double root_s = static_cast<double>(table.root_ns()) * 1e-9;
  result.metric("trace.overhead_s", traced_s - untraced_s, "s");
  result.metric("trace.overhead_share", (traced_s - untraced_s) / untraced_s,
                "ratio");
  result.metric("trace.root_s", root_s, "s");
  result.metric("trace.unaccounted_s",
                static_cast<double>(static_cast<std::int64_t>(
                    table.root_ns() - table.root_self_sum_ns())) *
                    1e-9,
                "s");
  result.check("stage self times sum to the root span",
               table.root_ns() == table.root_self_sum_ns() &&
                   table.root_ns() > 0);
  print_stage_table(table, std::cout);
}

std::map<std::string, std::uint64_t> counter_snapshot() {
  const std::string text = odn::obs::MetricsRegistry::global().to_json();
  std::map<std::string, std::uint64_t> snapshot;
  std::string_view rest(text);
  while (!rest.empty()) {
    const std::size_t newline = rest.find('\n');
    const std::string_view line = rest.substr(0, newline);
    rest = newline == std::string_view::npos ? std::string_view{}
                                             : rest.substr(newline + 1);
    if (line.find("\"type\": \"counter\"") == std::string_view::npos)
      continue;
    const std::string name(quoted(after(line, "{\"name\": \"")));
    snapshot[name] += parse_uint(after(line, "\"value\": "));
  }
  return snapshot;
}

std::uint64_t counter(const std::map<std::string, std::uint64_t>& snapshot,
                      const std::string& name) {
  const auto found = snapshot.find(name);
  return found == snapshot.end() ? 0 : found->second;
}

}  // namespace perfbench
