#include "fault/fault_plan.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "util/fmt.h"
#include "util/rng.h"

namespace odn::fault {
namespace {

constexpr const char* kHeader = "ODN-FAULTS 1";

constexpr std::array<const char*, 8> kKindNames = {
    "crash",           "recover",         "radio_degrade", "radio_restore",
    "latency_inflate", "latency_restore", "budget_exhaust", "budget_restore"};

// The four onset/recovery pairs, indexed by fault class.
constexpr std::array<FaultEventKind, 4> kOnsets = {
    FaultEventKind::kCellCrash, FaultEventKind::kRadioDegrade,
    FaultEventKind::kLatencyInflate, FaultEventKind::kBudgetExhaust};
constexpr std::array<FaultEventKind, 4> kRecoveries = {
    FaultEventKind::kCellRecover, FaultEventKind::kRadioRestore,
    FaultEventKind::kLatencyRestore, FaultEventKind::kBudgetRestore};

// Fault class of a kind (0..3), and whether the kind is the onset.
std::size_t class_of(FaultEventKind kind) noexcept {
  return static_cast<std::size_t>(kind) / 2;
}
bool is_onset(FaultEventKind kind) noexcept {
  return static_cast<std::size_t>(kind) % 2 == 0;
}

// Line-scoped reader mirroring the workload trace parser.
class LineReader {
 public:
  explicit LineReader(std::istream& in) : in_(in) {}

  std::string next(const char* expectation) {
    std::string line;
    while (std::getline(in_, line)) {
      ++line_number_;
      if (line.empty() || line[0] == '#') continue;
      return line;
    }
    throw std::runtime_error(
        util::fmt("read_fault_plan: unexpected end of input (expected {})",
                  expectation));
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw std::runtime_error(
        util::fmt("read_fault_plan: line {}: {}", line_number_, message));
  }

 private:
  std::istream& in_;
  std::size_t line_number_ = 0;
};

std::istringstream expect_keyword(LineReader& reader, const std::string& line,
                                  const char* keyword) {
  std::istringstream stream(line);
  std::string word;
  stream >> word;
  if (word != keyword)
    reader.fail(util::fmt("expected '{}', found '{}'", keyword, word));
  return stream;
}

}  // namespace

const char* fault_event_kind_name(FaultEventKind kind) noexcept {
  return kKindNames[static_cast<std::size_t>(kind)];
}

bool FaultEvent::operator==(const FaultEvent& other) const noexcept {
  return time_s == other.time_s && kind == other.kind &&
         cell == other.cell && magnitude == other.magnitude;
}

bool fault_event_less(const FaultEvent& a, const FaultEvent& b) noexcept {
  if (a.time_s != b.time_s) return a.time_s < b.time_s;
  if (a.cell != b.cell) return a.cell < b.cell;
  return static_cast<int>(a.kind) < static_cast<int>(b.kind);
}

void FaultPlan::validate() const {
  if (cell_count == 0)
    throw std::invalid_argument(
        util::fmt("FaultPlan '{}': zero cells", name));
  if (!std::isfinite(horizon_s) || horizon_s < 0.0)
    throw std::invalid_argument(util::fmt(
        "FaultPlan '{}': horizon {} is not finite and non-negative", name,
        horizon_s));
  // active[cell][class] tracks the open onset per (cell, fault class). It
  // is keyed by the cells the events touch, so its size is bounded by the
  // input rather than by cell_count (which a plan file states freely).
  std::unordered_map<std::size_t, std::array<bool, 4>> active;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& event = events[i];
    // Negated so a NaN time, for which every comparison is false, fails.
    if (!(event.time_s >= 0.0 && event.time_s <= horizon_s + 1e-9))
      throw std::invalid_argument(
          util::fmt("FaultPlan '{}': event {} at t={} outside [0, {}]", name,
                    i, event.time_s, horizon_s));
    if (event.cell >= cell_count)
      throw std::invalid_argument(
          util::fmt("FaultPlan '{}': event {} targets cell {} of {}", name, i,
                    event.cell, cell_count));
    if (i > 0 && fault_event_less(event, events[i - 1]))
      throw std::invalid_argument(
          util::fmt("FaultPlan '{}': events unsorted at index {}", name, i));
    if (event.kind == FaultEventKind::kRadioDegrade) {
      if (!(event.magnitude > 0.0 && event.magnitude <= 1.0))
        throw std::invalid_argument(util::fmt(
            "FaultPlan '{}': event {} radio factor {} outside (0, 1]", name,
            i, event.magnitude));
    } else if (event.kind == FaultEventKind::kLatencyInflate) {
      if (!std::isfinite(event.magnitude) || event.magnitude < 1.0)
        throw std::invalid_argument(util::fmt(
            "FaultPlan '{}': event {} latency factor {} is not finite and "
            ">= 1",
            name, i, event.magnitude));
    } else if (event.magnitude != 1.0) {
      throw std::invalid_argument(util::fmt(
          "FaultPlan '{}': event {} ({}) carries magnitude {}", name, i,
          fault_event_kind_name(event.kind), event.magnitude));
    }
    bool& open = active[event.cell][class_of(event.kind)];
    if (is_onset(event.kind)) {
      if (open)
        throw std::invalid_argument(util::fmt(
            "FaultPlan '{}': event {} ({}) on cell {} while already faulted",
            name, i, fault_event_kind_name(event.kind), event.cell));
      open = true;
    } else {
      if (!open)
        throw std::invalid_argument(util::fmt(
            "FaultPlan '{}': event {} ({}) on cell {} with no open fault",
            name, i, fault_event_kind_name(event.kind), event.cell));
      open = false;
    }
  }
}

void FaultPlanOptions::validate() const {
  if (horizon_s <= 0.0)
    throw std::invalid_argument("FaultPlanOptions: non-positive horizon");
  if (mean_outage_s <= 0.0 || mean_degradation_s <= 0.0 ||
      mean_inflation_s <= 0.0 || mean_exhaustion_s <= 0.0)
    throw std::invalid_argument("FaultPlanOptions: non-positive duration");
  if (degrade_floor <= 0.0 || degrade_floor > 0.9)
    throw std::invalid_argument(
        "FaultPlanOptions: degrade_floor outside (0, 0.9]");
  if (max_inflation < 1.2)
    throw std::invalid_argument("FaultPlanOptions: max_inflation below 1.2");
}

FaultPlan generate_fault_plan(std::size_t cell_count,
                              const FaultPlanOptions& options) {
  if (cell_count == 0)
    throw std::invalid_argument("generate_fault_plan: zero cells");
  options.validate();

  util::Rng rng(options.seed);
  FaultPlan plan;
  plan.name = util::fmt("faults-seed{}", options.seed);
  plan.horizon_s = options.horizon_s;
  plan.cell_count = cell_count;

  // One closed window per accepted draw; window [start, end] clamps to the
  // horizon, and an end beyond the horizon drops the recovery event (the
  // fault persists to the end of the run). Overlapping draws for the same
  // (cell, class) are skipped after their Rng draws, so the stream of
  // draws — and therefore the plan — is deterministic per seed.
  std::vector<std::vector<std::pair<double, double>>> windows(cell_count * 4);
  const std::array<std::size_t, 4> counts = {
      options.cell_crashes, options.radio_degradations,
      options.latency_inflations, options.budget_exhaustions};
  const std::array<double, 4> mean_durations = {
      options.mean_outage_s, options.mean_degradation_s,
      options.mean_inflation_s, options.mean_exhaustion_s};

  for (std::size_t fault_class = 0; fault_class < 4; ++fault_class) {
    for (std::size_t k = 0; k < counts[fault_class]; ++k) {
      const std::size_t cell = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(cell_count) - 1));
      const double start = rng.uniform(0.0, options.horizon_s);
      const double duration =
          rng.exponential(1.0 / mean_durations[fault_class]);
      double magnitude = 1.0;
      if (kOnsets[fault_class] == FaultEventKind::kRadioDegrade)
        magnitude = rng.uniform(options.degrade_floor, 0.9);
      else if (kOnsets[fault_class] == FaultEventKind::kLatencyInflate)
        magnitude = rng.uniform(1.2, options.max_inflation);

      const double end = std::min(start + duration, options.horizon_s);
      std::vector<std::pair<double, double>>& existing =
          windows[cell * 4 + fault_class];
      const bool overlaps = std::any_of(
          existing.begin(), existing.end(),
          [&](const std::pair<double, double>& w) {
            return start <= w.second && end >= w.first;
          });
      if (overlaps) continue;
      existing.emplace_back(start, end);

      plan.events.push_back(
          FaultEvent{start, kOnsets[fault_class], cell, magnitude});
      if (start + duration <= options.horizon_s)
        plan.events.push_back(
            FaultEvent{end, kRecoveries[fault_class], cell, 1.0});
    }
  }

  std::sort(plan.events.begin(), plan.events.end(), fault_event_less);
  plan.validate();
  return plan;
}

void write_fault_plan(const FaultPlan& plan, std::ostream& out) {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << kHeader << '\n';
  out << "name " << plan.name << '\n';
  out << "horizon " << plan.horizon_s << '\n';
  out << "cells " << plan.cell_count << '\n';
  out << "events " << plan.events.size() << '\n';
  for (const FaultEvent& event : plan.events)
    out << "event " << event.time_s << ' '
        << fault_event_kind_name(event.kind) << ' ' << event.cell << ' '
        << event.magnitude << '\n';
}

void write_fault_plan(const FaultPlan& plan, const std::string& path) {
  std::ofstream out(path);
  if (!out)
    throw std::runtime_error("write_fault_plan: cannot open " + path);
  write_fault_plan(plan, out);
}

FaultPlan read_fault_plan(std::istream& in) {
  LineReader reader(in);
  if (reader.next("header") != kHeader)
    reader.fail(util::fmt("expected header '{}'", kHeader));

  FaultPlan plan;
  {
    std::istringstream stream =
        expect_keyword(reader, reader.next("name"), "name");
    std::getline(stream >> std::ws, plan.name);
  }
  if (!(expect_keyword(reader, reader.next("horizon"), "horizon") >>
        plan.horizon_s))
    reader.fail("malformed horizon");
  if (!(expect_keyword(reader, reader.next("cells"), "cells") >>
        plan.cell_count))
    reader.fail("malformed cell count");
  // The event count is untrusted input: events are appended as they are
  // read, so memory grows with the file, never with the header's claim.
  std::size_t count = 0;
  if (!(expect_keyword(reader, reader.next("events"), "events") >> count))
    reader.fail("malformed event count");
  for (std::size_t i = 0; i < count; ++i) {
    std::istringstream stream =
        expect_keyword(reader, reader.next("event"), "event");
    FaultEvent event;
    std::string kind;
    if (!(stream >> event.time_s >> kind >> event.cell >> event.magnitude))
      reader.fail("malformed event record");
    const auto it = std::find_if(
        kKindNames.begin(), kKindNames.end(),
        [&](const char* name) { return kind == name; });
    if (it == kKindNames.end())
      reader.fail(util::fmt("unknown event kind '{}'", kind));
    event.kind =
        static_cast<FaultEventKind>(it - kKindNames.begin());
    plan.events.push_back(event);
  }
  try {
    plan.validate();
  } catch (const std::invalid_argument& error) {
    reader.fail(error.what());
  }
  return plan;
}

FaultPlan read_fault_plan_file(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("read_fault_plan_file: cannot open " + path);
  return read_fault_plan(in);
}

}  // namespace odn::fault
