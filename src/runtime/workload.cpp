#include "runtime/workload.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/fmt.h"
#include "util/rng.h"

namespace odn::runtime {
namespace {

constexpr const char* kHeader = "ODN-TRACE 1";

// Sort key: time first, then job id (assigned in generation order), then
// kind — a job's arrival precedes its departure even at equal times.
bool event_less(const WorkloadEvent& a, const WorkloadEvent& b) noexcept {
  if (a.time_s != b.time_s) return a.time_s < b.time_s;
  if (a.job_id != b.job_id) return a.job_id < b.job_id;
  return static_cast<int>(a.kind) < static_cast<int>(b.kind);
}

// Line-scoped reader mirroring the instance_io parser.
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
    throw std::runtime_error(util::fmt(
        "read_trace: unexpected end of input (expected {})", expectation));
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw std::runtime_error(
        util::fmt("read_trace: line {}: {}", line_number_, message));
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

bool WorkloadEvent::operator==(const WorkloadEvent& other) const noexcept {
  return time_s == other.time_s && kind == other.kind &&
         job_id == other.job_id && template_index == other.template_index &&
         has_qos == other.has_qos && deadline_s == other.deadline_s &&
         priority == other.priority;
}

std::size_t WorkloadTrace::arrival_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(), [](const WorkloadEvent& e) {
        return e.kind == WorkloadEventKind::kArrival;
      }));
}

std::size_t WorkloadTrace::departure_count() const noexcept {
  return events.size() - arrival_count();
}

bool WorkloadTrace::has_qos() const noexcept {
  for (const WorkloadEvent& event : events)
    if (event.kind == WorkloadEventKind::kArrival) return event.has_qos;
  return false;
}

void WorkloadTrace::validate() const {
  if (!std::isfinite(horizon_s) || horizon_s < 0.0)
    throw std::invalid_argument(util::fmt(
        "WorkloadTrace '{}': horizon {} is not finite and non-negative", name,
        horizon_s));
  std::vector<std::uint64_t> arrived;
  std::size_t arrivals = 0;
  std::size_t qos_arrivals = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const WorkloadEvent& event = events[i];
    // Checks are negated so NaN, for which every comparison is false,
    // fails them.
    if (!(event.time_s >= 0.0 && event.time_s <= horizon_s + 1e-9))
      throw std::invalid_argument(util::fmt(
          "WorkloadTrace '{}': event {} at t={} outside [0, {}]", name, i,
          event.time_s, horizon_s));
    if (event.template_index >= template_count)
      throw std::invalid_argument(util::fmt(
          "WorkloadTrace '{}': event {} references template {} of {}", name,
          i, event.template_index, template_count));
    if (i > 0 && event_less(event, events[i - 1]))
      throw std::invalid_argument(util::fmt(
          "WorkloadTrace '{}': events unsorted at index {}", name, i));
    if (event.kind == WorkloadEventKind::kArrival) {
      if (std::find(arrived.begin(), arrived.end(), event.job_id) !=
          arrived.end())
        throw std::invalid_argument(util::fmt(
            "WorkloadTrace '{}': job {} arrives twice", name, event.job_id));
      arrived.push_back(event.job_id);
      ++arrivals;
      if (event.has_qos) {
        ++qos_arrivals;
        if (!(event.deadline_s > 0.0))
          throw std::invalid_argument(util::fmt(
              "WorkloadTrace '{}': job {} has non-positive deadline {}",
              name, event.job_id, event.deadline_s));
        if (!(event.priority >= 0.0 && event.priority <= 1.0))
          throw std::invalid_argument(util::fmt(
              "WorkloadTrace '{}': job {} priority {} outside [0, 1]", name,
              event.job_id, event.priority));
      }
    } else {
      if (event.has_qos)
        throw std::invalid_argument(util::fmt(
            "WorkloadTrace '{}': departure of job {} carries a qos "
            "annotation (arrivals only)",
            name, event.job_id));
      const auto it =
          std::find(arrived.begin(), arrived.end(), event.job_id);
      if (it == arrived.end())
        throw std::invalid_argument(util::fmt(
            "WorkloadTrace '{}': job {} departs before arriving", name,
            event.job_id));
      arrived.erase(it);
    }
  }
  // QoS is all-or-nothing: a partially annotated trace would silently run
  // the unannotated jobs on defaulted deadlines, skewing every SLO bucket.
  if (qos_arrivals != 0 && qos_arrivals != arrivals)
    throw std::invalid_argument(util::fmt(
        "WorkloadTrace '{}': trace mixes QoS-annotated and plain arrival "
        "records ({} of {} arrivals annotated): annotate all arrivals or "
        "none",
        name, qos_arrivals, arrivals));
}

WorkloadTrace generate_workload(std::size_t template_count,
                                const WorkloadOptions& options) {
  if (template_count == 0)
    throw std::invalid_argument("generate_workload: no task templates");
  if (options.horizon_s <= 0.0)
    throw std::invalid_argument("generate_workload: non-positive horizon");
  if (options.arrival_rate_per_s <= 0.0)
    throw std::invalid_argument("generate_workload: non-positive rate");
  if (options.mean_holding_s <= 0.0)
    throw std::invalid_argument("generate_workload: non-positive holding");
  if (!options.template_weights.empty() &&
      options.template_weights.size() != template_count)
    throw std::invalid_argument(
        "generate_workload: weight count != template count");

  util::Rng rng(options.seed);

  // Weighted template choice via the cumulative distribution.
  std::vector<double> cumulative;
  if (!options.template_weights.empty()) {
    double total = 0.0;
    for (const double w : options.template_weights) {
      if (w < 0.0)
        throw std::invalid_argument("generate_workload: negative weight");
      total += w;
      cumulative.push_back(total);
    }
    if (total <= 0.0)
      throw std::invalid_argument("generate_workload: zero total weight");
  }
  auto pick_template = [&]() -> std::size_t {
    if (cumulative.empty())
      return static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(template_count) - 1));
    const double u = rng.uniform() * cumulative.back();
    const auto it =
        std::lower_bound(cumulative.begin(), cumulative.end(), u);
    return static_cast<std::size_t>(it - cumulative.begin());
  };

  WorkloadTrace trace;
  trace.name = util::fmt("churn-seed{}", options.seed);
  trace.horizon_s = options.horizon_s;
  trace.template_count = template_count;

  std::uint64_t next_job = 0;
  auto add_job = [&](double arrival_s) {
    const std::uint64_t id = next_job++;
    const std::size_t tmpl = pick_template();
    trace.events.push_back(WorkloadEvent{
        arrival_s, WorkloadEventKind::kArrival, id, tmpl});
    const double departure_s =
        arrival_s + rng.exponential(1.0 / options.mean_holding_s);
    if (departure_s <= options.horizon_s)
      trace.events.push_back(WorkloadEvent{
          departure_s, WorkloadEventKind::kDeparture, id, tmpl});
  };

  // Base Poisson process.
  for (double t = rng.exponential(options.arrival_rate_per_s);
       t <= options.horizon_s;
       t += rng.exponential(options.arrival_rate_per_s))
    add_job(t);

  // Flash crowds: a burst of extra jobs concentrated in a short span.
  for (std::size_t b = 0; b < options.burst_count; ++b) {
    const double center = rng.uniform(0.0, options.horizon_s);
    const std::uint64_t extra = rng.poisson(options.burst_arrivals_mean);
    for (std::uint64_t j = 0; j < extra; ++j) {
      const double at = std::min(
          options.horizon_s, center + rng.uniform(0.0, options.burst_span_s));
      add_job(at);
    }
  }

  std::sort(trace.events.begin(), trace.events.end(), event_less);
  // QoS annotation runs after the sort on its own derived Rng stream, so
  // the base events are bit-identical whether or not QoS is enabled.
  if (options.qos.enabled) annotate_qos(trace, options.qos, options.seed);
  trace.validate();
  return trace;
}

void annotate_qos(WorkloadTrace& trace, const WorkloadQosOptions& qos,
                  std::uint64_t seed) {
  if (qos.mean_deadline_s <= 0.0)
    throw std::invalid_argument("annotate_qos: non-positive mean deadline");
  if (qos.min_deadline_s < 0.0)
    throw std::invalid_argument("annotate_qos: negative min deadline");
  if (qos.deadline_tightness <= 0.0)
    throw std::invalid_argument("annotate_qos: non-positive tightness");
  std::vector<double> cumulative;
  for (const double w : qos.priority_mix) {
    if (w < 0.0)
      throw std::invalid_argument("annotate_qos: negative priority weight");
    cumulative.push_back(w + (cumulative.empty() ? 0.0 : cumulative.back()));
  }
  if (!cumulative.empty() && cumulative.back() <= 0.0)
    throw std::invalid_argument("annotate_qos: zero total priority weight");

  // Derived stream (golden-ratio offset) keeps the annotation draws
  // independent of the arrival-process draws taken from `seed` itself.
  util::Rng rng(seed + 0xD1B54A32D192ED03ULL);
  const double mean = qos.mean_deadline_s * qos.deadline_tightness;
  for (WorkloadEvent& event : trace.events) {
    if (event.kind != WorkloadEventKind::kArrival) continue;
    event.has_qos = true;
    event.deadline_s = qos.min_deadline_s + rng.exponential(1.0 / mean);
    if (cumulative.empty()) {
      event.priority = rng.uniform();
    } else {
      const double u = rng.uniform() * cumulative.back();
      const auto it =
          std::lower_bound(cumulative.begin(), cumulative.end(), u);
      const auto band = static_cast<double>(it - cumulative.begin());
      event.priority =
          (band + rng.uniform()) / static_cast<double>(cumulative.size());
    }
  }
}

void write_trace(const WorkloadTrace& trace, std::ostream& out) {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << kHeader << '\n';
  out << "name " << trace.name << '\n';
  out << "horizon " << trace.horizon_s << '\n';
  out << "templates " << trace.template_count << '\n';
  out << "events " << trace.events.size() << '\n';
  for (const WorkloadEvent& event : trace.events) {
    out << "event " << event.time_s << ' '
        << (event.kind == WorkloadEventKind::kArrival ? 'A' : 'D') << ' '
        << event.job_id << ' ' << event.template_index;
    if (event.has_qos)
      out << " qos " << event.deadline_s << ' ' << event.priority;
    out << '\n';
  }
}

void write_trace(const WorkloadTrace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out)
    throw std::runtime_error("write_trace: cannot open " + path);
  write_trace(trace, out);
}

WorkloadTrace read_trace(std::istream& in) {
  LineReader reader(in);
  if (reader.next("header") != kHeader)
    reader.fail(util::fmt("expected header '{}'", kHeader));

  WorkloadTrace trace;
  {
    std::istringstream stream =
        expect_keyword(reader, reader.next("name"), "name");
    std::getline(stream >> std::ws, trace.name);
  }
  if (!(expect_keyword(reader, reader.next("horizon"), "horizon") >>
        trace.horizon_s))
    reader.fail("malformed horizon");
  if (!(expect_keyword(reader, reader.next("templates"), "templates") >>
        trace.template_count))
    reader.fail("malformed template count");
  // The event count is untrusted input: events are appended as they are
  // read, so memory grows with the file, never with the header's claim.
  std::size_t count = 0;
  if (!(expect_keyword(reader, reader.next("events"), "events") >> count))
    reader.fail("malformed event count");
  for (std::size_t i = 0; i < count; ++i) {
    std::istringstream stream =
        expect_keyword(reader, reader.next("event"), "event");
    WorkloadEvent event;
    char kind = '\0';
    if (!(stream >> event.time_s >> kind >> event.job_id >>
          event.template_index))
      reader.fail("malformed event record");
    if (kind != 'A' && kind != 'D')
      reader.fail(util::fmt("unknown event kind '{}'", kind));
    event.kind = kind == 'A' ? WorkloadEventKind::kArrival
                             : WorkloadEventKind::kDeparture;
    std::string suffix;
    if (stream >> suffix) {
      if (suffix != "qos")
        reader.fail(
            util::fmt("unexpected trailing field '{}'", suffix));
      if (event.kind == WorkloadEventKind::kDeparture)
        reader.fail("qos annotation on a departure record (arrivals only)");
      if (!(stream >> event.deadline_s >> event.priority))
        reader.fail("malformed qos annotation (want: qos <deadline_s> "
                    "<priority>)");
      event.has_qos = true;
    }
    trace.events.push_back(event);
  }
  try {
    trace.validate();
  } catch (const std::invalid_argument& error) {
    reader.fail(error.what());
  }
  return trace;
}

WorkloadTrace read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("read_trace_file: cannot open " + path);
  return read_trace(in);
}

}  // namespace odn::runtime
