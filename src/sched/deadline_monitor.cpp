#include "sched/deadline_monitor.h"

#include <stdexcept>

namespace odn::sched {

const char* bucket_name(DeadlineBucket bucket) noexcept {
  switch (bucket) {
    case DeadlineBucket::kMet: return "met";
    case DeadlineBucket::kMissed: return "missed";
    case DeadlineBucket::kPreempted: return "preempted";
    case DeadlineBucket::kDowngraded: return "downgraded";
    case DeadlineBucket::kRejected: return "rejected";
  }
  return "unknown";
}

void DeadlineMonitor::track(std::uint64_t job, double arrival_s,
                            double deadline_s) {
  Entry e;
  e.arrival_s = arrival_s;
  e.deadline_s = deadline_s;
  const auto [it, inserted] = entries_.emplace(job, e);
  if (!inserted) throw std::logic_error("DeadlineMonitor: job tracked twice");
  count(it->second, true);
}

DeadlineMonitor::Entry& DeadlineMonitor::entry(std::uint64_t job) {
  const auto it = entries_.find(job);
  if (it == entries_.end())
    throw std::logic_error("DeadlineMonitor: untracked job");
  return it->second;
}

const DeadlineMonitor::Entry& DeadlineMonitor::entry(
    std::uint64_t job) const {
  const auto it = entries_.find(job);
  if (it == entries_.end())
    throw std::logic_error("DeadlineMonitor: untracked job");
  return it->second;
}

template <typename Mutate>
void DeadlineMonitor::update(std::uint64_t job, Mutate mutate) {
  Entry& e = entry(job);
  count(e, false);
  mutate(e);
  count(e, true);
}

void DeadlineMonitor::on_admitted(std::uint64_t job, double now,
                                  bool downgraded) {
  update(job, [&](Entry& e) {
    if (!e.admitted) {
      e.admitted = true;
      e.first_admitted_s = now;
    }
    e.serving = true;
    if (downgraded) e.ever_downgraded = true;
  });
}

void DeadlineMonitor::on_downgraded(std::uint64_t job) {
  update(job, [](Entry& e) { e.ever_downgraded = true; });
}

void DeadlineMonitor::on_preempted(std::uint64_t job) {
  update(job, [](Entry& e) {
    e.serving = false;
    e.ever_preempted = true;
  });
}

void DeadlineMonitor::on_readmitted(std::uint64_t job, double now,
                                    bool downgraded) {
  on_admitted(job, now, downgraded);
}

void DeadlineMonitor::on_rejected(std::uint64_t job) {
  update(job, [](Entry& e) {
    e.rejected_final = true;
    e.serving = false;
  });
}

void DeadlineMonitor::on_departed(std::uint64_t job) {
  update(job, [](Entry& e) {
    e.departed = true;
    if (e.serving) {
      e.departed_serving = true;
      e.serving = false;
    }
  });
}

DeadlineBucket DeadlineMonitor::classify(const Entry& e) {
  if (!e.admitted) return DeadlineBucket::kRejected;
  if (!e.serving && !e.departed_serving) return DeadlineBucket::kPreempted;
  if (e.deadline_s > 0.0 &&
      e.first_admitted_s > e.arrival_s + e.deadline_s)
    return DeadlineBucket::kMissed;
  if (e.ever_downgraded || e.ever_preempted)
    return DeadlineBucket::kDowngraded;
  return DeadlineBucket::kMet;
}

DeadlineBucket DeadlineMonitor::bucket(std::uint64_t job) const {
  return classify(entry(job));
}

void DeadlineMonitor::count(const Entry& e, bool add) {
  const auto bump = [add](std::size_t& n) { add ? ++n : --n; };
  if (e.serving) bump(counts_.serving);
  if (!e.admitted && !e.rejected_final && !e.departed) {
    bump(counts_.pending);  // still awaiting first admission — no bucket yet
    return;
  }
  switch (classify(e)) {
    case DeadlineBucket::kMet: bump(counts_.met); break;
    case DeadlineBucket::kMissed: bump(counts_.missed); break;
    case DeadlineBucket::kPreempted: bump(counts_.preempted); break;
    case DeadlineBucket::kDowngraded: bump(counts_.downgraded); break;
    case DeadlineBucket::kRejected: bump(counts_.rejected); break;
  }
}

SchedEpochBuckets DeadlineMonitor::snapshot(double now) const {
  SchedEpochBuckets s = counts_;
  s.time_s = now;
  return s;
}

void DeadlineMonitor::finalize(SchedStats& stats) const {
  stats.met += counts_.met;
  stats.missed += counts_.missed;
  stats.preempted += counts_.preempted;
  stats.downgraded += counts_.downgraded;
  stats.rejected += counts_.rejected + counts_.pending;
}

}  // namespace odn::sched
