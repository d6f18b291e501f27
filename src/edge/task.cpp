#include "edge/task.h"

#include "util/fmt.h"

namespace odn::edge {

void TaskSpec::validate() const {
  if (name.empty()) throw std::invalid_argument("TaskSpec: empty name");
  if (priority < 0.0 || priority > 1.0)
    throw std::invalid_argument(
        util::fmt("TaskSpec '{}': priority {} outside [0,1]", name, priority));
  if (request_rate <= 0.0)
    throw std::invalid_argument(
        util::fmt("TaskSpec '{}': non-positive request rate", name));
  if (min_accuracy < 0.0 || min_accuracy > 1.0)
    throw std::invalid_argument(
        util::fmt("TaskSpec '{}': accuracy {} outside [0,1]", name,
                  min_accuracy));
  if (max_latency_s <= 0.0)
    throw std::invalid_argument(
        util::fmt("TaskSpec '{}': non-positive latency bound", name));
  if (qualities.empty())
    throw std::invalid_argument(
        util::fmt("TaskSpec '{}': no quality levels", name));
  for (const QualityLevel& q : qualities) {
    if (q.bits_per_image <= 0.0)
      throw std::invalid_argument(
          util::fmt("TaskSpec '{}': quality level with <= 0 bits", name));
    if (q.accuracy_factor <= 0.0 || q.accuracy_factor > 1.0)
      throw std::invalid_argument(util::fmt(
          "TaskSpec '{}': accuracy factor {} outside (0,1]", name,
          q.accuracy_factor));
  }
}

void validate_tasks(const std::vector<TaskSpec>& tasks) {
  validate_tasks(tasks.size(),
                 [&](std::size_t i) -> const TaskSpec& { return tasks[i]; });
}

void validate_tasks(
    std::size_t count,
    const std::function<const TaskSpec&(std::size_t)>& spec_at) {
  // A scan of the earlier names, not a hash set: task sets are small (the
  // DOT solvers are themselves O(T^2)), and the scan allocates nothing.
  for (std::size_t i = 0; i < count; ++i) {
    const TaskSpec& task = spec_at(i);
    task.validate();
    for (std::size_t j = 0; j < i; ++j)
      if (spec_at(j).name == task.name)
        throw std::invalid_argument(
            util::fmt("validate_tasks: duplicate task name '{}'", task.name));
  }
}

}  // namespace odn::edge
