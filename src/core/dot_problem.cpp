#include "core/dot_problem.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/fmt.h"

namespace odn::core {

void DotInstance::finalize() {
  edge::validate_tasks(tasks.size(), [this](std::size_t t)
                           -> const edge::TaskSpec& { return tasks[t].spec; });
  resources.validate();
  if (alpha < 0.0 || alpha > 1.0)
    throw std::invalid_argument("DotInstance: alpha outside [0,1]");

  for (DotTask& task : tasks) {
    for (PathOption& option : task.options) {
      catalog.validate_path(option.path);
      if (option.quality_index >= task.spec.qualities.size())
        throw std::invalid_argument(
            util::fmt("DotInstance: task '{}' option references quality {} "
                      "of {}",
                      task.spec.name, option.quality_index,
                      task.spec.qualities.size()));
      if (!(option.compute_scale > 0.0) || option.compute_scale > 1.0)
        throw std::invalid_argument(
            util::fmt("DotInstance: task '{}' option compute_scale {} "
                      "outside (0,1]",
                      task.spec.name, option.compute_scale));
      const edge::QualityLevel& quality =
          task.spec.qualities[option.quality_index];
      // compute_scale defaults to 1.0, and x * 1.0 is bit-exact — the
      // unbatched goldens are untouched.
      option.inference_time_s =
          catalog.path_inference_time_s(option.path) * option.compute_scale;
      option.accuracy = option.path.accuracy * quality.accuracy_factor;
      option.input_bits = quality.bits_per_image;
    }
  }

  priority_order_.resize(tasks.size());
  std::iota(priority_order_.begin(), priority_order_.end(), 0);
  std::stable_sort(priority_order_.begin(), priority_order_.end(),
                   [this](std::size_t a, std::size_t b) {
                     return tasks[a].spec.priority > tasks[b].spec.priority;
                   });
  finalized_ = true;
}

const std::vector<std::size_t>& DotInstance::priority_order() const {
  if (!finalized_)
    throw std::logic_error("DotInstance: finalize() not called");
  return priority_order_;
}

double DotInstance::end_to_end_latency_s(const DotTask& task,
                                         const PathOption& option,
                                         std::size_t rbs) const {
  return radio.transmission_time_s(option.input_bits, rbs,
                                   task.spec.snr_db) +
         option.inference_time_s;
}

}  // namespace odn::core
