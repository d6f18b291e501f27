// The shaping workload: the paper's Sec. II pipeline on the repository's
// substrate ResNet-18 (width 8, 16x16 inputs). Set-up instantiates Table I
// configurations B-E from one base, fine-tunes each for a fixed number of
// batch-64 steps and prunes its fine-tuned blocks by 80%. The timed part
// runs inference over every shaped variant plus the vision transformer, at
// batch 64 (the packed GEMM path) and at batch 1 (the small-shape path).
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "model/vision_transformer.h"
#include "nn/configs.h"
#include "nn/dataset.h"
#include "nn/gemm.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/resnet.h"
#include "obs/trace.h"
#include "reference.h"
#include "stage_table.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace odn;

constexpr std::size_t kBatch = 64;
constexpr std::size_t kFineTuneSteps = 2;  // per configuration
// Single-image calls per model per round: every row of the batch, which
// also makes the batch-1 and batch-64 paths take similar shares of a round.
constexpr std::size_t kB1PerRound = kBatch;
constexpr std::size_t kRoundsPerCall = 8;

nn::ResNetConfig substrate_config() {
  nn::ResNetConfig config;
  config.base_width = 8;
  config.input_size = 16;
  config.num_classes = 8;
  return config;
}

struct ShapeInputs {
  std::unique_ptr<nn::ResNet> base;
  std::vector<std::unique_ptr<nn::ResNet>> variants;  // configs B..E, pruned
  std::vector<std::size_t> removed_params;
  std::unique_ptr<model::VisionTransformer> vit;
  nn::Tensor batch;                  // (64, 3, 16, 16) inference inputs
  std::vector<nn::Tensor> singles;   // the first images, one per tensor
  std::vector<double> step_s;        // wall time of every fine-tune step
  bool losses_finite = true;
};

nn::Tensor single_image(const nn::Tensor& batch, std::size_t index) {
  const nn::Shape& s = batch.shape();
  nn::Tensor one(nn::Shape{1, s[1], s[2], s[3]});
  const std::size_t per = one.size();
  std::memcpy(one.data().data(), batch.data().data() + index * per,
              per * sizeof(float));
  return one;
}

ShapeInputs shape_setup(std::uint64_t seed) {
  ShapeInputs in;
  nn::SyntheticImageGenerator generator(16, seed);
  std::vector<nn::ClassSpec> specs = nn::base_class_specs();
  specs.push_back(nn::electric_guitar_class_spec());
  const nn::Dataset train = generator.generate(specs, 16);
  const nn::Dataset eval = generator.generate(specs, 8);
  std::vector<std::size_t> first(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) first[i] = i;
  in.batch = eval.gather_images(first);
  for (std::size_t i = 0; i < kB1PerRound; ++i)
    in.singles.push_back(single_image(in.batch, i));

  util::Rng rng(seed);
  in.base = std::make_unique<nn::ResNet>(substrate_config(), rng);
  for (const nn::BlockConfiguration& config : nn::table1_configurations()) {
    if (config.from_scratch) continue;  // CONFIG A shares nothing
    std::unique_ptr<nn::ResNet> model;
    {
      ODN_TRACE_SPAN("perfbench", "nn.instantiate");
      model = nn::instantiate_configuration(*in.base, config, specs.size(),
                                            rng);
    }
    nn::Adam adam(3e-3, 0.9, 0.999, 1e-8, 1e-3);
    for (std::size_t step = 0; step < kFineTuneSteps; ++step) {
      std::vector<std::size_t> indices(kBatch);
      for (std::size_t i = 0; i < kBatch; ++i)
        indices[i] = (step * kBatch + i) % train.size();
      const nn::Tensor images = train.gather_images(indices);
      const std::vector<std::uint16_t> labels = train.gather_labels(indices);
      const Clock::time_point start = Clock::now();
      nn::LossResult loss;
      {
        ODN_TRACE_SPAN("perfbench", "nn.train.forward");
        loss = nn::cross_entropy(model->forward(images, true), labels);
      }
      {
        ODN_TRACE_SPAN("perfbench", "nn.train.backward");
        model->zero_grad();
        model->backward(loss.grad_logits);
      }
      {
        ODN_TRACE_SPAN("perfbench", "nn.train.step");
        adam.step(model->trainable_parameters());
      }
      in.step_s.push_back(seconds_since(start));
      in.losses_finite = in.losses_finite && std::isfinite(loss.loss);
    }
    {
      ODN_TRACE_SPAN("perfbench", "nn.prune");
      in.removed_params.push_back(nn::prune_fine_tuned_blocks(*model, 0.8));
    }
    in.variants.push_back(std::move(model));
  }
  model::VitConfig vit_config;
  vit_config.num_classes = specs.size();
  in.vit = std::make_unique<model::VisionTransformer>(vit_config, rng);
  return in;
}

bool all_finite(const nn::Tensor& t) {
  for (const float v : t.data())
    if (!std::isfinite(v)) return false;
  return true;
}

bool same_bytes(const nn::Tensor& a, const nn::Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

// Row `row` of a (N, K) logits tensor equals the (1, K) tensor `one`.
bool same_row(const nn::Tensor& logits, std::size_t row,
              const nn::Tensor& one) {
  const std::size_t k = one.size();
  return logits.size() >= (row + 1) * k &&
         std::memcmp(logits.data().data() + row * k, one.data().data(),
                     k * sizeof(float)) == 0;
}

struct RoundOutput {
  std::vector<nn::Tensor> logits;  // batch-64 logits per model
  std::vector<double> b1_ms;       // single-image latencies
  std::size_t images = 0;
};

// One inference round: every model at batch 64, then kB1PerRound single
// images through every model. Each single-image result must equal the
// matching row of the batch result bit for bit.
RoundOutput inference_round(ShapeInputs& in, Result& result) {
  ODN_TRACE_SPAN("perfbench", StageTable::kRootSpan);
  RoundOutput out;
  const std::size_t models = in.variants.size() + 1;
  auto forward = [&](std::size_t m, const nn::Tensor& x) {
    ++result.attempted;
    return m < in.variants.size() ? in.variants[m]->forward(x, false)
                                  : in.vit->forward(x, false);
  };
  for (std::size_t m = 0; m < models; ++m) {
    ODN_TRACE_SPAN("perfbench", "nn.infer.b64");
    out.logits.push_back(forward(m, in.batch));
    out.images += kBatch;
  }
  bool rows_match = true;
  for (std::size_t m = 0; m < models; ++m) {
    for (std::size_t i = 0; i < in.singles.size(); ++i) {
      const Clock::time_point start = Clock::now();
      nn::Tensor logits;
      {
        ODN_TRACE_SPAN("perfbench", "nn.infer.b1");
        logits = forward(m, in.singles[i]);
      }
      out.b1_ms.push_back(seconds_since(start) * 1e3);
      rows_match = rows_match && same_row(out.logits[m], i, logits);
      ++out.images;
    }
  }
  bool finite = true;
  for (const nn::Tensor& t : out.logits) finite = finite && all_finite(t);
  result.check("inference logits are finite", finite);
  result.check("batch-1 logits equal the batch-64 rows bit for bit",
               rows_match);
  return out;
}

void check_setup(const ShapeInputs& in, Result& result) {
  result.check("fine-tune losses are finite", in.losses_finite);
  // CONFIG B shares all four layer-blocks, so pruning has nothing to
  // remove; C, D and E prune their fine-tuned blocks.
  bool pruned = in.removed_params.size() == 4 && in.removed_params[0] == 0;
  for (std::size_t i = 1; i < in.removed_params.size(); ++i)
    pruned = pruned && in.removed_params[i] > 0;
  result.check("pruning removes parameters from fine-tuned blocks only",
               pruned);
}

// Same-core GEMM peak: median of timed 256^3 sgemm calls, in GMAC/s.
double sgemm256_gmacs() {
  constexpr std::size_t n = 256;
  std::vector<float> a(n * n), b(n * n), c(n * n);
  util::Rng rng(1);
  for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (float& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<double> seconds;
  for (int rep = 0; rep < 50; ++rep) {
    const Clock::time_point start = Clock::now();
    nn::sgemm(n, n, n, a.data(), b.data(), c.data());
    if (rep >= 10) seconds.push_back(seconds_since(start));  // warm-ups
  }
  return static_cast<double>(n * n * n) / median(seconds) * 1e-9;
}

// Per-stage table of the base network (CONFIG B's trunk, unpruned) at
// batch 1 and batch 64; each call sits in its own span.
void stage_table_calls(ShapeInputs& in, Result& result) {
  static const char* const kB1[] = {"nn.stage0.b1", "nn.stage1.b1",
                                    "nn.stage2.b1", "nn.stage3.b1",
                                    "nn.head.b1"};
  static const char* const kB64[] = {"nn.stage0.b64", "nn.stage1.b64",
                                     "nn.stage2.b64", "nn.stage3.b64",
                                     "nn.head.b64"};
  ODN_TRACE_SPAN("perfbench", StageTable::kRootSpan);
  nn::ResNet& net = *in.base;
  for (const bool batch64 : {false, true}) {
    nn::Tensor x = batch64 ? in.batch : in.singles[0];
    const int reps = batch64 ? 8 : 64;
    for (std::size_t s = 0; s <= nn::kNumStages; ++s) {
      nn::Tensor y;
      for (int rep = 0; rep < reps; ++rep) {
        ++result.attempted;
        const obs::SpanScope span("perfbench", batch64 ? kB64[s] : kB1[s]);
        y = s < nn::kNumStages ? net.forward_stage(s, x, false)
                               : net.forward_head(x, false);
      }
      x = std::move(y);
    }
  }
  for (int rep = 0; rep < 64; ++rep) {
    ++result.attempted;
    ODN_TRACE_SPAN("perfbench", "model.vit.b1");
    (void)in.vit->forward(in.singles[0], false);
  }
  for (int rep = 0; rep < 8; ++rep) {
    ++result.attempted;
    ODN_TRACE_SPAN("perfbench", "model.vit.b64");
    (void)in.vit->forward(in.batch, false);
  }
}

void report_nn_layers(const StageTable& table, ShapeInputs& in,
                      double peak_gmacs, Result& result) {
  auto p50_s = [&](const std::string& span) {
    return median(table.at(span).durations_us) * 1e-6;
  };
  auto gmacs = [](double macs, double seconds) {
    return seconds > 0 ? macs / seconds * 1e-9 : 0.0;
  };
  result.metric("nn.sgemm256.gmacs", peak_gmacs, "GMAC/s");
  nn::ResNet& net = *in.base;
  const nn::ResNetConfig& config = net.config();
  for (std::size_t s = 0; s <= nn::kNumStages; ++s) {
    const std::string name =
        s < nn::kNumStages ? "nn.stage" + std::to_string(s) : "nn.head";
    double macs = 0.0, bytes = 0.0;
    if (s < nn::kNumStages) {
      const nn::ConvReuse reuse = net.stage_reuse_per_sample(s);
      macs = static_cast<double>(net.stage_macs_per_sample(s));
      bytes = static_cast<double>(reuse.input_bytes_touched +
                                  reuse.kernel_bytes + reuse.output_bytes);
    } else {
      // Global pooling plus the classifier: features x classes MACs.
      const std::size_t features = net.block(3, 1).out_channels();
      const std::size_t spatial = config.input_size / 8;
      macs = static_cast<double>(features * config.num_classes);
      bytes = static_cast<double>(net.head_parameter_bytes() +
                                  sizeof(float) *
                                      (features * spatial * spatial +
                                       config.num_classes));
    }
    const double b1 = p50_s(name + ".b1");
    const double b64 = p50_s(name + ".b64");
    const double b1_gmacs = gmacs(macs, b1);
    const double b64_gmacs = gmacs(macs * kBatch, b64);
    result.metric(name + ".b1_us", b1 * 1e6, "us");
    result.metric(name + ".b1_gmacs", b1_gmacs, "GMAC/s");
    result.metric(name + ".b1_pct_peak", 100.0 * b1_gmacs / peak_gmacs, "%");
    result.metric(name + ".b64_gmacs", b64_gmacs, "GMAC/s");
    result.metric(name + ".b64_pct_peak", 100.0 * b64_gmacs / peak_gmacs,
                  "%");
    result.metric(name + ".bytes", bytes, "bytes");
  }

  double vit_macs = 0.0;
  for (std::size_t s = 0; s < model::kNumStages; ++s)
    vit_macs += static_cast<double>(in.vit->stage_macs_per_sample(s));
  const double vit_b1 = p50_s("model.vit.b1");
  const double vit_b64 = p50_s("model.vit.b64");
  result.metric("model.vit.b1_us", vit_b1 * 1e6, "us");
  result.metric("model.vit.b1_pct_peak",
                100.0 * gmacs(vit_macs, vit_b1) / peak_gmacs, "%");
  result.metric("model.vit.b64_img_per_s", kBatch / vit_b64, "1/s");
  result.metric("model.vit.b64_pct_peak",
                100.0 * gmacs(vit_macs * kBatch, vit_b64) / peak_gmacs, "%");

  double step_total = 0.0;
  for (const double s : in.step_s) step_total += s;
  result.metric("nn.train.forward_s", table.self_s("nn.train.forward"), "s");
  result.metric("nn.train.backward_s", table.self_s("nn.train.backward"),
                "s");
  result.metric("nn.train.step_s", table.self_s("nn.train.step"), "s");
  result.metric("nn.train.img_per_s",
                static_cast<double>(kBatch * in.step_s.size()) / step_total,
                "1/s");
  result.metric("nn.prune_s", table.self_s("nn.prune"), "s");
  result.metric("nn.instantiate_s", table.self_s("nn.instantiate"), "s");

  const StageStats& b64 = table.at("nn.infer.b64");
  result.metric("nn.infer.b64_img_per_s",
                static_cast<double>(kBatch * b64.count) /
                    (static_cast<double>(b64.total_ns) * 1e-9),
                "1/s");
  const std::vector<double>& b1_us = table.at("nn.infer.b1").durations_us;
  result.metric("nn.infer.b1_p50_ms", median(b1_us) * 1e-3, "ms");
  result.metric("nn.infer.b1_p99_ms", percentile(b1_us, 0.99) * 1e-3, "ms");
}

}  // namespace

void run_shape_nn(const Args& args, Result& result) {
  util::set_thread_count(1);
  obs::set_tracing_enabled(args.trace);
  std::vector<double> setup_s;
  ShapeInputs inputs = repeat_setup(
      args.trace, [&] { return shape_setup(args.seed); }, setup_s);
  obs::set_tracing_enabled(false);
  check_setup(inputs, result);

  // Digest of every model's batch-64 logits straight after set-up.
  std::vector<nn::Tensor> expected;
  std::uint64_t digest = fnv1a(nullptr, 0);
  for (auto& variant : inputs.variants)
    expected.push_back(variant->forward(inputs.batch, false));
  expected.push_back(inputs.vit->forward(inputs.batch, false));
  for (const nn::Tensor& t : expected)
    digest = fnv1a(t.data().data(), t.size() * sizeof(float), digest);
  result.digest("shape_nn.logits", digest);

  // A timed call is several rounds, long enough that the reference
  // timings around it cost little; traced calls are half as long, which
  // still leaves the batch-1 p99 ten samples beyond it.
  const std::size_t rounds_per_call =
      args.trace ? kRoundsPerCall / 2 : kRoundsPerCall;
  std::vector<double> b1_ms;
  CallTimes times;
  auto timed = [&](bool traced) {
    obs::set_tracing_enabled(traced);
    const Clock::time_point start = Clock::now();
    std::size_t images = 0;
    for (std::size_t r = 0; r < rounds_per_call; ++r) {
      const RoundOutput out = inference_round(inputs, result);
      images += out.images;
      b1_ms.insert(b1_ms.end(), out.b1_ms.begin(), out.b1_ms.end());
      bool same = out.logits.size() == expected.size();
      for (std::size_t m = 0; same && m < expected.size(); ++m)
        same = same_bytes(out.logits[m], expected[m]);
      result.check("in-process rounds produce byte-identical logits", same);
    }
    const double seconds = seconds_since(start);
    obs::set_tracing_enabled(false);
    times.record(static_cast<double>(images), seconds);
  };

  const Clock::time_point loop_start = Clock::now();
  if (args.trace) {
    timed(false);  // warm-up: the first call in a process runs cold
    timed(false);
    timed(true);
    const double peak = sgemm256_gmacs();
    obs::set_tracing_enabled(true);
    stage_table_calls(inputs, result);
    obs::set_tracing_enabled(false);
    StageTable table;
    table.drain();
    report_nn_layers(table, inputs, peak, result);
    report_trace(table, times.normalized_s(2), times.normalized_s(1),
                 result);
  } else {
    while (times.seconds.size() < 2 ||
           seconds_since(loop_start) < args.seconds)
      timed(false);
    result.metric("setup_s", median(setup_s), "s");
    result.metric("throughput_per_s", median(times.rate), "1/s");
  }
  const auto tail = tail_percentile(b1_ms);
  std::cout << "shape_nn: " << times.seconds.size() << " calls of median "
            << median(times.seconds) << " s; images per host second "
            << median(times.raw_rate) << ", normalized "
            << median(times.rate) << "; batch-1 p50 " << median(b1_ms)
            << " ms, p" << tail.first * 100 << " " << tail.second
            << " ms over " << b1_ms.size()
            << " calls; normalized setup median " << median(setup_s)
            << " s over " << setup_s.size() << " batches, reference "
            << times.reference_s << " s\n";
}

}  // namespace perfbench
