// Canonical encoding / fingerprint properties (DESIGN.md §8):
//  - determinism: equal instances encode to equal bytes and fingerprints;
//  - sensitivity: perturbing any single numeric field diverges the
//    encoding (a mutation fuzzer sweeps every field the solve reads);
//  - name-blindness: renames never change the bytes, duplicate names do
//    (the validate_tasks partition);
//  - finalize-independence: pre- and post-finalize tasks encode equally.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/fingerprint.h"
#include "fuzz_instances.h"

namespace odn::core {
namespace {

std::string instance_bytes(const DotInstance& instance) {
  CanonicalWriter writer;
  encode_instance(writer, instance);
  return writer.take();
}

TEST(Fingerprint, HexRendersBothLanes) {
  const Fingerprint fp{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  EXPECT_EQ(fp.hex(), "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(Fingerprint{}.hex(), "00000000000000000000000000000000");
}

TEST(Fingerprint, EqualInstancesEqualBytesAndFingerprints) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const DotInstance a = testing::random_instance(seed);
    const DotInstance b = testing::random_instance(seed);
    EXPECT_EQ(instance_bytes(a), instance_bytes(b)) << "seed " << seed;
    EXPECT_EQ(fingerprint_instance(a), fingerprint_instance(b))
        << "seed " << seed;
  }
}

TEST(Fingerprint, DistinctSeedsDiverge) {
  const Fingerprint base = fingerprint_instance(testing::random_instance(1));
  for (std::uint64_t seed = 2; seed <= 40; ++seed)
    EXPECT_NE(fingerprint_instance(testing::random_instance(seed)), base)
        << "seed " << seed;
}

// Mutation fuzzer: every field the solver reads must reach the encoding.
// Each mutator perturbs exactly one field of a fresh instance; the mutated
// encoding must differ from the pristine one.
TEST(Fingerprint, AnySingleFieldMutationDiverges) {
  using Mutator = void (*)(DotInstance&);
  struct NamedMutator {
    const char* name;
    Mutator apply;
  };
  const NamedMutator mutators[] = {
      {"alpha", [](DotInstance& i) { i.alpha += 0.015625; }},
      {"compute_capacity",
       [](DotInstance& i) { i.resources.compute_capacity_s *= 2.0; }},
      {"training_budget",
       [](DotInstance& i) { i.resources.training_budget_s += 1.0; }},
      {"memory_capacity",
       [](DotInstance& i) { i.resources.memory_capacity_bytes += 4096.0; }},
      {"total_rbs", [](DotInstance& i) { i.resources.total_rbs += 1; }},
      {"block_inference_time",
       [](DotInstance& i) {
         DotInstance fresh;
         for (std::size_t b = 0; b < i.catalog.block_count(); ++b) {
           edge::CatalogBlock copy =
               i.catalog.block(static_cast<edge::BlockIndex>(b));
           if (b == 0) copy.inference_time_s *= 2.0;
           fresh.catalog.add_block(std::move(copy));
         }
         i.catalog = std::move(fresh.catalog);
       }},
      {"block_memory",
       [](DotInstance& i) {
         DotInstance fresh;
         for (std::size_t b = 0; b < i.catalog.block_count(); ++b) {
           edge::CatalogBlock copy =
               i.catalog.block(static_cast<edge::BlockIndex>(b));
           if (b == 0) copy.memory_bytes += 1.0;
           fresh.catalog.add_block(std::move(copy));
         }
         i.catalog = std::move(fresh.catalog);
       }},
      {"task_priority",
       [](DotInstance& i) { i.tasks[0].spec.priority += 0.03125; }},
      {"task_rate",
       [](DotInstance& i) { i.tasks[0].spec.request_rate *= 1.5; }},
      {"task_min_accuracy",
       [](DotInstance& i) { i.tasks[0].spec.min_accuracy += 0.0078125; }},
      {"task_max_latency",
       [](DotInstance& i) { i.tasks[0].spec.max_latency_s *= 0.5; }},
      {"task_snr", [](DotInstance& i) { i.tasks[0].spec.snr_db += 1.0; }},
      {"quality_bits",
       [](DotInstance& i) {
         i.tasks[0].spec.qualities[0].bits_per_image += 8.0;
       }},
      {"quality_factor",
       [](DotInstance& i) {
         i.tasks[0].spec.qualities[0].accuracy_factor -= 0.0625;
       }},
      {"option_accuracy",
       [](DotInstance& i) { i.tasks[0].options[0].path.accuracy += 1e-6; }},
      {"option_blocks",
       [](DotInstance& i) {
         i.tasks[0].options[0].path.blocks.push_back(0);
       }},
      {"task_dropped", [](DotInstance& i) { i.tasks.pop_back(); }},
  };
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::string pristine =
        instance_bytes(testing::random_instance(seed));
    for (const NamedMutator& mutator : mutators) {
      DotInstance mutated = testing::random_instance(seed);
      mutator.apply(mutated);
      EXPECT_NE(instance_bytes(mutated), pristine)
          << mutator.name << " not reached by the encoding, seed " << seed;
    }
  }
}

TEST(Fingerprint, NameBlindButDuplicateAware) {
  const DotInstance base = testing::random_instance(9);
  ASSERT_GE(base.tasks.size(), 1u);

  // Renaming everything changes nothing.
  DotInstance renamed = testing::random_instance(9);
  renamed.name = "other-world";
  for (std::size_t t = 0; t < renamed.tasks.size(); ++t) {
    renamed.tasks[t].spec.name = "renamed-" + std::to_string(t);
    for (auto& option : renamed.tasks[t].options)
      option.path.name += "-renamed";
  }
  EXPECT_EQ(instance_bytes(renamed), instance_bytes(base));

  // A duplicate name changes the partition even though no numeric field
  // moved (validate_tasks would reject the duplicate set).
  if (base.tasks.size() >= 2) {
    DotInstance duplicated = testing::random_instance(9);
    duplicated.tasks[1].spec.name = duplicated.tasks[0].spec.name;
    EXPECT_NE(instance_bytes(duplicated), instance_bytes(base));
  }
}

// Three tasks, the first and last both named "cam".
std::vector<DotTask> duplicate_name_set() {
  std::vector<DotTask> tasks;
  for (int t = 0; t < 3; ++t) {
    DotTask task;
    task.spec.name = t == 1 ? "lidar" : "cam";
    task.spec.priority = 0.25 * (t + 1);
    task.spec.request_rate = 2.0 + t;
    task.spec.min_accuracy = 0.5;
    task.spec.max_latency_s = 0.1 * (t + 1);
    task.spec.snr_db = 15.0;
    task.spec.qualities = {{1e5, 1.0}, {4e4, 0.9}};
    PathOption option;
    option.path.name = "p";
    option.path.blocks = {0, static_cast<edge::BlockIndex>(t + 1)};
    option.path.accuracy = 0.8;
    option.quality_index = static_cast<std::size_t>(t % 2);
    task.options.push_back(option);
    tasks.push_back(task);
  }
  return tasks;
}

// The exact bytes of a duplicate-name set, pinned: its name partition is
// [0, 1, 0] (task 2 points back at task 0), and the digest of the whole
// encoding is the one the hash-map partition produced before the scan
// replaced it.
TEST(Fingerprint, DuplicateNameSetBytesArePinned) {
  CanonicalWriter writer;
  encode_task_set(writer, duplicate_name_set());
  const std::string& bytes = writer.bytes();
  ASSERT_EQ(bytes.size(), 420u);
  const std::string partition(bytes.end() - 24, bytes.end());
  EXPECT_EQ(partition, std::string("\0\0\0\0\0\0\0\0"
                                   "\x01\0\0\0\0\0\0\0"
                                   "\0\0\0\0\0\0\0\0",
                                   24));
  EXPECT_EQ(writer.fingerprint().hex(), "c906074e4f41081924629f043226b6e7");
}

// The once-per-request encoding is byte-identical to encode_task_set, its
// per-task slices to encode_task, and it is built at its exact size.
TEST(Fingerprint, EncodedTaskSetMatchesTheEncoders) {
  std::vector<std::vector<DotTask>> sets{duplicate_name_set(), {}};
  for (std::uint64_t seed = 1; seed <= 10; ++seed)
    sets.push_back(testing::random_instance(seed).tasks);
  for (const std::vector<DotTask>& tasks : sets) {
    const EncodedTaskSet encoded(tasks);
    CanonicalWriter whole;
    encode_task_set(whole, tasks);
    EXPECT_EQ(encoded.bytes(), whole.bytes());
    if (!tasks.empty()) {  // (an empty set fits the short-string buffer)
      EXPECT_EQ(encoded.bytes().capacity(), encoded.bytes().size());
    }
    ASSERT_EQ(encoded.task_count(), tasks.size());
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      CanonicalWriter one;
      encode_task(one, tasks[t]);
      EXPECT_EQ(encoded.task(t), one.bytes()) << "task " << t;
    }
    EXPECT_THROW((void)encoded.task(tasks.size()), std::out_of_range);
  }
}

TEST(Fingerprint, FixedEncodingSizesMatchTheEncoders) {
  const DotInstance world = testing::random_instance(3);
  CanonicalWriter radio;
  encode_radio(radio, world.radio);
  EXPECT_EQ(radio.bytes().size(), kRadioEncodingBytes);
  CanonicalWriter resources;
  encode_resources(resources, world.resources);
  EXPECT_EQ(resources.bytes().size(), kResourcesEncodingBytes);
}

TEST(Fingerprint, TaskEncodingIgnoresFinalizeDerivedFields) {
  const DotInstance world = testing::random_instance(13);
  for (const DotTask& task : world.tasks) {
    DotTask unfinalized = task;
    for (PathOption& option : unfinalized.options) {
      // Smash the derived caches; the encoding must not notice.
      option.inference_time_s = -1.0;
      option.input_bits = -1.0;
    }
    EXPECT_EQ(fingerprint_task(unfinalized), fingerprint_task(task));
  }
}

TEST(Fingerprint, WriterIsCanonical) {
  // Length-prefixing keeps ("ab","c") and ("a","bc") apart.
  CanonicalWriter ab_c;
  ab_c.str("ab");
  ab_c.str("c");
  CanonicalWriter a_bc;
  a_bc.str("a");
  a_bc.str("bc");
  EXPECT_NE(ab_c.bytes(), a_bc.bytes());

  // Bit-pattern doubles: -0.0 and 0.0 are distinct values.
  CanonicalWriter pos;
  pos.f64(0.0);
  CanonicalWriter neg;
  neg.f64(-0.0);
  EXPECT_NE(pos.bytes(), neg.bytes());

  // Different lanes: fingerprints of different bytes differ in both.
  const Fingerprint x = fingerprint_bytes("x");
  const Fingerprint y = fingerprint_bytes("y");
  EXPECT_NE(x.hi, y.hi);
  EXPECT_NE(x.lo, y.lo);
}

}  // namespace
}  // namespace odn::core
