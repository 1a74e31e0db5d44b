// Unit tests for data/: Dataset semantics, stream splitting, domain
// augmentation, and the synthetic HAR/image generators.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>

#include "common/serialize.h"
#include "data/dataset.h"
#include "data/har_generator.h"
#include "data/image_generator.h"

namespace qcore {
namespace {

Dataset TinyDataset() {
  Tensor x = Tensor::FromVector({4, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  return Dataset(std::move(x), {0, 1, 0, 1}, 2);
}

TEST(DatasetTest, BasicAccessors) {
  Dataset d = TinyDataset();
  EXPECT_EQ(d.size(), 4);
  EXPECT_EQ(d.num_classes(), 2);
  EXPECT_EQ(d.ClassCounts(), (std::vector<int>{2, 2}));
}

TEST(DatasetTest, SubsetCopiesRows) {
  Dataset d = TinyDataset();
  Dataset s = d.Subset({2, 0});
  EXPECT_EQ(s.size(), 2);
  EXPECT_FLOAT_EQ(s.x().at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(s.x().at(1, 0), 1.0f);
  EXPECT_EQ(s.labels()[0], 0);
}

TEST(DatasetTest, ConcatAndEmpty) {
  Dataset d = TinyDataset();
  Dataset c = Dataset::Concat(d, d.Subset({0}));
  EXPECT_EQ(c.size(), 5);
  Dataset e;
  EXPECT_EQ(Dataset::Concat(e, d).size(), 4);
  EXPECT_EQ(Dataset::Concat(d, e).size(), 4);
}

TEST(DatasetTest, ExampleKeepsBatchAxis) {
  Dataset d = TinyDataset();
  Tensor e = d.Example(1);
  EXPECT_EQ(e.dim(0), 1);
  EXPECT_FLOAT_EQ(e.at(0, 1), 4.0f);
}

TEST(DatasetTest, ReplicateToReachesTargetAndKeepsLabels) {
  Rng rng(1);
  Dataset d = TinyDataset();
  Dataset r = d.ReplicateTo(11, &rng);
  EXPECT_EQ(r.size(), 11);
  // Every replicated label/feature pair must come from the original.
  for (int i = 0; i < r.size(); ++i) {
    bool found = false;
    for (int j = 0; j < d.size(); ++j) {
      if (r.labels()[static_cast<size_t>(i)] ==
              d.labels()[static_cast<size_t>(j)] &&
          r.x().at(i, 0) == d.x().at(j, 0)) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
  // Each original example appears at least twice (11 / 4 rounded down).
  for (int j = 0; j < d.size(); ++j) {
    int count = 0;
    for (int i = 0; i < r.size(); ++i) {
      if (r.x().at(i, 0) == d.x().at(j, 0)) ++count;
    }
    EXPECT_GE(count, 2);
  }
}

TEST(DatasetTest, ShuffledIsPermutation) {
  Rng rng(2);
  Dataset d = TinyDataset();
  Dataset s = d.Shuffled(&rng);
  std::multiset<float> a, b;
  for (int i = 0; i < 4; ++i) {
    a.insert(d.x().at(i, 0));
    b.insert(s.x().at(i, 0));
  }
  EXPECT_EQ(a, b);
}

// One Dataset record as SerializeTo lays it out, with every field chosen by
// the caller so each can be damaged alone.
std::vector<uint8_t> DatasetRecord(int32_t classes, int32_t count,
                                   const std::vector<int64_t>& shape,
                                   const std::vector<float>& values,
                                   const std::vector<int32_t>& labels) {
  BinaryWriter w;
  w.WriteI32(classes);
  w.WriteI32(count);
  w.WriteInt64s(shape);
  if (count != 0) {
    w.WriteFloats(values);
    w.WriteInts(labels);
  }
  return w.TakeBuffer();
}

TEST(DatasetTest, SerializeRoundTripsAndDamagedRecordsAreCorruption) {
  const Dataset d = TinyDataset();
  BinaryWriter w;
  d.SerializeTo(&w);
  BinaryReader r(w.buffer());
  auto back = Dataset::DeserializeFrom(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_TRUE(back.value().x().SameShape(d.x()));
  EXPECT_EQ(std::memcmp(back.value().x().data(), d.x().data(),
                        sizeof(float) * static_cast<size_t>(d.x().size())),
            0);
  EXPECT_EQ(back.value().labels(), d.labels());
  EXPECT_EQ(back.value().num_classes(), d.num_classes());

  BinaryWriter empty_writer;
  Dataset().SerializeTo(&empty_writer);
  BinaryReader empty_reader(empty_writer.buffer());
  auto empty = Dataset::DeserializeFrom(&empty_reader);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty.value().empty());

  const std::vector<float> four = {1, 2, 3, 4};
  const int64_t huge = (int64_t{1} << 62) + 1;  // 2 * huge * 2 wraps to 4
  const std::vector<std::vector<uint8_t>> damaged = {
      DatasetRecord(2, 2, {2, 2}, four, {0, 2}),       // label == classes
      DatasetRecord(2, 2, {2, 2}, four, {0, -1}),      // negative label
      DatasetRecord(0, 2, {2, 2}, four, {0, 0}),       // no classes, rows
      DatasetRecord(2, 2, {2, 0}, {}, {0, 1}),         // zero dimension
      DatasetRecord(2, 2, {2, -1, -2}, four, {0, 1}),  // negative dims
      DatasetRecord(2, 0, {0, 2}, {}, {}),             // zero rows, a shape
      DatasetRecord(2, 2, {2, huge, 2}, four, {0, 1}),  // overflowing shape
  };
  for (size_t i = 0; i < damaged.size(); ++i) {
    BinaryReader reader(damaged[i]);
    auto decoded = Dataset::DeserializeFrom(&reader);
    ASSERT_FALSE(decoded.ok()) << "record " << i;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
        << "record " << i;
  }
}

// Stream-splitting property: parts partition the dataset.
class StreamSplitTest : public ::testing::TestWithParam<int> {};

TEST_P(StreamSplitTest, PartitionsExactly) {
  Rng rng(3);
  const int parts = GetParam();
  HarSpec spec = HarSpec::Usc();
  spec.train_per_class = 5;
  Dataset d = MakeHarDomain(spec, 0).train;
  std::vector<Dataset> batches = SplitIntoStreamBatches(d, parts, &rng);
  ASSERT_EQ(static_cast<int>(batches.size()), parts);
  int total = 0;
  for (const auto& b : batches) {
    EXPECT_GE(b.size(), d.size() / parts);
    total += b.size();
  }
  EXPECT_EQ(total, d.size());
}

INSTANTIATE_TEST_SUITE_P(Parts, StreamSplitTest,
                         ::testing::Values(1, 2, 3, 7, 10));

TEST(AugmentDomainTest, PreservesLabelsChangesValues) {
  Rng rng(4);
  HarSpec spec = HarSpec::Dsa();
  spec.train_per_class = 2;
  Dataset d = MakeHarDomain(spec, 0).train;
  Dataset a = AugmentDomain(d, 1.0f, &rng);
  EXPECT_EQ(a.labels(), d.labels());
  double diff = 0.0;
  for (int64_t i = 0; i < d.x().size(); ++i) {
    diff += std::fabs(a.x()[i] - d.x()[i]);
  }
  EXPECT_GT(diff / d.x().size(), 0.01);
}

TEST(AugmentDomainTest, ZeroStrengthStillAddsOnlyTinyNoise) {
  Rng rng(5);
  Dataset d = TinyDataset();
  Dataset a = AugmentDomain(d, 0.0f, &rng);
  for (int64_t i = 0; i < d.x().size(); ++i) {
    EXPECT_NEAR(a.x()[i], d.x()[i], 1e-5f);
  }
}

TEST(HarGeneratorTest, SpecsMatchPaperShapes) {
  HarSpec dsa = HarSpec::Dsa();
  EXPECT_EQ(dsa.num_classes, 19);
  EXPECT_EQ(dsa.num_subjects, 8);
  HarSpec usc = HarSpec::Usc();
  EXPECT_EQ(usc.num_classes, 12);
  EXPECT_EQ(usc.num_subjects, 14);
}

TEST(HarGeneratorTest, ShapesAndLabelRanges) {
  HarSpec spec = HarSpec::Dsa();
  spec.train_per_class = 3;
  HarDomain dom = MakeHarDomain(spec, 0);
  EXPECT_EQ(dom.train.size(), 3 * spec.num_classes);
  EXPECT_EQ(dom.train.x().ndim(), 3);
  EXPECT_EQ(dom.train.x().dim(1), spec.channels);
  EXPECT_EQ(dom.train.x().dim(2), spec.length);
  for (int y : dom.train.labels()) {
    EXPECT_GE(y, 0);
    EXPECT_LT(y, spec.num_classes);
  }
  // Every class appears exactly per-class times.
  for (int count : dom.train.ClassCounts()) EXPECT_EQ(count, 3);
}

TEST(HarGeneratorTest, Deterministic) {
  HarSpec spec = HarSpec::Usc();
  spec.train_per_class = 2;
  HarDomain a = MakeHarDomain(spec, 1);
  HarDomain b = MakeHarDomain(spec, 1);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (int64_t i = 0; i < a.train.x().size(); ++i) {
    EXPECT_FLOAT_EQ(a.train.x()[i], b.train.x()[i]);
  }
}

TEST(HarGeneratorTest, SubjectsDiffer) {
  HarSpec spec = HarSpec::Dsa();
  spec.train_per_class = 2;
  Dataset a = MakeHarDomain(spec, 0).train;
  Dataset b = MakeHarDomain(spec, 1).train;
  double diff = 0.0;
  for (int64_t i = 0; i < a.x().size(); ++i) {
    diff += std::fabs(a.x()[i] - b.x()[i]);
  }
  EXPECT_GT(diff / a.x().size(), 0.05);
}

TEST(HarGeneratorTest, ZeroShiftSubjectsNearlyIdenticalInDistribution) {
  HarSpec spec = HarSpec::Dsa();
  spec.train_per_class = 4;
  spec.domain_shift = 0.0f;
  // With zero shift, per-channel means across subjects should be close.
  Dataset a = MakeHarDomain(spec, 0).train;
  Dataset b = MakeHarDomain(spec, 3).train;
  EXPECT_NEAR(a.x().Mean(), b.x().Mean(), 0.05f);
}

TEST(ImageGeneratorTest, DomainsAndShapes) {
  ImageSpec spec = ImageSpec::Caltech10();
  EXPECT_EQ(spec.num_domains(), 4);
  EXPECT_EQ(spec.DomainIndex("DSLR"), 2);
  spec.train_per_class = 2;
  ImageDomain dom = MakeImageDomain(spec, 0);
  EXPECT_EQ(dom.train.x().ndim(), 4);
  EXPECT_EQ(dom.train.x().dim(1), 3);
  EXPECT_EQ(dom.train.x().dim(2), 16);
  EXPECT_EQ(dom.train.size(), 2 * 10);
}

TEST(ImageGeneratorTest, DomainsDifferDeterministically) {
  ImageSpec spec = ImageSpec::Caltech10();
  spec.train_per_class = 2;
  Dataset amazon = MakeImageDomain(spec, 0).train;
  Dataset webcam = MakeImageDomain(spec, 3).train;
  Dataset amazon2 = MakeImageDomain(spec, 0).train;
  double cross = 0.0, self = 0.0;
  for (int64_t i = 0; i < amazon.x().size(); ++i) {
    cross += std::fabs(amazon.x()[i] - webcam.x()[i]);
    self += std::fabs(amazon.x()[i] - amazon2.x()[i]);
  }
  EXPECT_GT(cross / amazon.x().size(), 0.05);
  EXPECT_FLOAT_EQ(self, 0.0);
}

}  // namespace
}  // namespace qcore
