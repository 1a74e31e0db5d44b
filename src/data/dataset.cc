#include "data/dataset.h"

#include <algorithm>
#include <limits>

#include "common/serialize.h"
#include "tensor/tensor_ops.h"

namespace qcore {

Dataset::Dataset(Tensor x, std::vector<int> labels, int num_classes)
    : x_(std::move(x)), labels_(std::move(labels)), num_classes_(num_classes) {
  QCORE_CHECK_GT(num_classes_, 0);
  QCORE_CHECK_EQ(x_.dim(0), static_cast<int64_t>(labels_.size()));
  for (int y : labels_) QCORE_CHECK(y >= 0 && y < num_classes_);
}

Dataset Dataset::Subset(const std::vector<int>& indices) const {
  std::vector<int> sub_labels(indices.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    QCORE_CHECK(indices[i] >= 0 && indices[i] < size());
    sub_labels[i] = labels_[static_cast<size_t>(indices[i])];
  }
  return Dataset(x_.GatherRows(indices), std::move(sub_labels), num_classes_);
}

Dataset Dataset::Concat(const Dataset& a, const Dataset& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  QCORE_CHECK_EQ(a.num_classes_, b.num_classes_);
  std::vector<int> labels = a.labels_;
  labels.insert(labels.end(), b.labels_.begin(), b.labels_.end());
  return Dataset(ConcatRows(a.x_, b.x_), std::move(labels),
                 a.num_classes_);
}

Tensor Dataset::Example(int i) const {
  QCORE_CHECK(i >= 0 && i < size());
  return x_.SliceRows(i, i + 1);
}

std::vector<int> Dataset::ClassCounts() const {
  std::vector<int> counts(static_cast<size_t>(num_classes_), 0);
  for (int y : labels_) ++counts[static_cast<size_t>(y)];
  return counts;
}

Dataset Dataset::ReplicateTo(int target_size, Rng* rng) const {
  QCORE_CHECK(rng != nullptr);
  QCORE_CHECK_GT(size(), 0);
  QCORE_CHECK_GE(target_size, size());
  std::vector<int> order(static_cast<size_t>(size()));
  for (int i = 0; i < size(); ++i) order[static_cast<size_t>(i)] = i;
  rng->Shuffle(&order);
  std::vector<int> indices;
  indices.reserve(static_cast<size_t>(target_size));
  for (int i = 0; i < target_size; ++i) {
    indices.push_back(order[static_cast<size_t>(i % size())]);
  }
  return Subset(indices);
}

Dataset Dataset::Shuffled(Rng* rng) const {
  QCORE_CHECK(rng != nullptr);
  std::vector<int> order(static_cast<size_t>(size()));
  for (int i = 0; i < size(); ++i) order[static_cast<size_t>(i)] = i;
  rng->Shuffle(&order);
  return Subset(order);
}

void Dataset::SerializeTo(BinaryWriter* w) const {
  w->WriteI32(num_classes_);
  w->WriteI32(size());
  w->WriteInt64s(x_.shape());
  if (empty()) return;  // the default dataset: no tensor, class count 0
  w->WriteFloats(x_.data(), x_.vec().size());
  std::vector<int32_t> labels(labels_.begin(), labels_.end());
  w->WriteInts(labels);
}

// Every check the Dataset and Tensor constructors would abort on is made
// here first, so damaged bytes come back as Corruption.
Result<Dataset> Dataset::DeserializeFrom(BinaryReader* r) {
  auto classes = r->ReadI32();
  if (!classes.ok()) return classes.status();
  auto count = r->ReadI32();
  if (!count.ok()) return count.status();
  auto shape = r->ReadInt64s();
  if (!shape.ok()) return shape.status();
  const auto inconsistent = [] {
    return Status::Corruption("dataset record is internally inconsistent");
  };
  if (count.value() == 0) {
    if (classes.value() != 0 || !shape.value().empty()) return inconsistent();
    return Dataset();
  }
  if (count.value() < 0 || classes.value() <= 0 || shape.value().empty() ||
      shape.value()[0] != count.value()) {
    return inconsistent();
  }
  int64_t elements = 1;
  for (int64_t d : shape.value()) {
    if (d < 1 || elements > std::numeric_limits<int64_t>::max() / d) {
      return inconsistent();
    }
    elements *= d;
  }
  auto values = r->ReadFloats();
  if (!values.ok()) return values.status();
  auto labels = r->ReadInts();
  if (!labels.ok()) return labels.status();
  if (labels.value().size() != static_cast<size_t>(count.value()) ||
      values.value().size() != static_cast<size_t>(elements)) {
    return inconsistent();
  }
  for (int32_t y : labels.value()) {
    if (y < 0 || y >= classes.value()) return inconsistent();
  }
  Tensor x = Tensor::FromVector(std::move(shape).value(),
                                std::move(values).value());
  std::vector<int> y(labels.value().begin(), labels.value().end());
  return Dataset(std::move(x), std::move(y), classes.value());
}

Dataset AugmentDomain(const Dataset& d, float strength, Rng* rng) {
  QCORE_CHECK(rng != nullptr);
  QCORE_CHECK_GE(strength, 0.0f);
  QCORE_CHECK(!d.empty());
  const Tensor& x = d.x();
  QCORE_CHECK_GE(x.ndim(), 2);
  const int64_t n = x.dim(0);
  const int64_t channels = x.ndim() >= 3 ? x.dim(1) : x.dim(1);
  int64_t spatial = 1;
  for (int dim = 2; dim < x.ndim(); ++dim) spatial *= x.dim(dim);

  std::vector<float> gain(static_cast<size_t>(channels));
  std::vector<float> bias(static_cast<size_t>(channels));
  for (int64_t c = 0; c < channels; ++c) {
    gain[static_cast<size_t>(c)] =
        1.0f + 0.2f * strength * static_cast<float>(rng->NextGaussian());
    bias[static_cast<size_t>(c)] =
        0.3f * strength * static_cast<float>(rng->NextGaussian());
  }
  const float noise = 0.05f * strength;

  Tensor out = x;
  float* p = out.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t c = 0; c < channels; ++c) {
      float* row = p + (i * channels + c) * spatial;
      for (int64_t t = 0; t < spatial; ++t) {
        row[t] = gain[static_cast<size_t>(c)] * row[t] +
                 bias[static_cast<size_t>(c)] +
                 noise * static_cast<float>(rng->NextGaussian());
      }
    }
  }
  return Dataset(std::move(out), d.labels(), d.num_classes());
}

std::vector<Dataset> SplitIntoStreamBatches(const Dataset& d, int num_parts,
                                            Rng* rng) {
  QCORE_CHECK_GT(num_parts, 0);
  QCORE_CHECK_GE(d.size(), num_parts);
  Dataset shuffled = d.Shuffled(rng);
  std::vector<Dataset> parts;
  parts.reserve(static_cast<size_t>(num_parts));
  const int base = d.size() / num_parts;
  const int extra = d.size() % num_parts;
  int offset = 0;
  for (int p = 0; p < num_parts; ++p) {
    const int count = base + (p < extra ? 1 : 0);
    std::vector<int> idx(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) idx[static_cast<size_t>(i)] = offset + i;
    parts.push_back(shuffled.Subset(idx));
    offset += count;
  }
  return parts;
}

}  // namespace qcore
