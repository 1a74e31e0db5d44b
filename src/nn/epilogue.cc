#include "nn/epilogue.h"

#include "common/check.h"

namespace qcore {

void ScaleShiftRows(const float* x, const float* scale, const float* shift,
                    int64_t channels, int64_t len, float* out) {
  for (int64_t c = 0; c < channels; ++c) {
    const float s = scale[c], b = shift[c];
    const float* row = x + c * len;
    float* orow = out + c * len;
    for (int64_t t = 0; t < len; ++t) orow[t] = s * row[t] + b;
  }
}

void ReluInto(const float* x, int64_t n, float* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void AddInto(const float* a, const float* b, int64_t n, bool relu,
             float* out) {
  if (!relu) {
    for (int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
    return;
  }
  for (int64_t i = 0; i < n; ++i) {
    const float v = a[i] + b[i];
    out[i] = v > 0.0f ? v : 0.0f;
  }
}

void Epilogue::AddScaleShift(const float* scale, const float* shift) {
  QCORE_CHECK(scale != nullptr && shift != nullptr && count_ < kMaxSteps);
  steps_[count_++] = {scale, shift};
}

void Epilogue::AddRelu() {
  QCORE_CHECK_LT(count_, kMaxSteps);
  steps_[count_++] = {};
}

void Epilogue::Apply(float* block, int64_t channels, int64_t spatial) const {
  for (int i = 0; i < count_; ++i) {
    const Step& step = steps_[i];
    if (step.scale == nullptr) {
      ReluInto(block, channels * spatial, block);
    } else {
      ScaleShiftRows(block, step.scale, step.shift, channels, spatial, block);
    }
  }
}

}  // namespace qcore
