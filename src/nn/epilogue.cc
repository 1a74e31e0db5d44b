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

void NormalizeRows(const float* x, const float* mean, const float* inv_std,
                   const float* gamma, const float* beta, int64_t channels,
                   int64_t len, float* xhat, float* out) {
  for (int64_t c = 0; c < channels; ++c) {
    const float m = mean[c], s = inv_std[c], g = gamma[c], b = beta[c];
    const float* row = x + c * len;
    float* orow = out + c * len;
    if (xhat == nullptr) {
      for (int64_t t = 0; t < len; ++t) orow[t] = g * ((row[t] - m) * s) + b;
      continue;
    }
    float* xrow = xhat + c * len;
    for (int64_t t = 0; t < len; ++t) {
      const float xh = (row[t] - m) * s;
      xrow[t] = xh;
      orow[t] = g * xh + b;
    }
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
  steps_[count_++] = {Kind::kScaleShift, {scale, shift}};
}

void Epilogue::AddNormalize(const float* mean, const float* inv_std,
                            const float* gamma, const float* beta) {
  QCORE_CHECK(mean != nullptr && inv_std != nullptr && gamma != nullptr &&
              beta != nullptr && count_ < kMaxSteps);
  steps_[count_++] = {Kind::kNormalize, {mean, inv_std, gamma, beta}};
}

void Epilogue::AddRelu() {
  QCORE_CHECK_LT(count_, kMaxSteps);
  steps_[count_++] = {};
}

void Epilogue::Apply(float* block, int64_t channels, int64_t spatial) const {
  for (int i = 0; i < count_; ++i) {
    const float* const* p = steps_[i].terms;
    switch (steps_[i].kind) {
      case Kind::kRelu:
        ReluInto(block, channels * spatial, block);
        break;
      case Kind::kScaleShift:
        ScaleShiftRows(block, p[0], p[1], channels, spatial, block);
        break;
      case Kind::kNormalize:
        NormalizeRows(block, p[0], p[1], p[2], p[3], channels, spatial,
                      /*xhat=*/nullptr, block);
        break;
    }
  }
}

}  // namespace qcore
