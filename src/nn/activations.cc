#include "nn/activations.h"

namespace usp {

// Both passes select rather than branch, so their loops vectorize and a
// mix of signs costs no mispredictions. -0 and NaN fail `> 0` and map to +0
// with mask 0.
Matrix Relu::Forward(const Matrix& input, bool training) {
  Matrix out(input.rows(), input.cols());
  const size_t size = input.size();
  const float* src = input.data();
  float* dst = out.data();
  for (size_t i = 0; i < size; ++i) dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
  // Inference writes no member state: scorer layers are shared by
  // concurrent searches (serve/dynamic_index.h), so the cache used by
  // Backward must only be touched on training passes.
  if (training) {
    mask_.resize(size);
    uint8_t* mask = mask_.data();
    for (size_t i = 0; i < size; ++i) mask[i] = src[i] > 0.0f;
  }
  return out;
}

Matrix Relu::Backward(const Matrix& grad_output) {
  USP_CHECK(grad_output.size() == mask_.size());
  Matrix grad_input(grad_output.rows(), grad_output.cols());
  const float* src = grad_output.data();
  const uint8_t* mask = mask_.data();
  float* dst = grad_input.data();
  for (size_t i = 0; i < grad_output.size(); ++i) {
    const float g = src[i];  // read unconditionally: the select needs it
    dst[i] = mask[i] ? g : 0.0f;
  }
  return grad_input;
}

Dropout::Dropout(float rate, uint64_t seed) : rate_(rate), rng_(seed) {
  USP_CHECK(rate >= 0.0f && rate < 1.0f);
}

Matrix Dropout::Forward(const Matrix& input, bool training) {
  // Inference passes must not touch member state (see Relu::Forward).
  if (!training || rate_ == 0.0f) return input.Clone();
  last_was_training_ = true;
  Matrix out(input.rows(), input.cols());
  mask_.assign(input.size(), 0);
  const float scale = 1.0f / (1.0f - rate_);
  const float* src = input.data();
  float* dst = out.data();
  for (size_t i = 0; i < input.size(); ++i) {
    if (rng_.Uniform() >= rate_) {
      mask_[i] = 1;
      dst[i] = src[i] * scale;
    }
  }
  return out;
}

Matrix Dropout::Backward(const Matrix& grad_output) {
  if (!last_was_training_ || rate_ == 0.0f) return grad_output.Clone();
  USP_CHECK(grad_output.size() == mask_.size());
  Matrix grad_input(grad_output.rows(), grad_output.cols());
  const float scale = 1.0f / (1.0f - rate_);
  const float* src = grad_output.data();
  float* dst = grad_input.data();
  for (size_t i = 0; i < grad_output.size(); ++i) {
    dst[i] = mask_[i] ? src[i] * scale : 0.0f;
  }
  return grad_input;
}

}  // namespace usp
