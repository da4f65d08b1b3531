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
  const size_t size = input.size();
  mask_.resize(size);
  const float scale = 1.0f / (1.0f - rate_);
  const float* src = input.data();
  float* dst = out.data();
  uint8_t* mask = mask_.data();
  // One inline draw per element, and a select rather than a branch on it.
  // The generator runs on a local copy: byte stores through `mask` may alias
  // a member's state, which would then go through memory on every draw.
  Rng rng = rng_;
  for (size_t i = 0; i < size; ++i) {
    const bool keep = rng.Uniform() >= rate_;
    mask[i] = keep;
    dst[i] = keep ? src[i] * scale : 0.0f;
  }
  rng_ = rng;
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
