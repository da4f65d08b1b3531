#include "nn/batchnorm.h"

#include <cmath>
#include <vector>

namespace usp {

BatchNorm::BatchNorm(size_t features, float momentum, float epsilon)
    : momentum_(momentum),
      epsilon_(epsilon),
      gamma_(1, features),
      beta_(1, features),
      gamma_grad_(1, features),
      beta_grad_(1, features),
      running_mean_(1, features),
      running_var_(1, features) {
  gamma_.Fill(1.0f);
  running_var_.Fill(1.0f);
}

// Both passes walk the input row by row with the columns inside, so every
// access is unit-stride. Each column's statistic keeps its own double
// accumulator, filled in row order, so it takes the same additions in the
// same order as a column-by-column walk, and every element keeps its
// expression: the outputs are those of the column walk, bit for bit.
Matrix BatchNorm::Forward(const Matrix& input, bool training) {
  const size_t n = input.rows(), f = input.cols();
  USP_CHECK(f == gamma_.cols());
  Matrix out(n, f);
  // The caches feed Backward; inference passes must not touch them (scorer
  // layers are shared by concurrent searches, see serve/dynamic_index.h).
  if (training) cached_normalized_ = Matrix(n, f);

  // Per-column shift and scale: batch statistics when training on more than
  // one row, the running statistics otherwise.
  std::vector<float> shift(f), inv_std(f);
  if (training && n > 1) {
    std::vector<double> mean(f, 0.0), var(f, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const float* x = input.Row(i);
      for (size_t j = 0; j < f; ++j) mean[j] += x[j];
    }
    for (size_t j = 0; j < f; ++j) mean[j] /= static_cast<double>(n);
    for (size_t i = 0; i < n; ++i) {
      const float* x = input.Row(i);
      for (size_t j = 0; j < f; ++j) {
        const double d = x[j] - mean[j];
        var[j] += d * d;
      }
    }
    for (size_t j = 0; j < f; ++j) {
      var[j] /= static_cast<double>(n);  // biased, like torch's normalization
      shift[j] = static_cast<float>(mean[j]);
      inv_std[j] = 1.0f / std::sqrt(static_cast<float>(var[j]) + epsilon_);
      running_mean_(0, j) = (1.0f - momentum_) * running_mean_(0, j) +
                            momentum_ * static_cast<float>(mean[j]);
      running_var_(0, j) = (1.0f - momentum_) * running_var_(0, j) +
                           momentum_ * static_cast<float>(var[j]);
    }
  } else {
    for (size_t j = 0; j < f; ++j) {
      shift[j] = running_mean_(0, j);
      inv_std[j] = 1.0f / std::sqrt(running_var_(0, j) + epsilon_);
    }
  }
  if (training) cached_inv_std_ = inv_std;

  const float* gamma = gamma_.data();
  const float* beta = beta_.data();
  for (size_t i = 0; i < n; ++i) {
    const float* x = input.Row(i);
    float* y = out.Row(i);
    float* xhat = training ? cached_normalized_.Row(i) : nullptr;
    for (size_t j = 0; j < f; ++j) {
      const float xn = (x[j] - shift[j]) * inv_std[j];
      if (xhat != nullptr) xhat[j] = xn;
      y[j] = gamma[j] * xn + beta[j];
    }
  }
  return out;
}

Matrix BatchNorm::Backward(const Matrix& grad_output) {
  const size_t n = grad_output.rows(), f = grad_output.cols();
  USP_CHECK(n == cached_normalized_.rows() && f == cached_normalized_.cols());
  Matrix grad_input(n, f);
  // Standard batch-norm backward through batch statistics:
  //   dxhat = dy * gamma
  //   dx = inv_std/N * (N*dxhat - sum(dxhat) - xhat * sum(dxhat*xhat))
  const float* gamma = gamma_.data();
  std::vector<double> sum_dxhat(f, 0.0), sum_dxhat_xhat(f, 0.0),
      sum_dy(f, 0.0), sum_dy_xhat(f, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const float* dy = grad_output.Row(i);
    const float* xhat = cached_normalized_.Row(i);
    for (size_t j = 0; j < f; ++j) {
      const float dxhat = dy[j] * gamma[j];
      sum_dxhat[j] += dxhat;
      sum_dxhat_xhat[j] += static_cast<double>(dxhat) * xhat[j];
      sum_dy[j] += dy[j];
      sum_dy_xhat[j] += static_cast<double>(dy[j]) * xhat[j];
    }
  }
  const float inv_n = 1.0f / static_cast<float>(n);
  // inv_n * sum(dxhat) is a per-column constant, rounded on its own as the
  // column walk's hoisted product was, so no build contracts it into an FMA.
  std::vector<float> dxhat_mean(f), dxhat_xhat_total(f);
  for (size_t j = 0; j < f; ++j) {
    gamma_grad_(0, j) = static_cast<float>(sum_dy_xhat[j]);
    beta_grad_(0, j) = static_cast<float>(sum_dy[j]);
    dxhat_mean[j] = inv_n * static_cast<float>(sum_dxhat[j]);
    dxhat_xhat_total[j] = static_cast<float>(sum_dxhat_xhat[j]);
  }
  for (size_t i = 0; i < n; ++i) {
    const float* dy = grad_output.Row(i);
    const float* xhat = cached_normalized_.Row(i);
    float* dx = grad_input.Row(i);
    for (size_t j = 0; j < f; ++j) {
      const float dxhat = dy[j] * gamma[j];
      dx[j] = cached_inv_std_[j] *
              (dxhat - dxhat_mean[j] - xhat[j] * inv_n * dxhat_xhat_total[j]);
    }
  }
  return grad_input;
}

void BatchNorm::CollectParameters(std::vector<Matrix*>* params,
                                  std::vector<Matrix*>* grads) {
  params->push_back(&gamma_);
  params->push_back(&beta_);
  grads->push_back(&gamma_grad_);
  grads->push_back(&beta_grad_);
}

void BatchNorm::CollectStateTensors(std::vector<Matrix*>* tensors) {
  tensors->push_back(&gamma_);
  tensors->push_back(&beta_);
  tensors->push_back(&running_mean_);
  tensors->push_back(&running_var_);
}

}  // namespace usp
