// Tests for nn/: every layer's backward pass is validated against central
// finite differences (both input gradients and parameter gradients), the
// optimizers are checked on closed-form problems, and the model factory is
// checked against the paper's architecture (parameter counts of Table 2).
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/layer.h"
#include "nn/linear.h"
#include "nn/model_factory.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace usp {
namespace {

uint32_t Bits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

// Scalar loss used to drive gradient checks: L = sum(output * coeff).
double ScalarLoss(const Matrix& out, const Matrix& coeff) {
  double total = 0.0;
  for (size_t i = 0; i < out.size(); ++i) {
    total += static_cast<double>(out.data()[i]) * coeff.data()[i];
  }
  return total;
}

// Checks dL/dInput of `layer` against central differences. The layer must be
// deterministic across Forward calls (no dropout).
void CheckInputGradient(Layer* layer, const Matrix& input, double tolerance) {
  Rng rng(99);
  Matrix out = layer->Forward(input, /*training=*/true);
  const Matrix coeff = Matrix::RandomGaussian(out.rows(), out.cols(), &rng);
  const Matrix grad_input = layer->Backward(coeff);

  const double eps = 1e-3;
  Matrix perturbed = input.Clone();
  for (size_t idx = 0; idx < input.size(); ++idx) {
    const float original = perturbed.data()[idx];
    perturbed.data()[idx] = original + static_cast<float>(eps);
    const double plus = ScalarLoss(layer->Forward(perturbed, true), coeff);
    perturbed.data()[idx] = original - static_cast<float>(eps);
    const double minus = ScalarLoss(layer->Forward(perturbed, true), coeff);
    perturbed.data()[idx] = original;
    const double numeric = (plus - minus) / (2.0 * eps);
    EXPECT_NEAR(grad_input.data()[idx], numeric, tolerance)
        << "input grad mismatch at " << idx;
  }
}

// Checks dL/dParam for every parameter tensor of `layer`.
void CheckParameterGradients(Layer* layer, const Matrix& input,
                             double tolerance) {
  Rng rng(98);
  Matrix out = layer->Forward(input, true);
  const Matrix coeff = Matrix::RandomGaussian(out.rows(), out.cols(), &rng);
  layer->Backward(coeff);

  std::vector<Matrix*> params, grads;
  layer->CollectParameters(&params, &grads);
  const double eps = 1e-3;
  for (size_t p = 0; p < params.size(); ++p) {
    for (size_t idx = 0; idx < params[p]->size(); ++idx) {
      const float original = params[p]->data()[idx];
      params[p]->data()[idx] = original + static_cast<float>(eps);
      const double plus = ScalarLoss(layer->Forward(input, true), coeff);
      params[p]->data()[idx] = original - static_cast<float>(eps);
      const double minus = ScalarLoss(layer->Forward(input, true), coeff);
      params[p]->data()[idx] = original;
      const double numeric = (plus - minus) / (2.0 * eps);
      // Re-run forward/backward to restore analytic gradients.
      layer->Forward(input, true);
      layer->Backward(coeff);
      EXPECT_NEAR(grads[p]->data()[idx], numeric, tolerance)
          << "param " << p << " grad mismatch at " << idx;
    }
  }
}

TEST(LinearTest, ForwardMatchesManualAffine) {
  Rng rng(1);
  Linear layer(3, 2, &rng);
  layer.weight().Fill(0.0f);
  layer.weight()(0, 0) = 1.0f;
  layer.weight()(2, 1) = 2.0f;
  layer.bias()(0, 1) = -1.0f;
  Matrix input(1, 3);
  input(0, 0) = 4.0f;
  input(0, 2) = 5.0f;
  const Matrix out = layer.Forward(input, false);
  EXPECT_FLOAT_EQ(out(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(out(0, 1), 9.0f);
}

TEST(LinearTest, GlorotInitWithinLimit) {
  Rng rng(2);
  Linear layer(100, 50, &rng);
  const float limit = std::sqrt(6.0f / 150.0f);
  for (size_t i = 0; i < layer.weight().size(); ++i) {
    EXPECT_LE(std::abs(layer.weight().data()[i]), limit);
  }
  for (size_t i = 0; i < layer.bias().size(); ++i) {
    EXPECT_EQ(layer.bias().data()[i], 0.0f);
  }
}

TEST(LinearTest, GradientsMatchFiniteDifferences) {
  Rng rng(3);
  Linear layer(4, 3, &rng);
  const Matrix input = Matrix::RandomGaussian(5, 4, &rng);
  CheckInputGradient(&layer, input, 5e-2);
  CheckParameterGradients(&layer, input, 5e-2);
}

TEST(LinearTest, ParameterCountIsWeightsPlusBias) {
  Rng rng(4);
  Linear layer(128, 16, &rng);
  EXPECT_EQ(layer.ParameterCount(), 128u * 16u + 16u);
}

TEST(ReluTest, ForwardClampsNegatives) {
  Relu relu;
  Matrix input(1, 4);
  input(0, 0) = -1.0f;
  input(0, 1) = 2.0f;
  input(0, 2) = 0.0f;
  input(0, 3) = -0.5f;
  const Matrix out = relu.Forward(input, true);
  EXPECT_EQ(out(0, 0), 0.0f);
  EXPECT_EQ(out(0, 1), 2.0f);
  EXPECT_EQ(out(0, 2), 0.0f);
  EXPECT_EQ(out(0, 3), 0.0f);
}

TEST(ReluTest, NegativeZeroAndNanMapToPositiveZero) {
  Relu relu;
  Matrix input(1, 3);
  input(0, 0) = -0.0f;
  input(0, 1) = std::numeric_limits<float>::quiet_NaN();
  input(0, 2) = 1.5f;
  for (const bool training : {true, false}) {
    const Matrix out = relu.Forward(input, training);
    EXPECT_EQ(Bits(out(0, 0)), Bits(0.0f));
    EXPECT_EQ(Bits(out(0, 1)), Bits(0.0f));
    EXPECT_EQ(out(0, 2), 1.5f);
  }
  // The training pass's mask is 0 for both, so no gradient flows back.
  relu.Forward(input, true);
  Matrix grad(1, 3);
  grad.Fill(2.0f);
  const Matrix grad_in = relu.Backward(grad);
  EXPECT_EQ(Bits(grad_in(0, 0)), Bits(0.0f));
  EXPECT_EQ(Bits(grad_in(0, 1)), Bits(0.0f));
  EXPECT_EQ(grad_in(0, 2), 2.0f);
}

TEST(ReluTest, GradientMatchesFiniteDifferences) {
  Rng rng(5);
  Relu relu;
  // Keep activations away from the kink so finite differences are valid.
  Matrix input = Matrix::RandomGaussian(6, 5, &rng);
  for (size_t i = 0; i < input.size(); ++i) {
    if (std::abs(input.data()[i]) < 0.05f) input.data()[i] = 0.5f;
  }
  CheckInputGradient(&relu, input, 5e-2);
}

TEST(BatchNormTest, TrainOutputIsStandardized) {
  BatchNorm bn(3);
  Rng rng(6);
  const Matrix input = Matrix::RandomGaussian(64, 3, &rng, 5.0f, 2.0f);
  const Matrix out = bn.Forward(input, true);
  for (size_t j = 0; j < 3; ++j) {
    double mean = 0.0, var = 0.0;
    for (size_t i = 0; i < 64; ++i) mean += out(i, j);
    mean /= 64.0;
    for (size_t i = 0; i < 64; ++i) {
      var += (out(i, j) - mean) * (out(i, j) - mean);
    }
    var /= 64.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, EvalUsesRunningStatistics) {
  BatchNorm bn(2);
  Rng rng(7);
  // Run several training batches so running stats converge near (3, 4).
  for (int step = 0; step < 200; ++step) {
    const Matrix batch = Matrix::RandomGaussian(32, 2, &rng, 3.0f, 2.0f);
    bn.Forward(batch, true);
  }
  Matrix probe(1, 2);
  probe(0, 0) = 3.0f;
  probe(0, 1) = 3.0f;
  const Matrix out = bn.Forward(probe, false);
  // A point at the running mean should map near gamma*0 + beta = 0.
  EXPECT_NEAR(out(0, 0), 0.0f, 0.2f);
}

TEST(BatchNormTest, GradientsMatchFiniteDifferences) {
  Rng rng(8);
  BatchNorm bn(3);
  const Matrix input = Matrix::RandomGaussian(8, 3, &rng);
  CheckInputGradient(&bn, input, 5e-2);
  CheckParameterGradients(&bn, input, 5e-2);
}

// A column-by-column BatchNorm (columns outside, rows inside) with the
// layer's per-element expressions, against which the row-major layer must
// match bit for bit.
struct ColumnBatchNorm {
  std::vector<float> gamma, beta, running_mean, running_var;
  float momentum = 0.1f, epsilon = 1e-5f;
  Matrix normalized;
  std::vector<float> inv_stds;
  std::vector<float> gamma_grad, beta_grad;

  Matrix Forward(const Matrix& input, bool training) {
    const size_t n = input.rows(), f = input.cols();
    Matrix out(n, f);
    normalized = Matrix(n, f);
    inv_stds.assign(f, 0.0f);
    for (size_t j = 0; j < f; ++j) {
      float shift = running_mean[j];
      float inv_std = 1.0f / std::sqrt(running_var[j] + epsilon);
      if (training) {
        double mean = 0.0;
        for (size_t i = 0; i < n; ++i) mean += input(i, j);
        mean /= static_cast<double>(n);
        double var = 0.0;
        for (size_t i = 0; i < n; ++i) {
          const double d = input(i, j) - mean;
          var += d * d;
        }
        var /= static_cast<double>(n);
        shift = static_cast<float>(mean);
        inv_std = 1.0f / std::sqrt(static_cast<float>(var) + epsilon);
        running_mean[j] = (1.0f - momentum) * running_mean[j] +
                          momentum * static_cast<float>(mean);
        running_var[j] = (1.0f - momentum) * running_var[j] +
                         momentum * static_cast<float>(var);
      }
      inv_stds[j] = inv_std;
      for (size_t i = 0; i < n; ++i) {
        const float xn = (input(i, j) - shift) * inv_std;
        normalized(i, j) = xn;
        out(i, j) = gamma[j] * xn + beta[j];
      }
    }
    return out;
  }

  Matrix Backward(const Matrix& grad_output) {
    const size_t n = grad_output.rows(), f = grad_output.cols();
    Matrix grad_input(n, f);
    gamma_grad.assign(f, 0.0f);
    beta_grad.assign(f, 0.0f);
    for (size_t j = 0; j < f; ++j) {
      double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0, sum_dy = 0.0,
             sum_dy_xhat = 0.0;
      for (size_t i = 0; i < n; ++i) {
        const float dy = grad_output(i, j);
        const float xhat = normalized(i, j);
        const float dxhat = dy * gamma[j];
        sum_dxhat += dxhat;
        sum_dxhat_xhat += static_cast<double>(dxhat) * xhat;
        sum_dy += dy;
        sum_dy_xhat += static_cast<double>(dy) * xhat;
      }
      gamma_grad[j] = static_cast<float>(sum_dy_xhat);
      beta_grad[j] = static_cast<float>(sum_dy);
      const float inv_n = 1.0f / static_cast<float>(n);
      for (size_t i = 0; i < n; ++i) {
        const float dxhat = grad_output(i, j) * gamma[j];
        grad_input(i, j) =
            inv_stds[j] * (dxhat - inv_n * static_cast<float>(sum_dxhat) -
                           normalized(i, j) * inv_n *
                               static_cast<float>(sum_dxhat_xhat));
      }
    }
    return grad_input;
  }
};

void ExpectSameBits(const float* got, const float* want, size_t count,
                    const char* what) {
  for (size_t i = 0; i < count; ++i) {
    ASSERT_EQ(Bits(got[i]), Bits(want[i])) << what << " element " << i;
  }
}

TEST(BatchNormTest, RowMajorMatchesColumnReferenceBitwise) {
  const size_t n = 37, f = 13;
  Rng rng(12);
  BatchNorm bn(f);
  ColumnBatchNorm ref;
  // Non-trivial gamma/beta and running statistics, set in both.
  std::vector<Matrix*> state;
  bn.CollectStateTensors(&state);  // gamma, beta, running mean, running var
  std::vector<float>* ref_state[] = {&ref.gamma, &ref.beta, &ref.running_mean,
                                     &ref.running_var};
  for (size_t t = 0; t < state.size(); ++t) {
    for (size_t j = 0; j < f; ++j) {
      const float v = static_cast<float>(rng.Gaussian());
      state[t]->data()[j] = t == 3 ? 0.5f + v * v : v;
    }
    ref_state[t]->assign(state[t]->data(), state[t]->data() + f);
  }

  const Matrix input = Matrix::RandomGaussian(n, f, &rng, 3.0f, 2.0f);
  const Matrix grad_output = Matrix::RandomGaussian(n, f, &rng);
  for (int step = 0; step < 2; ++step) {  // second step: updated stats
    const Matrix out = bn.Forward(input, /*training=*/true);
    const Matrix want = ref.Forward(input, true);
    ExpectSameBits(out.data(), want.data(), out.size(), "train forward");
    ExpectSameBits(state[2]->data(), ref.running_mean.data(), f,
                   "running mean");
    ExpectSameBits(state[3]->data(), ref.running_var.data(), f,
                   "running var");

    const Matrix grad_input = bn.Backward(grad_output);
    const Matrix want_grad = ref.Backward(grad_output);
    ExpectSameBits(grad_input.data(), want_grad.data(), grad_input.size(),
                   "input gradient");
    std::vector<Matrix*> params, grads;
    bn.CollectParameters(&params, &grads);
    ExpectSameBits(grads[0]->data(), ref.gamma_grad.data(), f, "gamma grad");
    ExpectSameBits(grads[1]->data(), ref.beta_grad.data(), f, "beta grad");
  }
  const Matrix eval = bn.Forward(input, /*training=*/false);
  const Matrix want_eval = ref.Forward(input, false);
  ExpectSameBits(eval.data(), want_eval.data(), eval.size(), "eval forward");
}

TEST(DropoutTest, EvalIsIdentity) {
  Dropout dropout(0.5f, 1);
  Rng rng(9);
  const Matrix input = Matrix::RandomGaussian(4, 4, &rng);
  const Matrix out = dropout.Forward(input, false);
  for (size_t i = 0; i < input.size(); ++i) {
    EXPECT_EQ(out.data()[i], input.data()[i]);
  }
}

TEST(DropoutTest, TrainPreservesExpectedValue) {
  Dropout dropout(0.3f, 2);
  Matrix input(200, 50);
  input.Fill(1.0f);
  const Matrix out = dropout.Forward(input, true);
  double sum = 0.0;
  size_t zeros = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    sum += out.data()[i];
    if (out.data()[i] == 0.0f) ++zeros;
  }
  // Inverted dropout: E[out] == E[in]; drop rate should be near 0.3.
  EXPECT_NEAR(sum / out.size(), 1.0, 0.03);
  EXPECT_NEAR(static_cast<double>(zeros) / out.size(), 0.3, 0.03);
}

TEST(DropoutTest, BackwardUsesSameMask) {
  Dropout dropout(0.5f, 3);
  Matrix input(10, 10);
  input.Fill(1.0f);
  const Matrix out = dropout.Forward(input, true);
  Matrix grad_out(10, 10);
  grad_out.Fill(1.0f);
  const Matrix grad_in = dropout.Backward(grad_out);
  for (size_t i = 0; i < out.size(); ++i) {
    if (out.data()[i] == 0.0f) {
      EXPECT_EQ(grad_in.data()[i], 0.0f);
    } else {
      EXPECT_FLOAT_EQ(grad_in.data()[i], 2.0f);  // 1/(1-0.5)
    }
  }
}

TEST(SequentialTest, ChainsForwardAndBackward) {
  Rng rng(10);
  Sequential model;
  model.Add(std::make_unique<Linear>(4, 8, &rng));
  model.Add(std::make_unique<Relu>());
  model.Add(std::make_unique<Linear>(8, 3, &rng));
  const Matrix input = Matrix::RandomGaussian(5, 4, &rng);
  const Matrix out = model.Forward(input, true);
  EXPECT_EQ(out.rows(), 5u);
  EXPECT_EQ(out.cols(), 3u);
  Matrix grad(5, 3);
  grad.Fill(1.0f);
  const Matrix grad_in = model.Backward(grad);
  EXPECT_EQ(grad_in.rows(), 5u);
  EXPECT_EQ(grad_in.cols(), 4u);
}

TEST(SequentialTest, EndToEndGradientMatchesFiniteDifferences) {
  Rng rng(11);
  Sequential model;
  model.Add(std::make_unique<Linear>(3, 6, &rng));
  model.Add(std::make_unique<BatchNorm>(6));
  model.Add(std::make_unique<Relu>());
  model.Add(std::make_unique<Linear>(6, 2, &rng));

  Matrix input = Matrix::RandomGaussian(7, 3, &rng);
  const Matrix coeff = Matrix::RandomGaussian(7, 2, &rng);
  model.Forward(input, true);
  // Analytic input gradient.
  Matrix out = model.Forward(input, true);
  const Matrix grad_in = model.Backward(coeff);
  const double eps = 1e-3;
  for (size_t idx = 0; idx < input.size(); ++idx) {
    const float original = input.data()[idx];
    input.data()[idx] = original + static_cast<float>(eps);
    const double plus = ScalarLoss(model.Forward(input, true), coeff);
    input.data()[idx] = original - static_cast<float>(eps);
    const double minus = ScalarLoss(model.Forward(input, true), coeff);
    input.data()[idx] = original;
    EXPECT_NEAR(grad_in.data()[idx], (plus - minus) / (2 * eps), 8e-2)
        << "at " << idx;
  }
}

TEST(SgdTest, ConvergesOnQuadratic) {
  // Minimize ||p - 3||^2 by hand-fed gradients.
  Matrix param(1, 1);
  Matrix grad(1, 1);
  Sgd sgd(0.1f);
  sgd.Attach({&param}, {&grad});
  for (int step = 0; step < 200; ++step) {
    grad(0, 0) = 2.0f * (param(0, 0) - 3.0f);
    sgd.Step();
  }
  EXPECT_NEAR(param(0, 0), 3.0f, 1e-3f);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Matrix param(1, 2);
  param(0, 0) = -4.0f;
  param(0, 1) = 7.0f;
  Matrix grad(1, 2);
  Adam adam(0.1f);
  adam.Attach({&param}, {&grad});
  for (int step = 0; step < 500; ++step) {
    grad(0, 0) = 2.0f * (param(0, 0) - 1.0f);
    grad(0, 1) = 2.0f * (param(0, 1) + 2.0f);
    adam.Step();
  }
  EXPECT_NEAR(param(0, 0), 1.0f, 1e-2f);
  EXPECT_NEAR(param(0, 1), -2.0f, 1e-2f);
}

TEST(AdamTest, ZeroGradClearsBuffers) {
  Matrix param(1, 1), grad(1, 1);
  grad(0, 0) = 5.0f;
  Adam adam(0.1f);
  adam.Attach({&param}, {&grad});
  adam.ZeroGrad();
  EXPECT_EQ(grad(0, 0), 0.0f);
}

TEST(ModelFactoryTest, MlpMatchesPaperArchitecture) {
  MlpConfig config;
  config.input_dim = 128;
  config.hidden_dim = 128;
  config.num_bins = 256;
  const Sequential model = BuildMlp(config);
  // Linear(128->128) + BN(128) + Linear(128->256):
  // 128*128+128 + 2*128 + 128*256+256 = 16512 + 256 + 33024.
  EXPECT_EQ(model.ParameterCount(), 16512u + 256u + 33024u);
  EXPECT_EQ(model.Summary(),
            "Linear -> BatchNorm -> ReLU -> Dropout -> Linear");
}

TEST(ModelFactoryTest, LogisticRegressionIsSingleLinear) {
  const Sequential model = BuildLogisticRegression(128, 2, 1);
  EXPECT_EQ(model.ParameterCount(), 128u * 2u + 2u);
  EXPECT_EQ(model.Summary(), "Linear");
}

TEST(ModelFactoryTest, MlpOutputsRequestedBins) {
  MlpConfig config;
  config.input_dim = 10;
  config.hidden_dim = 16;
  config.num_bins = 4;
  config.dropout_rate = 0.0f;
  Sequential model = BuildMlp(config);
  Rng rng(12);
  const Matrix input = Matrix::RandomGaussian(3, 10, &rng);
  const Matrix out = model.Forward(input, false);
  EXPECT_EQ(out.cols(), 4u);
}

TEST(ModelFactoryTest, DeterministicForSameSeed) {
  MlpConfig config;
  config.input_dim = 6;
  config.hidden_dim = 8;
  config.num_bins = 3;
  config.dropout_rate = 0.0f;
  config.seed = 77;
  Sequential a = BuildMlp(config);
  Sequential b = BuildMlp(config);
  Rng rng(13);
  const Matrix input = Matrix::RandomGaussian(4, 6, &rng);
  const Matrix out_a = a.Forward(input, false);
  const Matrix out_b = b.Forward(input, false);
  for (size_t i = 0; i < out_a.size(); ++i) {
    EXPECT_EQ(out_a.data()[i], out_b.data()[i]);
  }
}

}  // namespace
}  // namespace usp
