// Product quantization with optional anisotropic (score-aware) codebook
// training, reproducing the sketching substrate of ScaNN (Guo et al. 2020)
// that Sec. 5.4.3 builds on.
//
// Vanilla PQ minimizes reconstruction error per subspace. Anisotropic
// quantization re-weights the residual component parallel to the data point
// (which perturbs inner-product/distance rankings) by eta > 1 relative to the
// orthogonal component, which is ScaNN's key idea; here it enters the
// assignment step of Lloyd iterations per subspace (see DESIGN.md for the
// simplification relative to ScaNN's closed-form updates).
#ifndef USP_QUANT_PQ_H_
#define USP_QUANT_PQ_H_

#include <cstdint>
#include <vector>

#include "dist/distance_kernels.h"
#include "tensor/matrix.h"

namespace usp {

/// PQ hyperparameters.
struct PqConfig {
  size_t num_subspaces = 8;    ///< M; must divide into dims reasonably evenly
  size_t codebook_size = 16;   ///< K codewords per subspace
  size_t kmeans_iterations = 12;
  float anisotropic_eta = 1.0f;  ///< 1.0 = vanilla PQ; >1 = ScaNN-style
  uint64_t seed = 1;
};

/// Trained product quantizer: per-subspace codebooks + encode/ADC search.
class ProductQuantizer {
 public:
  explicit ProductQuantizer(PqConfig config);

  /// Rehydrates a trained quantizer from deserialized state: `offsets` is the
  /// (M+1)-entry subspace boundary table and `codebooks` the per-subspace
  /// (K x subspace_dim) codeword matrices, exactly as a previous quantizer
  /// exposed them. Encoding/ADC behavior is bit-identical to the original.
  ProductQuantizer(PqConfig config, size_t dims, std::vector<size_t> offsets,
                   std::vector<Matrix> codebooks);

  /// Learns per-subspace codebooks from `data`.
  void Train(const Matrix& data);

  /// Encodes points to (n x M) codeword ids.
  std::vector<uint8_t> Encode(const Matrix& points) const;

  /// Builds the asymmetric-distance table for one query: entry (s, c) is the
  /// squared distance between the query's subvector s and codeword c.
  /// Layout: table[s * codebook_size + c].
  std::vector<float> BuildAdcTable(const float* query) const;

  /// Builds the dot-product table for one query: entry (s, c) is the inner
  /// product of the query's subvector s with codeword c, so the per-code sum
  /// reconstructs <query, decoded point>. The IP/cosine ADC ranking of
  /// ScannIndex/IvfPqIndex uses it negated (dist/metric.h minimizes
  /// everything).
  std::vector<float> BuildDotTable(const float* query) const;

  /// The table of `kind` for one query into out[0, M * codebook_size):
  /// BuildAdcTable's entries (kSquaredL2), BuildDotTable's (kDot) or those
  /// negated (kNegatedDot). Both build through it: one call of the
  /// dispatched DistanceKernels::adc_table covers every subspace, and each
  /// entry keeps the bits of its subspace's score_block_l2/score_block_dot
  /// row; entries past a subspace's trained codewords are 0 (-0 negated).
  void BuildTable(const float* query, AdcTableKind kind, float* out) const;

  /// Approximate squared distance of an encoded point via table lookups.
  float AdcDistance(const std::vector<float>& table,
                    const uint8_t* code) const;

  /// AdcDistance of many encoded points: out[i] scores the code at
  /// codes + ids[i] * num_subspaces(), for i in [0, count). Four codes are
  /// walked at once on independent add chains; each chain adds its table
  /// entries from +0 in subspace order, as AdcDistance does, so every score
  /// has AdcDistance's bits.
  void AdcDistances(const std::vector<float>& table, const uint8_t* codes,
                    const uint32_t* ids, size_t count, float* out) const;

  /// Exact reconstruction of a code (for tests / diagnostics).
  void Decode(const uint8_t* code, float* out) const;

  /// Mean squared reconstruction error over `points` (quantization quality).
  double ReconstructionError(const Matrix& points) const;

  size_t num_subspaces() const { return config_.num_subspaces; }
  size_t codebook_size() const { return config_.codebook_size; }
  size_t dims() const { return dims_; }
  const PqConfig& config() const { return config_; }
  const std::vector<size_t>& subspace_offsets() const {
    return subspace_offsets_;
  }
  /// Trained codeword matrix of subspace `s`: (K x subspace_dim), where K may
  /// be below codebook_size for tiny training sets.
  const Matrix& codebook(size_t s) const { return codebooks_[s]; }

 private:
  size_t SubspaceBegin(size_t s) const { return subspace_offsets_[s]; }
  size_t SubspaceDim(size_t s) const {
    return subspace_offsets_[s + 1] - subspace_offsets_[s];
  }
  /// Lays the codebooks out dim-major for BuildTable (AdcCodebooks).
  void LayOutCodebooks();

  PqConfig config_;
  size_t dims_ = 0;
  std::vector<size_t> subspace_offsets_;  ///< size M+1
  /// Codebooks: per subspace, (K x subspace_dim) row-major floats,
  /// concatenated.
  std::vector<Matrix> codebooks_;
  /// The codebooks in AdcCodebooks' dim-major layout (dims x adc_stride_),
  /// and each subspace's codeword count.
  std::vector<float> adc_codewords_;
  std::vector<size_t> adc_rows_;
  size_t adc_stride_ = 0;
};

}  // namespace usp

#endif  // USP_QUANT_PQ_H_
