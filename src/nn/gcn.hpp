#pragma once

#include <memory>
#include <vector>

#include "nn/module.hpp"

namespace readys::nn {

/// One Kipf–Welling graph-convolution layer:
///   H' = Ahat * H * W + b
/// where Ahat = D^-1/2 (A + I) D^-1/2 is the renormalized adjacency.
/// The activation is applied by the caller (READYS uses ReLU between
/// layers, none after the last).
class GCNLayer : public Module {
 public:
  GCNLayer(std::size_t in_features, std::size_t out_features, util::Rng& rng);

  /// `ahat` is the (N x N) normalized adjacency as a constant Var; `h` is
  /// the (N x in) node feature matrix.
  Var forward(const Var& ahat, const Var& h) const;

  /// Batched forward over several graphs at once: `blocks` holds the
  /// per-graph Ahat matrices and `h` their row-concatenated features
  /// (the implied adjacency is block-diagonal). Each graph's rows come
  /// out bit-identical to forward(Var{blocks[g]}, h_g) on that graph
  /// alone — see tensor::block_diag_matmul.
  Var forward_packed(
      const std::shared_ptr<const std::vector<Tensor>>& blocks,
      const Var& h) const;

  std::size_t in_features() const noexcept { return in_; }
  std::size_t out_features() const noexcept { return out_; }

 private:
  std::size_t in_;
  std::size_t out_;
  Var weight_;
  Var bias_;
};

/// Builds the renormalized adjacency Ahat = D^-1/2 (A + I) D^-1/2 from a
/// directed edge list over N nodes. Edges are treated as undirected for
/// message passing (information must flow both up and down the DAG so the
/// embedding of a ready task can see its descendants).
Tensor normalized_adjacency(
    std::size_t n, const std::vector<std::pair<std::size_t, std::size_t>>& edges);

/// Compressed-sparse-row view of a normalized adjacency: row i's nonzero
/// columns are col[row_ptr[i] .. row_ptr[i+1]), ascending, with matching
/// values in val. Ahat has n + 2|edges| nonzeros out of n^2 entries, so
/// the f32 inference fast path consumes this instead of the dense matrix
/// (tensor::f32::spmm_bias) — O(nnz) per decision instead of O(n^2).
struct SparseAdj {
  std::vector<std::size_t> row_ptr;  ///< n + 1 entries
  std::vector<std::size_t> col;      ///< nnz column indices
  std::vector<double> val;           ///< nnz values, aligned with col

  std::size_t rows() const noexcept {
    return row_ptr.empty() ? 0 : row_ptr.size() - 1;
  }
  bool empty() const noexcept { return row_ptr.empty(); }
  void clear() noexcept {
    row_ptr.clear();
    col.clear();
    val.clear();
  }
};

/// Fills `out` with the CSR form of normalized_adjacency(n, edges).
/// Every stored value is bit-identical to the corresponding dense entry
/// (both are the product dinv_sqrt[i] * dinv_sqrt[j] of exactly the same
/// doubles), and columns are ascending within each row, so a product
/// accumulated over the CSR nonzeros reproduces a dense product that
/// skips zeros term for term. Buffers are reused across calls.
void normalized_adjacency_csr(
    std::size_t n, const std::vector<std::pair<std::size_t, std::size_t>>& edges,
    SparseAdj& out);

/// Working buffers of normalized_adjacency_csr: per-row fill cursors and
/// D^-1/2. A caller that rebuilds Â at every decision keeps one alive so
/// the build allocates nothing once capacities settle.
struct CsrScratch {
  std::vector<std::size_t> fill;
  std::vector<double> dinv_sqrt;
};

/// normalized_adjacency_csr with caller-owned scratch; same output.
void normalized_adjacency_csr(
    std::size_t n, const std::vector<std::pair<std::size_t, std::size_t>>& edges,
    SparseAdj& out, CsrScratch& scratch);

}  // namespace readys::nn
