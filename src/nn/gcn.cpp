#include "nn/gcn.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/ops.hpp"

namespace readys::nn {

GCNLayer::GCNLayer(std::size_t in_features, std::size_t out_features,
                   util::Rng& rng)
    : in_(in_features), out_(out_features) {
  weight_ = register_parameter(
      "weight", glorot_uniform(in_features, out_features, rng));
  bias_ = register_parameter("bias", Tensor::zeros(1, out_features));
}

Var GCNLayer::forward(const Var& ahat, const Var& h) const {
  return tensor::add(tensor::matmul(ahat, tensor::matmul(h, weight_)),
                     bias_);
}

Var GCNLayer::forward_packed(
    const std::shared_ptr<const std::vector<Tensor>>& blocks,
    const Var& h) const {
  return tensor::add(
      tensor::block_diag_matmul(blocks, tensor::matmul(h, weight_)), bias_);
}

Tensor normalized_adjacency(
    std::size_t n,
    const std::vector<std::pair<std::size_t, std::size_t>>& edges) {
  Tensor a(n, n);
  for (std::size_t i = 0; i < n; ++i) a.at(i, i) = 1.0;  // self loops
  for (const auto& [u, v] : edges) {
    a.at(u, v) = 1.0;
    a.at(v, u) = 1.0;  // symmetrize: messages flow along and against deps
  }
  std::vector<double> dinv_sqrt(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double deg = 0.0;
    for (std::size_t j = 0; j < n; ++j) deg += a.at(i, j);
    dinv_sqrt[i] = deg > 0.0 ? 1.0 / std::sqrt(deg) : 0.0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a.at(i, j) *= dinv_sqrt[i] * dinv_sqrt[j];
    }
  }
  return a;
}

void normalized_adjacency_csr(
    std::size_t n,
    const std::vector<std::pair<std::size_t, std::size_t>>& edges,
    SparseAdj& out) {
  CsrScratch scratch;
  normalized_adjacency_csr(n, edges, out, scratch);
}

void normalized_adjacency_csr(
    std::size_t n,
    const std::vector<std::pair<std::size_t, std::size_t>>& edges,
    SparseAdj& out, CsrScratch& scratch) {
  // Row degrees count the self loop plus each (symmetrized) incident
  // edge; summing 1.0s and counting give the same exact double, so
  // dinv_sqrt matches the dense builder bit for bit.
  out.row_ptr.assign(n + 1, 0);
  for (const auto& [u, v] : edges) {
    ++out.row_ptr[u + 1];
    ++out.row_ptr[v + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    out.row_ptr[i + 1] += out.row_ptr[i] + 1;  // +1: the self loop
  }
  const std::size_t nnz = out.row_ptr[n];
  out.col.resize(nnz);
  out.val.resize(nnz);

  std::vector<std::size_t>& fill = scratch.fill;
  fill.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    fill[i] = out.row_ptr[i];
    out.col[fill[i]++] = i;  // self loop first, sorted below
  }
  for (const auto& [u, v] : edges) {
    out.col[fill[u]++] = v;
    out.col[fill[v]++] = u;
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::sort(out.col.begin() + static_cast<std::ptrdiff_t>(out.row_ptr[i]),
              out.col.begin() + static_cast<std::ptrdiff_t>(out.row_ptr[i + 1]));
  }

  std::vector<double>& dinv_sqrt = scratch.dinv_sqrt;
  dinv_sqrt.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double deg =
        static_cast<double>(out.row_ptr[i + 1] - out.row_ptr[i]);
    dinv_sqrt[i] = deg > 0.0 ? 1.0 / std::sqrt(deg) : 0.0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p = out.row_ptr[i]; p < out.row_ptr[i + 1]; ++p) {
      out.val[p] = dinv_sqrt[i] * dinv_sqrt[out.col[p]];
    }
  }
}

}  // namespace readys::nn
