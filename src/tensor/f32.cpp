#include "tensor/f32.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#if defined(__x86_64__) && !defined(READYS_NO_AVX2)
#define READYS_F32_HAVE_AVX2 1
#include <immintrin.h>
#else
#define READYS_F32_HAVE_AVX2 0
#endif

namespace readys::tensor::f32 {

namespace {

std::atomic<bool> g_force_scalar{false};

void matmul_bias_scalar(const float* a, std::size_t m, std::size_t k,
                        const float* b, std::size_t n, const float* bias,
                        float* c) noexcept {
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    if (bias != nullptr) {
      for (std::size_t j = 0; j < n; ++j) crow[j] = bias[j];
    } else {
      for (std::size_t j = 0; j < n; ++j) crow[j] = 0.0f;
    }
    const float* arow = a + i * k;
    for (std::size_t l = 0; l < k; ++l) {
      const float ail = arow[l];
      if (ail == 0.0f) continue;  // sparse adjacency rows skip cheaply
      const float* brow = b + l * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += ail * brow[j];
    }
  }
}

void spmm_bias_scalar(const std::size_t* row_ptr, const std::size_t* col,
                      const double* val, std::size_t m, const float* x,
                      std::size_t n, const float* bias, float* c) noexcept {
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    if (bias != nullptr) {
      for (std::size_t j = 0; j < n; ++j) crow[j] = bias[j];
    } else {
      for (std::size_t j = 0; j < n; ++j) crow[j] = 0.0f;
    }
    for (std::size_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const float a = static_cast<float>(val[p]);
      const float* xrow = x + col[p] * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += a * xrow[j];
    }
  }
}

#if READYS_F32_HAVE_AVX2
// Register-blocked AVX2 kernels. For each output row, one pass holds a
// tile of up to 4 x 8 columns in __m256 accumulators across the whole
// inner loop and stores it once; the columns past the last multiple of 8
// take a scalar tail. Every output element sees the same operation
// sequence as a plain fmaf loop: the bias (or zero), then one fused
// multiply-add per inner term in ascending order.

// The inner terms of one GEMM output row: a[i][l] against row l of b,
// l ascending, zero coefficients skipped.
struct GemmRow {
  const float* a;
  const float* b;
  std::size_t k;
  std::size_t n;

  std::size_t terms() const noexcept { return k; }
  bool term(std::size_t l, float& coef, const float*& in) const noexcept {
    coef = a[l];
    in = b + l * n;
    return coef != 0.0f;  // sparse adjacency rows skip cheaply
  }
};

// The inner terms of one SpMM output row: its stored nonzeros (ascending
// columns) against rows col[p] of x, each value rounded to float once.
struct CsrRow {
  const std::size_t* col;
  const double* val;
  const float* x;
  std::size_t begin;
  std::size_t end;
  std::size_t n;

  std::size_t terms() const noexcept { return end - begin; }
  bool term(std::size_t t, float& coef, const float*& in) const noexcept {
    coef = static_cast<float>(val[begin + t]);
    in = x + col[begin + t] * n;
    return true;
  }
};

// Columns [j, j + 8 * NV) of one output row.
template <int NV, class Row>
__attribute__((target("avx2,fma"))) inline void tile_avx2(
    const Row& row, const float* bias, std::size_t j, float* crow) noexcept {
  __m256 acc[NV];
  for (int v = 0; v < NV; ++v) {
    acc[v] = bias != nullptr ? _mm256_loadu_ps(bias + j + 8 * v)
                             : _mm256_setzero_ps();
  }
  const std::size_t terms = row.terms();
  for (std::size_t t = 0; t < terms; ++t) {
    float coef = 0.0f;
    const float* in = nullptr;
    if (!row.term(t, coef, in)) continue;
    const __m256 cv = _mm256_set1_ps(coef);
    for (int v = 0; v < NV; ++v) {
      acc[v] = _mm256_fmadd_ps(cv, _mm256_loadu_ps(in + j + 8 * v), acc[v]);
    }
  }
  for (int v = 0; v < NV; ++v) _mm256_storeu_ps(crow + j + 8 * v, acc[v]);
}

template <class Row>
__attribute__((target("avx2,fma"))) void row_avx2(
    const Row& row, std::size_t n, const float* bias, float* crow) noexcept {
  std::size_t j = 0;
  for (; j + 32 <= n; j += 32) tile_avx2<4>(row, bias, j, crow);
  switch ((n - j) / 8) {
    case 3:
      tile_avx2<3>(row, bias, j, crow);
      j += 24;
      break;
    case 2:
      tile_avx2<2>(row, bias, j, crow);
      j += 16;
      break;
    case 1:
      tile_avx2<1>(row, bias, j, crow);
      j += 8;
      break;
    default:
      break;
  }
  const std::size_t terms = row.terms();
  for (; j < n; ++j) {
    float acc = bias != nullptr ? bias[j] : 0.0f;
    for (std::size_t t = 0; t < terms; ++t) {
      float coef = 0.0f;
      const float* in = nullptr;
      if (row.term(t, coef, in)) acc = std::fma(coef, in[j], acc);
    }
    crow[j] = acc;
  }
}

__attribute__((target("avx2,fma"))) void matmul_bias_avx2(
    const float* a, std::size_t m, std::size_t k, const float* b,
    std::size_t n, const float* bias, float* c) noexcept {
  for (std::size_t i = 0; i < m; ++i) {
    row_avx2(GemmRow{a + i * k, b, k, n}, n, bias, c + i * n);
  }
}

__attribute__((target("avx2,fma"))) void spmm_bias_avx2(
    const std::size_t* row_ptr, const std::size_t* col, const double* val,
    std::size_t m, const float* x, std::size_t n, const float* bias,
    float* c) noexcept {
  for (std::size_t i = 0; i < m; ++i) {
    row_avx2(CsrRow{col, val, x, row_ptr[i], row_ptr[i + 1], n}, n, bias,
             c + i * n);
  }
}
#endif  // READYS_F32_HAVE_AVX2

}  // namespace

bool avx2_compiled() noexcept { return READYS_F32_HAVE_AVX2 != 0; }

bool avx2_available() noexcept {
#if READYS_F32_HAVE_AVX2
  // __builtin_cpu_supports caches the cpuid probe after the first call.
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const char* isa_name(Isa isa) noexcept {
  return isa == Isa::kAvx2 ? "avx2" : "scalar";
}

Isa active_isa() noexcept {
  if (g_force_scalar.load(std::memory_order_relaxed)) return Isa::kScalar;
  return avx2_available() ? Isa::kAvx2 : Isa::kScalar;
}

void force_scalar(bool on) noexcept {
  g_force_scalar.store(on, std::memory_order_relaxed);
}

void matmul_bias(const float* a, std::size_t m, std::size_t k,
                 const float* b, std::size_t n, const float* bias,
                 float* c) noexcept {
#if READYS_F32_HAVE_AVX2
  if (active_isa() == Isa::kAvx2) {
    matmul_bias_avx2(a, m, k, b, n, bias, c);
    return;
  }
#endif
  matmul_bias_scalar(a, m, k, b, n, bias, c);
}

void spmm_bias(const std::size_t* row_ptr, const std::size_t* col,
               const double* val, std::size_t m, const float* x,
               std::size_t n, const float* bias, float* c) noexcept {
#if READYS_F32_HAVE_AVX2
  if (active_isa() == Isa::kAvx2) {
    spmm_bias_avx2(row_ptr, col, val, m, x, n, bias, c);
    return;
  }
#endif
  spmm_bias_scalar(row_ptr, col, val, m, x, n, bias, c);
}

void relu_inplace(float* x, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) x[i] = std::max(x[i], 0.0f);
}

void mean_cols(const float* x, std::size_t m, std::size_t n,
               float* out) noexcept {
  for (std::size_t j = 0; j < n; ++j) out[j] = 0.0f;
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = x + i * n;
    for (std::size_t j = 0; j < n; ++j) out[j] += row[j];
  }
  const float inv = 1.0f / static_cast<float>(m);
  for (std::size_t j = 0; j < n; ++j) out[j] *= inv;
}

void max_cols(const float* x, std::size_t m, std::size_t n,
              float* out) noexcept {
  for (std::size_t j = 0; j < n; ++j) out[j] = x[j];
  for (std::size_t i = 1; i < m; ++i) {
    const float* row = x + i * n;
    for (std::size_t j = 0; j < n; ++j) out[j] = std::max(out[j], row[j]);
  }
}

float dot(const float* a, const float* b, std::size_t n) noexcept {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

}  // namespace readys::tensor::f32
