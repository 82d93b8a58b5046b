// Vectorized element-wise reduction kernels for the builtin filters.
//
// Each kernel applies one scalar operation lane-wise over contiguous
// arrays: acc[i] = op(acc[i], next[i]).  Dispatch is compile-time — AVX2
// when the translation unit is built for a target that has it, else SSE2
// (the x86-64 baseline), else the plain loop — so there is no runtime
// branching and no new build flags: the same source gets faster when the
// toolchain targets a wider ISA.
//
// Bit-exactness contract: every kernel produces results byte-identical to
// the scalar expression it replaces (std::min / std::max / operator+ /
// operator/), including NaN propagation and signed-zero selection.  That is
// why min/max use an explicit compare-and-blend of the *same* predicate the
// scalar code evaluates — (b < a) ? b : a — instead of the asymmetric
// MINPD/MAXPD instructions, whose unordered-operand rule differs from
// std::min.  The batched-vs-unbatched byte-identity tests rely on this.
//
// Alignment: the arrays may sit at any byte offset (the reductions fold
// values in place inside a received frame, where a batch entry starts
// wherever the previous one ended).  Forming a misaligned double* or
// int64_t* is itself unspecified, so the kernels take untyped pointers and
// every access copies through memcpy (load/store below), which compilers
// lower to one unaligned load or store.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

namespace tbon::simd {

/// The V that starts at 64-bit element `i` of `base`, at any alignment.
template <typename V>
inline V load(const void* base, std::size_t i) noexcept {
  V value{};
  std::memcpy(&value, static_cast<const std::byte*>(base) + i * 8, sizeof(V));
  return value;
}

/// Store `value` from 64-bit element `i` of `base` on, at any alignment.
template <typename V>
inline void store(void* base, std::size_t i, V value) noexcept {
  std::memcpy(static_cast<std::byte*>(base) + i * 8, &value, sizeof(V));
}

/// acc[i] += next[i]
inline void add_f64(void* acc, const void* next, std::size_t n) {
  std::size_t i = 0;
#if defined(__AVX2__)
  for (; i + 4 <= n; i += 4) {
    store(acc, i, _mm256_add_pd(load<__m256d>(acc, i), load<__m256d>(next, i)));
  }
#elif defined(__SSE2__)
  for (; i + 2 <= n; i += 2) {
    store(acc, i, _mm_add_pd(load<__m128d>(acc, i), load<__m128d>(next, i)));
  }
#endif
  for (; i < n; ++i) store(acc, i, load<double>(acc, i) + load<double>(next, i));
}

/// acc[i] = std::min(acc[i], next[i])  — i.e. (next < acc) ? next : acc
inline void min_f64(void* acc, const void* next, std::size_t n) {
  std::size_t i = 0;
#if defined(__AVX2__)
  for (; i + 4 <= n; i += 4) {
    const __m256d a = load<__m256d>(acc, i);
    const __m256d b = load<__m256d>(next, i);
    const __m256d take_b = _mm256_cmp_pd(b, a, _CMP_LT_OQ);
    store(acc, i, _mm256_blendv_pd(a, b, take_b));
  }
#elif defined(__SSE2__)
  for (; i + 2 <= n; i += 2) {
    const __m128d a = load<__m128d>(acc, i);
    const __m128d b = load<__m128d>(next, i);
    const __m128d take_b = _mm_cmplt_pd(b, a);
    store(acc, i, _mm_or_pd(_mm_and_pd(take_b, b), _mm_andnot_pd(take_b, a)));
  }
#endif
  for (; i < n; ++i) {
    const auto a = load<double>(acc, i), b = load<double>(next, i);
    store(acc, i, b < a ? b : a);
  }
}

/// acc[i] = std::max(acc[i], next[i])  — i.e. (acc < next) ? next : acc
inline void max_f64(void* acc, const void* next, std::size_t n) {
  std::size_t i = 0;
#if defined(__AVX2__)
  for (; i + 4 <= n; i += 4) {
    const __m256d a = load<__m256d>(acc, i);
    const __m256d b = load<__m256d>(next, i);
    const __m256d take_b = _mm256_cmp_pd(a, b, _CMP_LT_OQ);
    store(acc, i, _mm256_blendv_pd(a, b, take_b));
  }
#elif defined(__SSE2__)
  for (; i + 2 <= n; i += 2) {
    const __m128d a = load<__m128d>(acc, i);
    const __m128d b = load<__m128d>(next, i);
    const __m128d take_b = _mm_cmplt_pd(a, b);
    store(acc, i, _mm_or_pd(_mm_and_pd(take_b, b), _mm_andnot_pd(take_b, a)));
  }
#endif
  for (; i < n; ++i) {
    const auto a = load<double>(acc, i), b = load<double>(next, i);
    store(acc, i, a < b ? b : a);
  }
}

/// acc[i] /= divisor  (IEEE division, lane-wise — used by the avg filter)
inline void div_f64(void* acc, double divisor, std::size_t n) {
  std::size_t i = 0;
#if defined(__AVX2__)
  const __m256d d4 = _mm256_set1_pd(divisor);
  for (; i + 4 <= n; i += 4) store(acc, i, _mm256_div_pd(load<__m256d>(acc, i), d4));
#elif defined(__SSE2__)
  const __m128d d2 = _mm_set1_pd(divisor);
  for (; i + 2 <= n; i += 2) store(acc, i, _mm_div_pd(load<__m128d>(acc, i), d2));
#endif
  for (; i < n; ++i) store(acc, i, load<double>(acc, i) / divisor);
}

/// acc[i] += next[i]
inline void add_i64(void* acc, const void* next, std::size_t n) {
  std::size_t i = 0;
#if defined(__AVX2__)
  for (; i + 4 <= n; i += 4) {
    store(acc, i, _mm256_add_epi64(load<__m256i>(acc, i), load<__m256i>(next, i)));
  }
#elif defined(__SSE2__)
  for (; i + 2 <= n; i += 2) {
    store(acc, i, _mm_add_epi64(load<__m128i>(acc, i), load<__m128i>(next, i)));
  }
#endif
  for (; i < n; ++i) {
    store(acc, i, load<std::int64_t>(acc, i) + load<std::int64_t>(next, i));
  }
}

#if defined(__SSE2__) && !defined(__AVX2__)
/// Per-lane signed 64-bit a > b built from 32-bit compares (SSE2 has no
/// PCMPGTQ).  The signed order of the high dwords decides; when the high
/// dwords are equal, the *unsigned* order of the low dwords does — biasing
/// both by 0x80000000 makes PCMPGTD behave unsigned.  The verdict lands in
/// each lane's high dword; the final shuffle spreads it across all 64 bits
/// so the result is a full-lane mask like PCMPGTQ's.
inline __m128i cmpgt_epi64_sse2(__m128i a, __m128i b) {
  const __m128i bias = _mm_set1_epi32(static_cast<int>(0x80000000u));
  const __m128i hi_gt = _mm_cmpgt_epi32(a, b);
  const __m128i hi_eq = _mm_cmpeq_epi32(a, b);
  const __m128i lo_gt =
      _mm_cmpgt_epi32(_mm_xor_si128(a, bias), _mm_xor_si128(b, bias));
  // Lift each lane's low-dword verdict into its high dword, then combine.
  const __m128i lo_in_hi = _mm_shuffle_epi32(lo_gt, _MM_SHUFFLE(2, 2, 0, 0));
  const __m128i gt = _mm_or_si128(hi_gt, _mm_and_si128(hi_eq, lo_in_hi));
  return _mm_shuffle_epi32(gt, _MM_SHUFFLE(3, 3, 1, 1));
}
#endif

/// acc[i] = std::min(acc[i], next[i]).  AVX2 has VPCMPGTQ; the SSE2 path
/// synthesizes the same full-lane compare mask from 32-bit ops.
inline void min_i64(void* acc, const void* next, std::size_t n) {
  std::size_t i = 0;
#if defined(__AVX2__)
  for (; i + 4 <= n; i += 4) {
    const __m256i a = load<__m256i>(acc, i);
    const __m256i b = load<__m256i>(next, i);
    const __m256i take_b = _mm256_cmpgt_epi64(a, b);  // a > b  <=>  b < a
    store(acc, i, _mm256_blendv_epi8(a, b, take_b));
  }
#elif defined(__SSE2__)
  for (; i + 2 <= n; i += 2) {
    const __m128i a = load<__m128i>(acc, i);
    const __m128i b = load<__m128i>(next, i);
    const __m128i take_b = cmpgt_epi64_sse2(a, b);  // a > b  <=>  b < a
    store(acc, i, _mm_or_si128(_mm_and_si128(take_b, b), _mm_andnot_si128(take_b, a)));
  }
#endif
  for (; i < n; ++i) {
    const auto a = load<std::int64_t>(acc, i), b = load<std::int64_t>(next, i);
    store(acc, i, b < a ? b : a);
  }
}

/// acc[i] = std::max(acc[i], next[i])
inline void max_i64(void* acc, const void* next, std::size_t n) {
  std::size_t i = 0;
#if defined(__AVX2__)
  for (; i + 4 <= n; i += 4) {
    const __m256i a = load<__m256i>(acc, i);
    const __m256i b = load<__m256i>(next, i);
    const __m256i take_b = _mm256_cmpgt_epi64(b, a);  // b > a  <=>  a < b
    store(acc, i, _mm256_blendv_epi8(a, b, take_b));
  }
#elif defined(__SSE2__)
  for (; i + 2 <= n; i += 2) {
    const __m128i a = load<__m128i>(acc, i);
    const __m128i b = load<__m128i>(next, i);
    const __m128i take_b = cmpgt_epi64_sse2(b, a);  // b > a  <=>  a < b
    store(acc, i, _mm_or_si128(_mm_and_si128(take_b, b), _mm_andnot_si128(take_b, a)));
  }
#endif
  for (; i < n; ++i) {
    const auto a = load<std::int64_t>(acc, i), b = load<std::int64_t>(next, i);
    store(acc, i, a < b ? b : a);
  }
}

}  // namespace tbon::simd
