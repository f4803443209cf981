#pragma once
/// \file simd.hpp
/// \brief Portable SIMD layer for the host dedispersion engine.
///
/// Exposes a width-agnostic packed-float type `vfloat` of `kFloatLanes`
/// lanes plus the handful of operations the dedispersion kernels need:
/// load/store (aligned and unaligned), add, mul, fma and broadcast. The
/// backend is chosen at compile time from the target ISA:
///
///   AVX (8 lanes) → SSE2 (4) → NEON (4) → scalar (1)
///
/// Defining DDMC_FORCE_SCALAR (CMake option of the same name) forces the
/// scalar fallback regardless of ISA — the CI matrix builds one leg this
/// way so both code paths stay green.
///
/// The dedispersion inner loop is a pure element-wise accumulate
/// (`a[t] += s[t]`), so vectorizing over the time dimension reorders no
/// floating-point additions: each output element still sums its channels
/// in channel order, and SIMD output is bitwise identical to the scalar
/// reference. `accumulate_span` below is that inner loop, shared by the
/// tiled kernel and the subband engine; fma is provided for downstream
/// consumers (detection, intensity weighting) and is NOT used on the
/// bitwise-equality-critical accumulate path.
///
/// A widening u8 load (`vload_u8`) serves the quantized-input engine:
/// samples stay one byte each in memory — a quarter of the float input
/// traffic, which is the whole game for a bandwidth-bound kernel — and are
/// unpacked to float lanes only inside the register tile. `vload_sample`
/// picks the load by source type, so `accumulate_span` and the tiled
/// kernel are written once over float and u8 samples.

#include <cstddef>
#include <cstdint>
#include <cstring>

#if !defined(DDMC_FORCE_SCALAR)
#if defined(__AVX__)
#define DDMC_SIMD_AVX 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define DDMC_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__aarch64__)
#define DDMC_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace ddmc::simd {

#if defined(DDMC_SIMD_AVX)

inline constexpr std::size_t kFloatLanes = 8;
struct vfloat {
  __m256 v;
};

inline const char* backend_name() { return "avx"; }
inline vfloat vzero() { return {_mm256_setzero_ps()}; }
inline vfloat vbroadcast(float x) { return {_mm256_set1_ps(x)}; }
inline vfloat vload(const float* p) { return {_mm256_loadu_ps(p)}; }
inline vfloat vload_aligned(const float* p) { return {_mm256_load_ps(p)}; }
inline void vstore(float* p, vfloat a) { _mm256_storeu_ps(p, a.v); }
inline void vstore_aligned(float* p, vfloat a) { _mm256_store_ps(p, a.v); }
inline vfloat vadd(vfloat a, vfloat b) { return {_mm256_add_ps(a.v, b.v)}; }
inline vfloat vsub(vfloat a, vfloat b) { return {_mm256_sub_ps(a.v, b.v)}; }
inline vfloat vmul(vfloat a, vfloat b) { return {_mm256_mul_ps(a.v, b.v)}; }
inline vfloat vfma(vfloat a, vfloat b, vfloat c) {
#if defined(__FMA__)
  return {_mm256_fmadd_ps(a.v, b.v, c.v)};
#else
  return {_mm256_add_ps(_mm256_mul_ps(a.v, b.v), c.v)};
#endif
}
inline vfloat vload_u8(const std::uint8_t* p) {
  // Exactly kFloatLanes bytes; widen u8 → u16 → u32 → f32 with 128-bit
  // integer ops (plain AVX has no 256-bit integer unpacks — that is AVX2).
  const __m128i b = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  const __m128i zero = _mm_setzero_si128();
  const __m128i w = _mm_unpacklo_epi8(b, zero);
  const __m128 lo = _mm_cvtepi32_ps(_mm_unpacklo_epi16(w, zero));
  const __m128 hi = _mm_cvtepi32_ps(_mm_unpackhi_epi16(w, zero));
  return {_mm256_insertf128_ps(_mm256_castps128_ps256(lo), hi, 1)};
}

#elif defined(DDMC_SIMD_SSE2)

inline constexpr std::size_t kFloatLanes = 4;
struct vfloat {
  __m128 v;
};

inline const char* backend_name() { return "sse2"; }
inline vfloat vzero() { return {_mm_setzero_ps()}; }
inline vfloat vbroadcast(float x) { return {_mm_set1_ps(x)}; }
inline vfloat vload(const float* p) { return {_mm_loadu_ps(p)}; }
inline vfloat vload_aligned(const float* p) { return {_mm_load_ps(p)}; }
inline void vstore(float* p, vfloat a) { _mm_storeu_ps(p, a.v); }
inline void vstore_aligned(float* p, vfloat a) { _mm_store_ps(p, a.v); }
inline vfloat vadd(vfloat a, vfloat b) { return {_mm_add_ps(a.v, b.v)}; }
inline vfloat vsub(vfloat a, vfloat b) { return {_mm_sub_ps(a.v, b.v)}; }
inline vfloat vmul(vfloat a, vfloat b) { return {_mm_mul_ps(a.v, b.v)}; }
inline vfloat vfma(vfloat a, vfloat b, vfloat c) {
  return {_mm_add_ps(_mm_mul_ps(a.v, b.v), c.v)};
}
inline vfloat vload_u8(const std::uint8_t* p) {
  // memcpy exactly kFloatLanes bytes so the widening load never reads past
  // the span a float vload of the same index would.
  std::uint32_t raw;
  std::memcpy(&raw, p, sizeof(raw));
  const __m128i b = _mm_cvtsi32_si128(static_cast<int>(raw));
  const __m128i zero = _mm_setzero_si128();
  const __m128i w = _mm_unpacklo_epi8(b, zero);
  return {_mm_cvtepi32_ps(_mm_unpacklo_epi16(w, zero))};
}

#elif defined(DDMC_SIMD_NEON)

inline constexpr std::size_t kFloatLanes = 4;
struct vfloat {
  float32x4_t v;
};

inline const char* backend_name() { return "neon"; }
inline vfloat vzero() { return {vdupq_n_f32(0.0f)}; }
inline vfloat vbroadcast(float x) { return {vdupq_n_f32(x)}; }
inline vfloat vload(const float* p) { return {vld1q_f32(p)}; }
inline vfloat vload_aligned(const float* p) { return {vld1q_f32(p)}; }
inline void vstore(float* p, vfloat a) { vst1q_f32(p, a.v); }
inline void vstore_aligned(float* p, vfloat a) { vst1q_f32(p, a.v); }
inline vfloat vadd(vfloat a, vfloat b) { return {vaddq_f32(a.v, b.v)}; }
inline vfloat vsub(vfloat a, vfloat b) { return {vsubq_f32(a.v, b.v)}; }
inline vfloat vmul(vfloat a, vfloat b) { return {vmulq_f32(a.v, b.v)}; }
inline vfloat vfma(vfloat a, vfloat b, vfloat c) {
  return {vfmaq_f32(c.v, a.v, b.v)};
}
inline vfloat vload_u8(const std::uint8_t* p) {
  // memcpy exactly kFloatLanes bytes so the widening load never reads past
  // the span a float vload of the same index would.
  std::uint32_t raw;
  std::memcpy(&raw, p, sizeof(raw));
  const uint8x8_t b = vreinterpret_u8_u32(vdup_n_u32(raw));
  const uint16x4_t w = vget_low_u16(vmovl_u8(b));
  return {vcvtq_f32_u32(vmovl_u16(w))};
}

#else  // scalar fallback

inline constexpr std::size_t kFloatLanes = 1;
struct vfloat {
  float v;
};

inline const char* backend_name() { return "scalar"; }
inline vfloat vzero() { return {0.0f}; }
inline vfloat vbroadcast(float x) { return {x}; }
inline vfloat vload(const float* p) { return {*p}; }
inline vfloat vload_aligned(const float* p) { return {*p}; }
inline void vstore(float* p, vfloat a) { *p = a.v; }
inline void vstore_aligned(float* p, vfloat a) { *p = a.v; }
inline vfloat vadd(vfloat a, vfloat b) { return {a.v + b.v}; }
inline vfloat vsub(vfloat a, vfloat b) { return {a.v - b.v}; }
inline vfloat vmul(vfloat a, vfloat b) { return {a.v * b.v}; }
inline vfloat vfma(vfloat a, vfloat b, vfloat c) { return {a.v * b.v + c.v}; }
inline vfloat vload_u8(const std::uint8_t* p) {
  return {static_cast<float>(*p)};
}

#endif

/// kFloatLanes samples as float lanes: the plain load for float samples,
/// the widening load for quantized u8 codes. The one per-type point of
/// every accumulate written over the sample type.
inline vfloat vload_sample(const float* p) { return vload(p); }
inline vfloat vload_sample(const std::uint8_t* p) { return vload_u8(p); }

/// a[t] += s[t] for t in [0, n), `Unroll` vectors per iteration of the main
/// loop, over float samples or quantized u8 codes widened to float. Per-
/// element addition order is unchanged by lane width or unroll, so every
/// instantiation produces bitwise-identical results. For u8 codes the sum
/// is also *exact* as long as it stays below 2^24 (255 · channels ≤ 2^24
/// for any survey-sized channel count).
template <std::size_t Unroll, typename T>
inline void accumulate_span_unrolled(float* a, const T* s, std::size_t n) {
  constexpr std::size_t step = Unroll * kFloatLanes;
  std::size_t t = 0;
  for (; t + step <= n; t += step) {
    for (std::size_t u = 0; u < Unroll; ++u) {
      const std::size_t off = t + u * kFloatLanes;
      vstore(a + off, vadd(vload(a + off), vload_sample(s + off)));
    }
  }
  for (; t + kFloatLanes <= n; t += kFloatLanes) {
    vstore(a + t, vadd(vload(a + t), vload_sample(s + t)));
  }
  for (; t < n; ++t) a[t] += static_cast<float>(s[t]);
}

/// The unroll hints with a compiled instantiation behind them. Anything
/// else would silently measure the un-unrolled loop under the wrong label,
/// so KernelConfig::validate rejects unsupported hints before they reach a
/// kernel or a tuning measurement.
inline constexpr bool is_supported_unroll(std::size_t unroll) {
  return unroll == 1 || unroll == 2 || unroll == 4 || unroll == 8;
}

/// a[t] += s[t] with a runtime unroll hint (the kernel's `unroll` knob).
/// Hints outside is_supported_unroll run the un-unrolled loop; validated
/// configs never carry one (KernelConfig::validate rejects them), so the
/// fallback only serves direct low-level callers.
template <typename T>
inline void accumulate_span(float* a, const T* s, std::size_t n,
                            std::size_t unroll = 1) {
  switch (unroll) {
    case 8:
      accumulate_span_unrolled<8>(a, s, n);
      break;
    case 4:
      accumulate_span_unrolled<4>(a, s, n);
      break;
    case 2:
      accumulate_span_unrolled<2>(a, s, n);
      break;
    default:
      accumulate_span_unrolled<1>(a, s, n);
      break;
  }
}

}  // namespace ddmc::simd
