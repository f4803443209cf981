#pragma once
/// \file cpu_kernel.hpp
/// \brief SIMD-vectorized, cache-blocked, threaded host twin of the
/// many-core kernel.
///
/// The iteration space is tiled exactly like the device work-groups of
/// §III-B (tile_dm × tile_time), and the engine adds the two optimizations
/// that Barsdell et al. and Novotný et al. identify as decisive on CPUs:
///
///  - the time dimension of every accumulate is explicitly vectorized
///    through the portable layer of common/simd.hpp (AVX/SSE2/NEON with a
///    scalar fallback), with a tunable unroll factor;
///  - the channel loop is blocked (`KernelConfig::channel_block`): the
///    tile's accumulators are loaded into registers and stored back once
///    per channel block instead of once per channel, and the per-DM-tile
///    delay/shift tables are precomputed once so no delay lookup remains
///    in the hot loops.
///
/// Input rows are read in place: every tile adds its trials' shifted
/// spans straight out of the input matrix, and the cache keeps what the
/// trials share. Dedispersion is memory-bound, and on LOFAR-like bands
/// most of a tile's input span is DM spread that no other trial of the
/// tile reuses, so copying the spans into a local buffer first (the
/// device kernel's local-memory path) would move about as many bytes as
/// the accumulate itself.
///
/// Every output element still accumulates its channels in channel order,
/// so scalar, vectorized, blocked and threaded runs are all bit-identical
/// to dedisp::reference — which is what the equivalence test suite checks.
/// Tiles are independent and are distributed over a thread pool.
///
/// The kernel is one template over the sample type, instantiated for
/// float and for quantized 8-bit codes (dedisperse_cpu_u8). The two
/// instantiations differ in exactly two points:
///
///  - the vector load: float rows load as they are, byte rows are widened
///    to float lanes inside the register tile (simd::vload_sample), so a
///    u8 plane is one byte per sample from DRAM up to the register file;
///  - the writeback epilogue: float tiles are copied out, u8 tiles hold
///    exact raw-code sums (below 2^24, i.e. for up to 65 793 channels) and
///    are dequantized once per output element, out = C·lo + scale·Σq.
///
/// The u8 sum is an exact integer summed in channel order, so every tile
/// shape, channel block, unroll, SIMD backend and thread count produces
/// bitwise-identical u8 output too; only the quantization itself is
/// approximate (see quantize.hpp for the bound).

#include <cstdint>

#include "common/array2d.hpp"
#include "dedisp/kernel_config.hpp"
#include "dedisp/plan.hpp"
#include "dedisp/quantize.hpp"

namespace ddmc::dedisp {

/// Host-execution knobs of the tiled kernel. Neither changes a result:
/// every combination is bitwise identical.
struct CpuKernelOptions {
  /// Use the explicit SIMD engine; false runs the seed's scalar inner loop
  /// (the baseline the benchmarks compare against).
  bool vectorize = true;
  /// Worker threads; 0 = use the global pool sized to the machine,
  /// 1 = run inline on the calling thread (deterministic profiling).
  std::size_t threads = 0;
};

/// Execute the tiled kernel. \p config must validate against \p plan.
void dedisperse_cpu(const Plan& plan, const KernelConfig& config,
                    ConstView2D<float> in, View2D<float> out,
                    const CpuKernelOptions& options = {});

/// Convenience allocating the output matrix.
Array2D<float> dedisperse_cpu(const Plan& plan, const KernelConfig& config,
                              ConstView2D<float> in,
                              const CpuKernelOptions& options = {});

/// Execute the tiled kernel on a quantized byte plane (channels ×
/// ≥in_samples codes under \p params), with the same config and options.
void dedisperse_cpu_u8(const Plan& plan, const KernelConfig& config,
                       ConstView2D<std::uint8_t> in,
                       const QuantizationParams& params, View2D<float> out,
                       const CpuKernelOptions& options = {});

/// Convenience allocating the output matrix.
Array2D<float> dedisperse_cpu_u8(const Plan& plan, const KernelConfig& config,
                                 ConstView2D<std::uint8_t> in,
                                 const QuantizationParams& params,
                                 const CpuKernelOptions& options = {});

}  // namespace ddmc::dedisp
