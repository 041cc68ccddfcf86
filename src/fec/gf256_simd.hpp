/// \file gf256_simd.hpp
/// Vectorized constant-multiplier kernel over GF(2^8)/0x11D.
///
/// The whole RS hot path — encode's parity-feedback rows and the
/// syndrome power-row accumulation (DESIGN.md §7) — reduces to one
/// primitive: XOR-accumulate a span multiplied by a fixed field scalar,
///
///     dst[i] ^= m * src[i]   for i in [0, len),   m constant.
///
/// Three backends implement it with bit-identical results:
///
///  * **scalar** — one 256-entry product row per multiplier out of a
///    constexpr 64 KiB table; the portable oracle every other backend is
///    tested against, and the only backend on non-x86 builds.
///  * **avx2** — the classic 4-bit split-table `pshufb` scheme: two
///    16-entry nibble tables per multiplier (m * lo-nibble and
///    m * hi-nibble<<4), one `vpshufb` pair per 32-byte strip.
///  * **gfni** — `vgf2p8affineqb` with a per-multiplier 8x8 bit matrix.
///    GFNI's fused multiply (`gf2p8mulb`) hardwires the AES polynomial
///    0x11B, but multiplication by a *constant* is GF(2)-linear for any
///    polynomial, so the affine form handles our 0x11D field exactly.
///
/// Backend selection is CPUID runtime dispatch (best supported wins:
/// gfni > avx2 > scalar), overridable with `TBI_SIMD=scalar|avx2|gfni`
/// so any build can force any path — CI runs the full suite under
/// `TBI_SIMD=scalar` and diffs it against the default dispatch. The
/// vector entry points live in their own TU (gf256_simd_x86.cpp), the
/// only one compiled with `-mavx2 -mgfni`, so no other object file can
/// leak ISA the host may lack; `TBI_SIMD_DISABLE=ON` (CMake) drops that
/// TU entirely and pins the scalar backend.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tbi::fec {

enum class GfBackend : unsigned {
  Scalar = 0,
  Avx2 = 1,
  Gfni = 2,
};

/// "scalar" | "avx2" | "gfni".
const char* gf256_backend_name(GfBackend backend);

/// True when \p backend is compiled in *and* the host CPU supports it
/// (CPUID: AVX2 needs OS-enabled ymm state; gfni needs GFNI + AVX2 for
/// the 256-bit VEX form). Scalar is always supported.
bool gf256_backend_supported(GfBackend backend);

/// Every supported backend, scalar first — what the oracle tests sweep.
std::vector<GfBackend> gf256_supported_backends();

/// The backend gf256_muladd currently dispatches to. Resolved on first
/// use: the `TBI_SIMD` override when set (std::runtime_error if that
/// backend is not supported here, std::invalid_argument for an unknown
/// name), otherwise the best supported backend.
GfBackend gf256_active_backend();

/// Test/bench hook: pin dispatch to \p backend (throws std::runtime_error
/// if unsupported). Not thread-safe against concurrent kernel calls —
/// callers switch backends only between runs.
void gf256_force_backend(GfBackend backend);

/// Undo gf256_force_backend: re-resolve from TBI_SIMD / CPUID.
void gf256_reset_backend();

/// dst[i] ^= m * src[i] over GF(2^8)/0x11D for i in [0, len), on the
/// active backend. src and dst must not overlap (they never alias in the
/// codec: table rows vs accumulators). Any alignment, any length — the
/// vector backends run 32/64-byte strips with a scalar tail.
void gf256_muladd(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t m,
                  std::size_t len);

/// As gf256_muladd but on an explicit backend (throws std::runtime_error
/// if unsupported) — the oracle tests drive every backend through this
/// regardless of the dispatch state.
void gf256_muladd_backend(GfBackend backend, std::uint8_t* dst,
                          const std::uint8_t* src, std::uint8_t m,
                          std::size_t len);

namespace detail {

/// Nibble split tables shared by the scalar TU (table construction) and
/// the x86 TU (register operands): lo[m][x] = m * x, hi[m][x] = m * (x<<4).
struct GfNibbleTables {
  alignas(64) std::uint8_t lo[256][16];
  alignas(64) std::uint8_t hi[256][16];
};
extern const GfNibbleTables kGfNibbleTables;

/// kGfAffine.m[m]: the 8x8 GF(2) matrix of "multiply by m" packed in
/// vgf2p8affineqb's operand order (qword byte 7-i = row computing result
/// bit i, row bit j = coefficient of source bit j).
struct GfAffineTable {
  alignas(64) std::uint64_t m[256];
};
extern const GfAffineTable kGfAffine;

/// Internal entry points implemented in gf256_simd_x86.cpp (present only
/// when the build enables the ISA TU).
void gf256_muladd_avx2(std::uint8_t* dst, const std::uint8_t* src,
                       std::uint8_t m, std::size_t len);
void gf256_muladd_gfni(std::uint8_t* dst, const std::uint8_t* src,
                       std::uint8_t m, std::size_t len);

/// Portable reference row path (also the tail loop of the vector kernels).
void gf256_muladd_scalar(std::uint8_t* dst, const std::uint8_t* src,
                         std::uint8_t m, std::size_t len);

}  // namespace detail

}  // namespace tbi::fec
