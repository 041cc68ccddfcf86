/// \file gf256_simd.hpp
/// Backend-name shim. The GF(2^8) kernel has one implementation,
/// gf256_muladd in gf256.hpp; there are no vector backends and no
/// dispatch. perfbench/workloads.cpp still stamps
/// `gf256_backend_name(gf256_active_backend())` into its run context, and
/// the benchmark harness changes only together with its baseline, so
/// these two names stay until then (ROADMAP item 7 drops this header).
#pragma once

namespace tbi::fec {

enum class GfBackend { Scalar };

inline const char* gf256_backend_name(GfBackend) { return "scalar"; }

inline GfBackend gf256_active_backend() { return GfBackend::Scalar; }

}  // namespace tbi::fec
