#pragma once
// Runtime CPU feature detection for the SIMD kernel dispatch.
//
// The simulator's amplitude kernels (sim/collapse_kernels.h) are built
// in several instruction-set flavors and ONE is selected per process at
// first use.  This header owns the two inputs to that choice:
//   * what the host actually supports (CPUID on x86, baseline AdvSIMD
//     on aarch64 — where NEON is architecturally mandatory, so no HWCAP
//     probe is needed), and
//   * what the user requested via the MBQ_SIMD environment variable
//     (auto | scalar | avx2 | avx512 | neon).
// The dispatch itself — including the bit-identity self-check that can
// reject a vector flavor — lives in sim/collapse_kernels.{h,cpp}; this
// layer only answers "could we?" and "were we asked to?".
//
// It also reports the size of one core's private L2 cache, the input
// api::Session uses to choose between shot-level and kernel-level
// threads (see session.h).

#include <cstdint>
#include <optional>
#include <string>

namespace mbq {

/// Kernel instruction-set flavors, best-first order is Avx512 > Avx2 >
/// Neon > Scalar on their respective architectures.  Scalar is always
/// available and is itself the bit-exactness reference.
enum class SimdIsa : std::uint8_t { Scalar, Avx2, Avx512, Neon };

/// Lower-case name as accepted by MBQ_SIMD ("scalar", "avx2", ...).
const char* isa_name(SimdIsa isa) noexcept;

/// Inverse of isa_name; throws Error on an unknown name.
SimdIsa parse_simd_isa(const std::string& name);

/// True if the RUNNING host can execute this flavor (independent of
/// whether this build compiled it in — see sim::kernels_for_isa for the
/// combined answer).  Scalar is always true.
bool host_supports_isa(SimdIsa isa) noexcept;

/// The MBQ_SIMD override: nullopt when unset or "auto", otherwise the
/// parsed flavor.  Throws Error on an unrecognized value — a typo must
/// fail loudly at dispatch time, never silently fall back.
std::optional<SimdIsa> simd_env_override();

/// Per-core L2 size assumed when sysfs cannot be read: 1 MiB, a
/// conservative figure for current server parts (2 MiB on Sapphire
/// Rapids and later).
inline constexpr std::uint64_t kFallbackL2Bytes = std::uint64_t{1} << 20;

/// Size in bytes of the level-2 cache described by a sysfs cache
/// directory (`<cache_dir>/index*/{level,type,size}`): the largest
/// level-2 entry; instruction caches never count.  kFallbackL2Bytes when
/// no level-2 entry can be read.  Unlike the last-level cache, which a
/// virtual machine reports for the whole host socket, the L2 that sysfs
/// lists is the one the core actually has.
std::uint64_t read_l2_bytes(const std::string& cache_dir);

/// read_l2_bytes of cpu0's sysfs cache directory, read once per process.
std::uint64_t l2_bytes();

}  // namespace mbq
