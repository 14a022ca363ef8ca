#include "mbq/common/cpu.h"

#include <cstdlib>
#include <fstream>
#include <utility>

#include "mbq/common/error.h"

namespace mbq {

const char* isa_name(SimdIsa isa) noexcept {
  switch (isa) {
    case SimdIsa::Scalar: return "scalar";
    case SimdIsa::Avx2: return "avx2";
    case SimdIsa::Avx512: return "avx512";
    case SimdIsa::Neon: return "neon";
  }
  return "?";
}

SimdIsa parse_simd_isa(const std::string& name) {
  if (name == "scalar") return SimdIsa::Scalar;
  if (name == "avx2") return SimdIsa::Avx2;
  if (name == "avx512") return SimdIsa::Avx512;
  if (name == "neon") return SimdIsa::Neon;
  throw Error("unknown SIMD flavor '" + name +
              "' (expected auto, scalar, avx2, avx512, or neon)");
}

bool host_supports_isa(SimdIsa isa) noexcept {
  switch (isa) {
    case SimdIsa::Scalar:
      return true;
    case SimdIsa::Avx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case SimdIsa::Avx512:
#if defined(__x86_64__) || defined(__i386__)
      // F is the only extension the kernels use (no DQ/BW/VL); the
      // sign-bit xors go through the 512-bit integer domain on purpose.
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
    case SimdIsa::Neon:
#if defined(__aarch64__)
      return true;  // AdvSIMD is mandatory on AArch64.
#else
      return false;
#endif
  }
  return false;
}

std::optional<SimdIsa> simd_env_override() {
  const char* env = std::getenv("MBQ_SIMD");
  if (env == nullptr || *env == '\0') return std::nullopt;
  const std::string value(env);
  if (value == "auto") return std::nullopt;
  try {
    return parse_simd_isa(value);
  } catch (const Error&) {
    throw Error("MBQ_SIMD=" + value +
                " is not a recognized value (expected auto, scalar, avx2, "
                "avx512, or neon)");
  }
}

std::uint64_t read_llc_bytes(const std::string& cache_dir) {
  int best_level = 0;
  std::uint64_t best = 0;
  for (int idx = 0; idx < 16; ++idx) {
    const std::string dir = cache_dir + "/index" + std::to_string(idx);
    std::ifstream level_in(dir + "/level"), size_in(dir + "/size"),
        type_in(dir + "/type");
    int level = 0;
    std::string size, type;
    if (!(level_in >> level) || !(size_in >> size)) continue;
    if (type_in >> type && type == "Instruction") continue;
    char* end = nullptr;
    std::uint64_t bytes = std::strtoull(size.c_str(), &end, 10);
    if (end == size.c_str()) continue;
    if (*end == 'K') bytes <<= 10;
    if (*end == 'M') bytes <<= 20;
    if (*end == 'G') bytes <<= 30;
    // Level 3 wins outright; otherwise the deepest level, the larger
    // entry on a tie.
    const auto rank = [](int l) { return l == 3 ? 1000 : l; };
    if (bytes > 0 && std::pair(rank(level), bytes) >
                         std::pair(rank(best_level), best)) {
      best_level = level;
      best = bytes;
    }
  }
  return best > 0 ? best : kFallbackLlcBytes;
}

std::uint64_t llc_bytes() {
  static const std::uint64_t bytes =
      read_llc_bytes("/sys/devices/system/cpu/cpu0/cache");
  return bytes;
}

}  // namespace mbq
