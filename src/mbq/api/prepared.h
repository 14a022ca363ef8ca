#pragma once
// Shared Prepared implementations for the built-in adapters.
//
// Two artifact shapes cover all four backends: a compiled measurement
// pattern (mbqc, clifford) and an explicit Born distribution with its
// exact expectation (statevector, zx).  Kept in one place so the
// cumulative-search sampling and the downcast boilerplate cannot drift
// between adapters.

#include <algorithm>
#include <memory>
#include <vector>

#include "mbq/api/backend.h"
#include "mbq/common/error.h"
#include "mbq/core/compiler.h"
#include "mbq/mbqc/compiled.h"

namespace mbq::api {

struct PreparedPattern final : Prepared {
  core::CompiledPattern compiled;
  /// The validate-once lowered op tape of compiled.pattern, shared with
  /// per-thread PatternExecutors.  Filled by the backends that execute
  /// on the dynamic statevector (mbqc, mbqc-classical); the tableau path
  /// walks compiled.pattern directly and leaves it null.
  std::shared_ptr<const mbqc::CompiledPattern> executable;
  /// executable's arena_bytes under the workload's precision and noise:
  /// what the executor that runs it allocates.  0 without one.
  std::uint64_t arena_bytes = 0;

  std::uint64_t executor_bytes() const noexcept override {
    return arena_bytes;
  }
};

inline const core::CompiledPattern& pattern_of(const Prepared* prep) {
  const auto* p = dynamic_cast<const PreparedPattern*>(prep);
  MBQ_ASSERT(p != nullptr);
  return p->compiled;
}

inline const std::shared_ptr<const mbqc::CompiledPattern>& executable_of(
    const Prepared* prep) {
  const auto* p = dynamic_cast<const PreparedPattern*>(prep);
  MBQ_ASSERT(p != nullptr && p->executable != nullptr);
  return p->executable;
}

/// Exact output distribution of a backend whose state is fully known.
struct PreparedDistribution final : Prepared {
  real expectation = 0.0;
  /// cumulative[x] = P(outcome <= x); what sampling needs.
  std::vector<real> cumulative;

  /// Born sample by binary search.
  std::uint64_t sample(Rng& rng) const {
    const real u = rng.uniform();
    const auto it = std::lower_bound(cumulative.begin(), cumulative.end(), u);
    if (it == cumulative.end()) return cumulative.size() - 1;
    return static_cast<std::uint64_t>(it - cumulative.begin());
  }
};

inline const PreparedDistribution& distribution_of(const Prepared* prep) {
  const auto* p = dynamic_cast<const PreparedDistribution*>(prep);
  MBQ_ASSERT(p != nullptr);
  return *p;
}

}  // namespace mbq::api
