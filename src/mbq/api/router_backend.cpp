#include "mbq/api/router_backend.h"

#include <algorithm>
#include <cmath>

#include "mbq/api/registry.h"
#include "mbq/common/error.h"

namespace mbq::api {

namespace {

/// Routing artifact: the decision plus the chosen (and, in cross-check
/// mode, the checking) adapter with its own prepared artifact — so the
/// Session's per-angle cache also caches the routing decision.
struct PreparedRoute final : Prepared {
  RouteDecision decision;
  std::shared_ptr<Backend> chosen;
  std::shared_ptr<const Prepared> inner;
  std::shared_ptr<Backend> checker;
  std::shared_ptr<const Prepared> checker_inner;

  std::uint64_t executor_bytes() const noexcept override {
    return (inner ? inner->executor_bytes() : 0) +
           (checker_inner ? checker_inner->executor_bytes() : 0);
  }
};

const PreparedRoute& route_of(const Prepared* prep) {
  const auto* p = dynamic_cast<const PreparedRoute*>(prep);
  MBQ_ASSERT(p != nullptr);
  return *p;
}

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += " > ";
    out += n;
  }
  return out;
}

std::string no_capable_adapter(const RouteDecision& d) {
  std::string out = "no capable adapter among the candidates —";
  for (const auto& [name, why] : d.rejected) out += " " + name + ": " + why + ";";
  out.pop_back();
  return out;
}

}  // namespace

RouterBackend::RouterBackend(RouterOptions options)
    : options_(std::move(options)) {
  MBQ_REQUIRE(!options_.candidates.empty(),
              "router needs at least one candidate backend");
  auto& registry = BackendRegistry::instance();
  backends_.reserve(options_.candidates.size());
  for (const std::string& name : options_.candidates) {
    MBQ_REQUIRE(name != "router" && name != "router-checked",
                "router cannot route to itself ('" << name << "')");
    backends_.push_back(registry.create(name));
  }
}

Capabilities RouterBackend::capabilities() const {
  Capabilities caps;
  caps.summary =
      "cost-routing meta-backend: per (workload, angles) delegates to the "
      "cheapest capable adapter";
  if (options_.cross_check)
    caps.summary += ", cross-checked against an independent second adapter";
  caps.max_qubits = 0;
  caps.clifford_angles_only = true;
  caps.supports_mis_ansatz = false;
  caps.supports_custom_ansatz = false;
  // Term order / noise: the router can run whatever its most capable
  // candidate can — unlimited (0) if any candidate is unlimited, the
  // max bound otherwise.
  caps.max_term_order = -1;
  for (const auto& b : backends_) {
    const Capabilities c = b->capabilities();
    caps.max_qubits = std::max(caps.max_qubits, c.max_qubits);
    caps.exact_expectation &= c.exact_expectation;
    caps.supports_sampling &= c.supports_sampling;
    caps.clifford_angles_only &= c.clifford_angles_only;
    caps.supports_mis_ansatz |= c.supports_mis_ansatz;
    caps.supports_custom_ansatz |= c.supports_custom_ansatz;
    if (c.max_term_order == 0)
      caps.max_term_order = 0;
    else if (caps.max_term_order != 0)
      caps.max_term_order = std::max(caps.max_term_order, c.max_term_order);
    caps.supports_noise |= c.supports_noise;
    caps.supports_f32_storage |= c.supports_f32_storage;
  }
  if (caps.max_term_order < 0) caps.max_term_order = 0;
  return caps;
}

RouteDecision RouterBackend::route(const Workload& w,
                                   const qaoa::Angles& a) const {
  RouteDecision d;
  for (std::size_t c = 0; c < backends_.size(); ++c) {
    const std::string& name = options_.candidates[c];
    std::string reason = backends_[c]->unsupported_reason(w, a, nullptr);
    if (reason.empty() && name == "zx" &&
        w.num_qubits() > options_.zx_max_qubits)
      reason = "routing policy reserves zx for instances with <= " +
               std::to_string(options_.zx_max_qubits) +
               " qubits, workload has " + std::to_string(w.num_qubits());
    if (!reason.empty()) {
      d.rejected.emplace_back(name, reason);
      continue;
    }
    if (d.backend_name.empty()) {
      d.backend_name = name;
      d.reason = "cheapest capable adapter (cost order: " +
                 join(options_.candidates) + ")";
      // Without cross-checking there is no need to probe the costlier
      // candidates, so `rejected` covers only those tried before the
      // choice.  Noisy workloads never get a checker: every capable
      // adapter evaluates a single stochastic noise trajectory, so two
      // independent evaluations legitimately disagree far beyond any
      // cross-check tolerance.
      if (!options_.cross_check || w.entangler_noise() > 0.0) break;
    } else {
      d.cross_check_backend = name;
      break;
    }
  }
  return d;
}

std::string RouterBackend::unsupported_reason(const Workload& w,
                                              const qaoa::Angles& a,
                                              const Prepared* prep) const {
  if (prep != nullptr) return {};  // a routed artifact exists: it ran before
  const RouteDecision d = route(w, a);
  if (!d.backend_name.empty()) return {};
  return no_capable_adapter(d);
}

std::shared_ptr<const Prepared> RouterBackend::prepare(
    const Workload& w, const qaoa::Angles& a) const {
  auto prep = std::make_shared<PreparedRoute>();
  prep->decision = route(w, a);
  MBQ_REQUIRE(!prep->decision.backend_name.empty(),
              "router cannot run this workload: "
                  << no_capable_adapter(prep->decision));
  for (std::size_t c = 0; c < backends_.size(); ++c) {
    if (options_.candidates[c] == prep->decision.backend_name)
      prep->chosen = backends_[c];
    if (!prep->decision.cross_check_backend.empty() &&
        options_.candidates[c] == prep->decision.cross_check_backend)
      prep->checker = backends_[c];
  }
  MBQ_ASSERT(prep->chosen != nullptr);
  prep->inner = prep->chosen->prepare(w, a);
  if (prep->checker != nullptr)
    prep->checker_inner = prep->checker->prepare(w, a);
  return prep;
}

real RouterBackend::expectation(const Workload& w, const qaoa::Angles& a,
                                Rng& rng, const Prepared* prep) const {
  std::shared_ptr<const Prepared> local;
  if (prep == nullptr) {
    local = prepare(w, a);
    prep = local.get();
  }
  const PreparedRoute& r = route_of(prep);
  const real value = r.chosen->expectation(w, a, rng, r.inner.get());
  if (options_.cross_check && r.checker != nullptr) {
    const real check =
        r.checker->expectation(w, a, rng, r.checker_inner.get());
    MBQ_REQUIRE(
        std::abs(value - check) <= options_.cross_check_tolerance,
        "cross-check disagreement: '"
            << r.decision.backend_name << "' = " << value << " vs '"
            << r.decision.cross_check_backend << "' = " << check
            << " (|d| = " << std::abs(value - check) << " exceeds "
            << options_.cross_check_tolerance << ")");
  }
  return value;
}

std::uint64_t RouterBackend::sample_one(const Workload& w,
                                        const qaoa::Angles& a, Rng& rng,
                                        const Prepared* prep) const {
  std::shared_ptr<const Prepared> local;
  if (prep == nullptr) {
    local = prepare(w, a);
    prep = local.get();
  }
  const PreparedRoute& r = route_of(prep);
  return r.chosen->sample_one(w, a, rng, r.inner.get());
}

}  // namespace mbq::api
