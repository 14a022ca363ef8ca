// Unit tests for the dynamic (qubit-reuse) statevector simulator.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "mbq/common/rng.h"
#include "mbq/linalg/unitaries.h"
#include "mbq/sim/dynamic_statevector.h"
#include "mbq/sim/statevector.h"

namespace mbq {
namespace {

TEST(MeasurementBasis, Columns) {
  // XY(0) must be the X basis; YZ(0) the Z basis.
  EXPECT_TRUE(Matrix::approx_equal(measurement_basis(MeasBasis::XY, 0.0),
                                   measurement_basis(MeasBasis::X, 0.0)));
  EXPECT_TRUE(Matrix::approx_equal(measurement_basis(MeasBasis::YZ, 0.0),
                                   measurement_basis(MeasBasis::Z, 0.0)));
  for (real a : {0.3, -1.2, 2.9}) {
    EXPECT_TRUE(measurement_basis(MeasBasis::XY, a).is_unitary());
    EXPECT_TRUE(measurement_basis(MeasBasis::YZ, a).is_unitary());
  }
}

TEST(DynamicSv, AddWirePlusAndZero) {
  DynamicStatevector dsv;
  dsv.add_wire(10, true);
  dsv.add_wire(20, false);
  EXPECT_EQ(dsv.num_live(), 2);
  // State should be |0>_20 ⊗ |+>_10.
  const auto amps = dsv.state_in_order({10, 20});
  const real s = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(amps[0] - cplx{s, 0}), 0.0, kTol);
  EXPECT_NEAR(std::abs(amps[1] - cplx{s, 0}), 0.0, kTol);
  EXPECT_NEAR(std::abs(amps[2]), 0.0, kTol);
  EXPECT_THROW(dsv.add_wire(10), Error);
}

TEST(DynamicSv, MatchesFixedSimulatorOnRandomCircuit) {
  Rng rng(5);
  DynamicStatevector dsv;
  Statevector sv(3);
  for (int q = 0; q < 3; ++q) {
    dsv.add_wire(q, true);
    sv.apply_h(q);
  }
  for (int step = 0; step < 30; ++step) {
    const int q = static_cast<int>(rng.uniform_index(3));
    switch (rng.uniform_index(4)) {
      case 0:
        dsv.apply_h(q);
        sv.apply_h(q);
        break;
      case 1: {
        const real t = rng.angle();
        dsv.apply_rz(q, t);
        sv.apply_rz(q, t);
        break;
      }
      case 2: {
        int r = static_cast<int>(rng.uniform_index(3));
        if (r == q) r = (r + 1) % 3;
        dsv.apply_cz(q, r);
        sv.apply_cz(q, r);
        break;
      }
      case 3:
        dsv.apply_x(q);
        sv.apply_x(q);
        break;
    }
  }
  EXPECT_NEAR(fidelity(dsv.state_in_order({0, 1, 2}), sv.amplitudes()), 1.0,
              kTol);
}

TEST(DynamicSv, MeasureRemoveZBasis) {
  // Bell pair; Z measurement of one half collapses the other.
  DynamicStatevector dsv;
  dsv.add_wire(0, true);
  dsv.add_wire(1, false);
  // CX(0 -> 1) built from H and CZ.
  dsv.apply_h(1);
  dsv.apply_cz(0, 1);
  dsv.apply_h(1);
  Rng rng(1);
  const Matrix zb = measurement_basis(MeasBasis::Z, 0.0);
  const int m = dsv.measure_remove(0, zb, rng);
  EXPECT_EQ(dsv.num_live(), 1);
  const auto amps = dsv.state_in_order({1});
  EXPECT_NEAR(std::abs(amps[m]), 1.0, kTol);  // perfectly correlated
  EXPECT_NEAR(std::abs(amps[1 - m]), 0.0, kTol);
}

TEST(DynamicSv, ForcedOutcomeZeroProbabilityThrows) {
  DynamicStatevector dsv;
  dsv.add_wire(0, false);  // |0>
  Rng rng(2);
  const Matrix zb = measurement_basis(MeasBasis::Z, 0.0);
  EXPECT_THROW(dsv.measure_remove(0, zb, rng, 1), Error);
}

TEST(DynamicSv, XYMeasurementProbabilities) {
  // On |0>, an XY(alpha) measurement is 50/50 for every alpha.
  for (real a : {0.0, 0.7, -2.1}) {
    DynamicStatevector dsv;
    dsv.add_wire(0, false);
    EXPECT_NEAR(dsv.prob_one(0, measurement_basis(MeasBasis::XY, a)), 0.5,
                kTol);
  }
  // On |+>, X measurement gives 0 with certainty.
  DynamicStatevector dsv;
  dsv.add_wire(0, true);
  EXPECT_NEAR(dsv.prob_one(0, measurement_basis(MeasBasis::X, 0.0)), 0.0,
              kTol);
}

TEST(DynamicSv, JGadgetTeleportation) {
  // The core MBQC step: wire v entangled to fresh ancilla by CZ, measure v
  // in XY(-alpha); outcome m yields X^m J(alpha) |psi> on the ancilla.
  Rng rng(7);
  for (int forced = 0; forced <= 1; ++forced) {
    const real alpha = 0.83;
    // Input |psi> = rz(0.4) H |0> on wire 0.
    DynamicStatevector dsv;
    dsv.add_wire(0, true);
    dsv.apply_rz(0, 0.4);
    dsv.add_wire(1, true);
    dsv.apply_cz(0, 1);
    const int m = dsv.measure_remove(
        0, measurement_basis(MeasBasis::XY, -alpha), rng, forced);
    ASSERT_EQ(m, forced);
    // Reference: X^m J(alpha) rz(0.4) |+>.
    std::vector<cplx> ref{1.0 / std::sqrt(2.0), 1.0 / std::sqrt(2.0)};
    ref = gates::rz(0.4) * ref;
    ref = gates::j(alpha) * ref;
    if (m) ref = gates::x() * ref;
    EXPECT_NEAR(fidelity(dsv.state_in_order({1}), ref), 1.0, kTol)
        << "branch " << forced;
  }
}

TEST(DynamicSv, YZGadgetPhase) {
  // Ancilla gadget: ancilla |+> CZ-coupled to wire, measured in YZ(theta)
  // implements exp(-i theta/2 Z) (outcome 0) or Z * that (outcome 1).
  Rng rng(8);
  for (int forced = 0; forced <= 1; ++forced) {
    const real theta = 1.1;
    DynamicStatevector dsv;
    dsv.add_wire(0, true);  // input |+>
    dsv.apply_rz(0, 0.9);   // arbitrary input state
    dsv.add_wire(5, true);  // ancilla
    dsv.apply_cz(0, 5);
    const int m = dsv.measure_remove(
        5, measurement_basis(MeasBasis::YZ, theta), rng, forced);
    ASSERT_EQ(m, forced);
    std::vector<cplx> ref{1.0 / std::sqrt(2.0), 1.0 / std::sqrt(2.0)};
    ref = gates::rz(0.9) * ref;
    ref = gates::exp_z(theta) * ref;
    if (m) ref = gates::z() * ref;
    EXPECT_NEAR(fidelity(dsv.state_in_order({0}), ref), 1.0, kTol)
        << "branch " << forced;
  }
}

TEST(DynamicSv, PeakLiveTracksHighWater) {
  DynamicStatevector dsv;
  Rng rng(3);
  dsv.add_wire(0, true);
  dsv.add_wire(1, true);
  dsv.add_wire(2, true);
  EXPECT_EQ(dsv.peak_live(), 3);
  dsv.measure_remove(1, measurement_basis(MeasBasis::X, 0.0), rng);
  EXPECT_EQ(dsv.num_live(), 2);
  dsv.add_wire(3, true);
  EXPECT_EQ(dsv.peak_live(), 3);  // never exceeded 3
  dsv.add_wire(4, true);
  EXPECT_EQ(dsv.peak_live(), 4);
}

TEST(DynamicSv, ReserveSizesBothBuffersOnce) {
  // reserve(w) allocates the register and its scratch at 2^w amplitudes
  // each; operations within that width never grow them.
  for (Precision prec : {Precision::F64, Precision::F32}) {
    const std::uint64_t amp =
        prec == Precision::F64 ? sizeof(cplx) : sizeof(cplxf);
    DynamicStatevector dsv(prec);
    dsv.reserve(5);
    const std::uint64_t reserved = 2 * (std::uint64_t{1} << 5) * amp;
    EXPECT_EQ(dsv.buffer_bytes(), reserved);
    Rng rng(9);
    const Matrix x = measurement_basis(MeasBasis::X, 0.0);
    for (int shot = 0; shot < 3; ++shot) {
      dsv.reset();
      dsv.add_plus_wires(0, 4);
      dsv.add_wire(4, true);
      dsv.measure_remove(1, x, rng);  // into scratch, which swaps in
      dsv.prep_cz_teleport_measure(5, 1, 2, x, rng);
      dsv.prep_cz_measure(6, 3, x, rng);
      dsv.measure_remove(4, x, rng);  // top wire: in place
      EXPECT_EQ(dsv.buffer_bytes(), reserved) << "shot " << shot;
    }
    // A narrower reserve keeps the buffers; one past the live-wire
    // limit reserves nothing.
    dsv.reserve(3);
    dsv.reserve(DynamicStatevector::kMaxLiveWires + 1);
    EXPECT_EQ(dsv.buffer_bytes(), reserved);
  }
}

TEST(DynamicSv, LargeArenasAreHugePageAligned) {
  // Buffers of 2 MiB or more start on a 2 MiB boundary where huge pages
  // exist, so they can be backed by them; smaller ones keep the default
  // allocator.  Contents survive growth across the two paths.
  const auto check = [](auto zero) {
    using C = decltype(zero);
    const std::size_t huge = kHugePageBytes / sizeof(C);
    std::vector<C, UninitAllocator<C>> v(huge / 4);
    for (std::size_t i = 0; i < v.size(); ++i)
      v[i] = C(static_cast<float>(i), 1.0f);
    for (const std::size_t n : {huge, huge + huge / 2, 8 * huge}) {
      v.resize(n);
      const auto addr = reinterpret_cast<std::uintptr_t>(v.data());
      if (kHugePageAllocator) {
        EXPECT_EQ(addr % kHugePageBytes, 0u) << n * sizeof(C) << " bytes";
      }
      v.back() = C(2.0f, 3.0f);  // the whole range is writable
      for (std::size_t i = 0; i < huge / 4; i += 997)
        ASSERT_EQ(v[i], C(static_cast<float>(i), 1.0f)) << i;
    }
  };
  check(cplx{});
  check(cplxf{});
}

TEST(DynamicSv, StateInOrderPermutes) {
  DynamicStatevector dsv;
  dsv.add_wire(7, false);
  dsv.apply_x(7);  // |1>_7
  dsv.add_wire(3, false);
  // Order {3, 7}: index bit0 = wire3, bit1 = wire7 -> state index 2.
  auto amps = dsv.state_in_order({3, 7});
  EXPECT_NEAR(std::abs(amps[2] - cplx{1, 0}), 0.0, kTol);
  // Order {7, 3}: index 1.
  amps = dsv.state_in_order({7, 3});
  EXPECT_NEAR(std::abs(amps[1] - cplx{1, 0}), 0.0, kTol);
  EXPECT_THROW(dsv.state_in_order({7}), Error);
}

TEST(DynamicSv, RzKernelBitIdenticalToApply1q) {
  // The dedicated diagonal-phase kernel must produce numerically
  // identical amplitudes to routing diag(1, e^{i t}) through the generic
  // 1q path (== comparison: exact values, tolerant of zero signs — the
  // generic path's 0·a cross terms may flip a zero's sign), while
  // keeping the norm fold usable where apply_1q must invalidate it.
  for (real theta : {0.37, -1.9, 3.14159, 0.0}) {
    DynamicStatevector a, b;
    for (DynamicStatevector* d : {&a, &b}) {
      d->add_wire(0);
      d->add_wire(1, false);
      d->add_wire(2);
      d->apply_h(1);
      d->apply_cz(0, 2);
      d->apply_rz(0, 0.6);
      d->normalize();  // establishes a valid running fold
    }
    ASSERT_TRUE(a.norm_fold_valid());
    a.apply_rz(1, theta);
    b.apply_1q(1, Matrix(2, 2, {1, 0, 0, std::exp(cplx{0.0, theta})}));
    EXPECT_TRUE(a.norm_fold_valid());
    EXPECT_FALSE(b.norm_fold_valid());
    const auto wa = a.state_in_order({0, 1, 2});
    const auto wb = b.state_in_order({0, 1, 2});
    ASSERT_EQ(wa.size(), wb.size());
    for (std::size_t i = 0; i < wa.size(); ++i) {
      ASSERT_EQ(wa[i].real(), wb[i].real()) << "theta " << theta << " i " << i;
      ASSERT_EQ(wa[i].imag(), wb[i].imag()) << "theta " << theta << " i " << i;
    }
  }
}

TEST(DynamicSv, ZeroStateThresholdConstantsArePinned) {
  // The three guards have distinct units and deliberately distinct
  // scales; pin them so a refactor can't silently collapse them back
  // into one magic number.
  EXPECT_EQ(DynamicStatevector::kMinAddWireNorm, 1e-12);
  EXPECT_EQ(DynamicStatevector::kMinBornNorm2, 1e-14);
  EXPECT_EQ(DynamicStatevector::kMinProjectionNorm2, 1e-18);
}

// The one-pass |+> fill of an empty register equals the per-wire
// add_wire chain bit for bit (the chained 1/√2 rounding, +0 imaginary
// parts), in both precisions, below and above the chunk cutoff, and
// leaves the same layout, high-water mark and stale fold.
TEST(DynamicSv, AddPlusWiresMatchesAddWireChain) {
  for (Precision prec : {Precision::F64, Precision::F32}) {
    for (int count : {0, 1, 5, 15}) {
      DynamicStatevector chain(prec), fill(prec);
      for (int k = 0; k < count; ++k) chain.add_wire(3 + k);
      fill.add_plus_wires(3, count);
      EXPECT_EQ(chain.wire_order(), fill.wire_order());
      EXPECT_EQ(chain.peak_live(), fill.peak_live());
      EXPECT_EQ(chain.norm_fold_valid(), fill.norm_fold_valid());
      const auto want = chain.state_in_order(chain.wire_order());
      const auto got = fill.state_in_order(fill.wire_order());
      ASSERT_EQ(want.size(), got.size());
      EXPECT_EQ(std::memcmp(want.data(), got.data(),
                            want.size() * sizeof(cplx)),
                0)
          << precision_name(prec) << " count=" << count;
    }
  }
  DynamicStatevector dsv;
  dsv.add_wire(0);
  EXPECT_THROW(dsv.add_plus_wires(1, 2), Error);  // register not empty
  dsv.reset();
  EXPECT_THROW(dsv.add_plus_wires(-1, 2), Error);
  EXPECT_THROW(dsv.add_plus_wires(0, 29), Error);
}

TEST(DynamicSv, AddWireStateNormBoundary) {
  // |a| just above kMinAddWireNorm is accepted (and renormalized to a
  // clean unit state); just below is rejected.
  DynamicStatevector ok;
  ok.add_wire_state(0, cplx{2e-12, 0.0}, cplx{0.0, 0.0});
  EXPECT_NEAR(std::abs(ok.state_in_order({0})[0] - cplx{1, 0}), 0.0, kTol);

  DynamicStatevector bad;
  EXPECT_THROW(bad.add_wire_state(0, cplx{0.5e-12, 0.0}, cplx{0.0, 0.0}),
               Error);
}

TEST(DynamicSv, NormalizeBornNormBoundary) {
  // normalize() gates on the SQUARED norm: |psi|^2 = 4e-14 > kMinBornNorm2
  // passes (and leaves a valid fold), 2.5e-15 < kMinBornNorm2 throws.
  DynamicStatevector ok;
  ok.add_wire(0, false);
  ok.apply_1q(0, Matrix(2, 2, {2e-7, 0, 0, 0}));
  ok.normalize();
  EXPECT_TRUE(ok.norm_fold_valid());
  EXPECT_NEAR(ok.norm(), 1.0, kTol);

  DynamicStatevector bad;
  bad.add_wire(0, false);
  bad.apply_1q(0, Matrix(2, 2, {0.5e-7, 0, 0, 0}));
  EXPECT_THROW(bad.normalize(), Error);
}

TEST(DynamicSv, ProjectionNormBoundary) {
  // A forced outcome whose projection lands just above
  // kMinProjectionNorm2 (4e-18) is rescued by renormalization; just
  // below (2.5e-19) is rejected as numerically meaningless.
  Rng rng(1);
  DynamicStatevector ok;
  ok.add_wire(0, false);
  ok.apply_1q(0, Matrix(2, 2, {1, 0, 2e-9, 0}));
  EXPECT_EQ(
      ok.measure_remove(0, measurement_basis(MeasBasis::Z, 0.0), rng, 1), 1);

  DynamicStatevector bad;
  bad.add_wire(0, false);
  bad.apply_1q(0, Matrix(2, 2, {1, 0, 0.5e-9, 0}));
  EXPECT_THROW(
      bad.measure_remove(0, measurement_basis(MeasBasis::Z, 0.0), rng, 1),
      Error);
}

}  // namespace
}  // namespace mbq
