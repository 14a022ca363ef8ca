#include "mbq/mbqc/compiled.h"

#include <algorithm>

#include "mbq/common/bits.h"
#include "mbq/common/error.h"

namespace mbq::mbqc {

namespace {

/// Longest CZ run folded into one CzGroup pass: beyond this the
/// per-element mask tests cost more than a second pass saves.
constexpr std::size_t kCzGroupChunk = 8;

}  // namespace

CompiledPattern::CompiledPattern(const Pattern& p) {
  p.validate();

  std::unordered_map<int, int> slot_of;
  auto slot = [&](int wire) {
    const auto [it, fresh] = slot_of.try_emplace(wire, num_slots_);
    if (fresh) ++num_slots_;
    return it->second;
  };
  for (const int w : p.inputs()) {
    input_wires_.push_back(w);
    input_slots_.push_back(slot(w));
  }

  auto flatten = [&](const SignalExpr& e, std::uint32_t& begin,
                     std::uint32_t& end) {
    begin = static_cast<std::uint32_t>(signal_pool_.size());
    signal_pool_.insert(signal_pool_.end(), e.variables().begin(),
                        e.variables().end());
    end = static_cast<std::uint32_t>(signal_pool_.size());
  };
  auto fill_measure = [&](Op& op, const CmdMeasure& m) {
    op.a = slot(m.wire);
    op.meas = num_measurements_++;
    flatten(m.s_domain, op.s_begin, op.s_end);
    flatten(m.t_domain, op.t_begin, op.t_end);
    // The runtime angle is (-1)^s · angle; both variants are fixed at
    // compile time, so the adaptive sign becomes a table pick.  The
    // matrices match what the interpreter builds per shot bit for bit
    // (measurement_basis is deterministic and (±1)·angle is exact).
    basis_pos_.push_back(measurement_basis(m.plane, m.angle));
    basis_neg_.push_back(measurement_basis(m.plane, -m.angle));
  };

  // Lowering with peephole fusion.  Every fused group keeps its source
  // commands (order included) in the pools, because noisy execution must
  // replay them one by one to draw from the rng in command order.
  const std::vector<Command>& cmds = p.commands();
  tape_.reserve(cmds.size());
  std::size_t i = 0;
  while (i < cmds.size()) {
    Op op{};
    if (const auto* n = std::get_if<CmdPrep>(&cmds[i])) {
      // Prep + the contiguous CZs touching the fresh wire; if the very
      // next command measures that same wire, the whole gadget block
      // fuses into one op.
      const int w = n->wire;
      op.a = slot(w);
      op.p_begin = static_cast<std::uint32_t>(pair_pool_.size());
      std::size_t j = i + 1;
      for (; j < cmds.size(); ++j) {
        const auto* e = std::get_if<CmdEntangle>(&cmds[j]);
        if (e == nullptr || (e->a != w && e->b != w)) break;
        pair_pool_.push_back({slot(e->a), slot(e->b)});
      }
      op.p_end = static_cast<std::uint32_t>(pair_pool_.size());
      const auto* m =
          j < cmds.size() ? std::get_if<CmdMeasure>(&cmds[j]) : nullptr;
      if (m != nullptr && m->wire == w) {
        // The gadget block: the fresh wire itself is measured next.
        op.kind = OpKind::PrepCzMeasure;
        fill_measure(op, *m);
        i = j + 1;
      } else if (m != nullptr) {
        // The teleport block: another wire is measured right after the
        // prep (the J steps of the mixer chains).  `a` keeps the fresh
        // slot; fill_measure sets the measured slot, then move it to b.
        op.kind = OpKind::PrepCzTeleport;
        const std::int32_t fresh = op.a;
        fill_measure(op, *m);
        op.b = op.a;
        op.a = fresh;
        i = j + 1;
      } else {
        op.kind = op.p_begin == op.p_end ? OpKind::Prep : OpKind::PrepCz;
        i = j;
      }
    } else if (std::holds_alternative<CmdEntangle>(cmds[i])) {
      op.p_begin = static_cast<std::uint32_t>(pair_pool_.size());
      while (i < cmds.size() &&
             pair_pool_.size() - op.p_begin < kCzGroupChunk) {
        const auto* e = std::get_if<CmdEntangle>(&cmds[i]);
        if (e == nullptr) break;
        pair_pool_.push_back({slot(e->a), slot(e->b)});
        ++i;
      }
      op.p_end = static_cast<std::uint32_t>(pair_pool_.size());
      if (op.p_end - op.p_begin == 1) {
        op.kind = OpKind::Entangle;
        op.a = pair_pool_.back().a;
        op.b = pair_pool_.back().b;
      } else {
        op.kind = OpKind::CzGroup;
      }
    } else if (const auto* m = std::get_if<CmdMeasure>(&cmds[i])) {
      op.kind = OpKind::Measure;
      fill_measure(op, *m);
      ++i;
    } else {
      // A run of X/Z corrections composes into one Pauli-product pass.
      op.kind = OpKind::PauliGroup;
      op.p_begin = static_cast<std::uint32_t>(pauli_pool_.size());
      for (; i < cmds.size(); ++i) {
        Correction corr{};
        if (const auto* x = std::get_if<CmdCorrectX>(&cmds[i])) {
          corr.is_z = 0;
          corr.slot = slot(x->wire);
          corr.wire = x->wire;
          flatten(x->domain, corr.d_begin, corr.d_end);
        } else if (const auto* z = std::get_if<CmdCorrectZ>(&cmds[i])) {
          corr.is_z = 1;
          corr.slot = slot(z->wire);
          corr.wire = z->wire;
          flatten(z->domain, corr.d_begin, corr.d_end);
        } else {
          break;
        }
        pauli_pool_.push_back(corr);
      }
      op.p_end = static_cast<std::uint32_t>(pauli_pool_.size());
    }
    tape_.push_back(op);
  }

  for (const int w : p.outputs()) {
    output_wires_.push_back(w);
    output_slots_.push_back(slot(w));
  }

  // Replay the tape's register width the way DynamicStatevector tracks
  // it: preps add a wire, measures remove one, and the fused gadget and
  // teleport blocks peak one wire above the register they run on.
  int live = static_cast<int>(input_slots_.size());
  peak_live_ = live;
  for (const Op& op : tape_) {
    switch (op.kind) {
      case OpKind::Prep:
      case OpKind::PrepCz:
        peak_live_ = std::max(peak_live_, ++live);
        break;
      case OpKind::PrepCzMeasure:
      case OpKind::PrepCzTeleport:
        peak_live_ = std::max(peak_live_, live + 1);
        break;
      case OpKind::Measure:
        --live;
        break;
      default:
        break;
    }
  }
}

PatternExecutor::PatternExecutor(std::shared_ptr<const CompiledPattern> compiled,
                                 ExecOptions options)
    : compiled_(std::move(compiled)),
      options_(std::move(options)),
      dsv_(options_.precision) {
  MBQ_REQUIRE(compiled_ != nullptr, "PatternExecutor needs a compiled pattern");
  MBQ_REQUIRE(options_.entangler_noise >= 0.0 &&
                  options_.entangler_noise <= 1.0,
              "noise probability out of range: " << options_.entangler_noise);
  outcomes_.reserve(static_cast<std::size_t>(compiled_->num_measurements()));
}

RunResult PatternExecutor::run(Rng& rng) { return execute(&rng, nullptr); }

PatternExecutor::SampledShot PatternExecutor::run_sample(Rng& rng) {
  execute(&rng, nullptr, /*gather_output=*/false);
  // Readout draws AFTER the full run, exactly like sampling from the
  // gathered output_state would.  The gather table is refreshed in
  // place against the final layout — same size every shot, so its
  // storage is reused and the steady-state shot stays allocation-free.
  const real u = rng.uniform();
  dsv_.fill_gather_table(compiled_->output_slots_, gather_);
  return {dsv_.sample_in_order(gather_, u), dsv_.peak_live()};
}

RunResult PatternExecutor::run_forced(const std::vector<int>& forced) {
  MBQ_REQUIRE(options_.entangler_noise == 0.0,
              "forced runs are incompatible with entangler noise (noise "
              "draws would change branch statistics)");
  MBQ_REQUIRE(static_cast<int>(forced.size()) == compiled_->num_measurements(),
              "forced outcomes size " << forced.size()
                                      << " != measurement count "
                                      << compiled_->num_measurements());
  return execute(nullptr, forced.data());
}

RunResult PatternExecutor::run_forced(std::uint64_t branch) {
  const int m = compiled_->num_measurements();
  MBQ_REQUIRE(m <= 64, "branch word covers at most 64 measurements");
  forced_bits_.resize(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i)
    forced_bits_[static_cast<std::size_t>(i)] = get_bit(branch, i);
  return run_forced(forced_bits_);
}

void PatternExecutor::rebind(std::shared_ptr<const CompiledPattern> compiled) {
  MBQ_REQUIRE(compiled != nullptr, "PatternExecutor needs a compiled pattern");
  compiled_ = std::move(compiled);
  outcomes_.reserve(static_cast<std::size_t>(compiled_->num_measurements()));
}

RunResult PatternExecutor::execute(Rng* rng, const int* forced,
                                   bool gather_output) {
  const CompiledPattern& cp = *compiled_;
  dsv_.reset();
  outcomes_.clear();
  RunResult result;

  for (std::size_t i = 0; i < cp.input_slots_.size(); ++i) {
    const auto it = options_.input_states.find(cp.input_wires_[i]);
    if (it == options_.input_states.end()) {
      dsv_.add_wire(cp.input_slots_[i], /*plus=*/true);
    } else {
      dsv_.add_wire_state(cp.input_slots_[i], it->second.first,
                          it->second.second);
    }
  }

  const real noise = options_.entangler_noise;
  // Forced runs pass no generator; nothing draws when every outcome is
  // forced, so an idle stand-in keeps the calls well-formed.
  Rng idle(0);
  Rng& gen = rng == nullptr ? idle : *rng;

  // Position mask over a fused op's CZ partners.  Repeated partners
  // XOR-cancel, exactly as two sequential CZs on the same pair would.
  auto partner_mask = [&](const CompiledPattern::Op& op) {
    std::uint64_t mask = 0;
    for (std::uint32_t k = op.p_begin; k < op.p_end; ++k) {
      const CompiledPattern::CzPair& pr = cp.pair_pool_[k];
      const int partner = pr.a == op.a ? pr.b : pr.a;
      mask ^= std::uint64_t{1} << dsv_.bit_position(partner);
    }
    return mask;
  };
  // Noisy runs replay a fused op's source CZs one by one: the noise rng
  // draws per E command, in command order, like the interpreter.
  auto noisy_czs = [&](const CompiledPattern::Op& op) {
    for (std::uint32_t k = op.p_begin; k < op.p_end; ++k) {
      const CompiledPattern::CzPair& pr = cp.pair_pool_[k];
      dsv_.apply_cz_depolarize(pr.a, pr.b, noise, gen);
    }
  };
  enum class MeasureVia { Plain, FusedGadget, FusedTeleport };
  auto run_measure = [&](const CompiledPattern::Op& op, MeasureVia via) {
    const int s = cp.eval_signals(op.s_begin, op.s_end, outcomes_);
    const int t = cp.eval_signals(op.t_begin, op.t_end, outcomes_);
    const auto m = static_cast<std::size_t>(op.meas);
    const Matrix& basis = s ? cp.basis_neg_[m] : cp.basis_pos_[m];
    const int f = forced == nullptr ? -1 : forced[op.meas];
    int raw;
    switch (via) {
      case MeasureVia::FusedGadget:
        raw = dsv_.prep_cz_measure(op.a, partner_mask(op), basis, gen, f);
        break;
      case MeasureVia::FusedTeleport:
        raw = dsv_.prep_cz_teleport_measure(op.a, partner_mask(op), op.b,
                                            basis, gen, f);
        break;
      default:
        // Plain measures (and the noisy fallback) target the slot the
        // lowering put in `a` for Measure ops and in `b` for teleports.
        raw = dsv_.measure_remove(
            op.kind == CompiledPattern::OpKind::PrepCzTeleport ? op.b : op.a,
            basis, gen, f);
        break;
    }
    outcomes_.push_back(raw ^ t);
  };

  for (const CompiledPattern::Op& op : cp.tape_) {
    switch (op.kind) {
      case CompiledPattern::OpKind::Prep:
        dsv_.add_wire(op.a, /*plus=*/true);
        break;
      case CompiledPattern::OpKind::PrepCz:
        if (noise > 0.0) {
          dsv_.add_wire(op.a, /*plus=*/true);
          noisy_czs(op);
        } else {
          dsv_.add_wire_plus_cz(op.a, partner_mask(op));
        }
        break;
      case CompiledPattern::OpKind::PrepCzMeasure:
        if (noise > 0.0) {
          dsv_.add_wire(op.a, /*plus=*/true);
          noisy_czs(op);
          run_measure(op, MeasureVia::Plain);
        } else {
          run_measure(op, MeasureVia::FusedGadget);
        }
        break;
      case CompiledPattern::OpKind::PrepCzTeleport:
        if (noise > 0.0) {
          dsv_.add_wire(op.a, /*plus=*/true);
          noisy_czs(op);
          run_measure(op, MeasureVia::Plain);
        } else {
          run_measure(op, MeasureVia::FusedTeleport);
        }
        break;
      case CompiledPattern::OpKind::Entangle:
        if (noise > 0.0) {
          dsv_.apply_cz_depolarize(op.a, op.b, noise, gen);
        } else {
          dsv_.apply_cz(op.a, op.b);
        }
        break;
      case CompiledPattern::OpKind::CzGroup:
        if (noise > 0.0) {
          noisy_czs(op);
        } else {
          std::uint64_t masks[kCzGroupChunk];
          int count = 0;
          for (std::uint32_t k = op.p_begin; k < op.p_end; ++k) {
            const CompiledPattern::CzPair& pr = cp.pair_pool_[k];
            masks[count++] = (std::uint64_t{1} << dsv_.bit_position(pr.a)) |
                             (std::uint64_t{1} << dsv_.bit_position(pr.b));
          }
          dsv_.apply_cz_masks(masks, count);
        }
        break;
      case CompiledPattern::OpKind::Measure:
        run_measure(op, MeasureVia::Plain);
        break;
      case CompiledPattern::OpKind::PauliGroup: {
        // Compose the fired corrections left to right into X^x with a
        // Z-phase mask and the sign their sequential order produces:
        // appending X_w maps x ^= m and flips the sign when m already
        // lies in the Z mask (Z X = -X Z); appending Z_w maps z ^= m.
        std::uint64_t xmask = 0, zmask = 0;
        bool negate = false;
        for (std::uint32_t k = op.p_begin; k < op.p_end; ++k) {
          const CompiledPattern::Correction& c = cp.pauli_pool_[k];
          const int v = cp.eval_signals(c.d_begin, c.d_end, outcomes_);
          if (!options_.apply_corrections) {
            (c.is_z ? result.pending_z : result.pending_x)[c.wire] ^= v;
            continue;
          }
          if (!v) continue;
          const std::uint64_t m = std::uint64_t{1}
                                  << dsv_.bit_position(c.slot);
          if (c.is_z) {
            zmask ^= m;
          } else {
            negate ^= parity64(m & zmask) != 0;
            xmask ^= m;
          }
        }
        dsv_.apply_pauli_masks(xmask, zmask, negate);
        break;
      }
    }
  }

  result.peak_live = dsv_.peak_live();
  if (gather_output) {
    // run_sample skips this copy too: its caller reads last_outcomes()
    // from the member, keeping the shot loop allocation-free.
    result.outcomes = outcomes_;
    dsv_.fill_gather_table(cp.output_slots_, gather_);
    result.output_state = dsv_.state_in_order(gather_);
  }
  return result;
}

PatternExecutor& thread_local_executor(
    const std::shared_ptr<const CompiledPattern>& compiled,
    const ExecOptions& options) {
  MBQ_REQUIRE(compiled != nullptr, "thread_local_executor needs a pattern");
  MBQ_REQUIRE(options.input_states.empty(),
              "thread_local_executor does not support input_states; "
              "construct a PatternExecutor directly");
  thread_local std::unique_ptr<PatternExecutor> executor;
  if (executor == nullptr || !(executor->options() == options) ||
      executor->compiled().peak_live() != compiled->peak_live()) {
    executor = std::make_unique<PatternExecutor>(compiled, options);
  } else if (&executor->compiled() != compiled.get()) {
    executor->rebind(compiled);
  }
  return *executor;
}

}  // namespace mbq::mbqc
