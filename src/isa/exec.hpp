// Threaded-code execution of compiled cells (S26).
//
// A Cell's opcode stream is dispatched with computed goto on GCC/Clang
// (one indirect jump per cell, no bounds check, no switch ladder), falling
// back to a plain switch elsewhere. Executors are templated over a policy
// supplying the four primitive writes so the same dispatch core serves the
// per-agent simulator (slot writes), the count engine (count shifts) and
// the verifier's successor generator (config clones).
#pragma once

#include "isa/compiled.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define PPDE_ISA_COMPUTED_GOTO 1
#else
#define PPDE_ISA_COMPUTED_GOTO 0
#endif

namespace ppde::isa {

/// Execute one compiled cell for a meeting of states (q, r).
///
/// Policy requirements (all may be lambdas via make_policy below):
///   policy.write_q(q2)   — rewrite the initiator side to q2
///   policy.write_r(r2)   — rewrite the responder side to r2
///   policy.write_both(q2, r2)
///   policy.swap_qr()     — both sides exchange states (counts invariant)
///   policy.accepting(delta) — apply the fused accepting-counter delta
/// A kNop cell only reaches policy.accepting(0); identity writes never
/// happen, which is what keeps the count engine's shift surgery identical
/// to the seed engine's "skip when from == to" behaviour.
template <typename Policy>
inline void execute_cell(const Cell& cell, Policy&& policy) {
#if PPDE_ISA_COMPUTED_GOTO
  static const void* const kTable[kNumOps] = {
      &&lbl_nop, &&lbl_write_q, &&lbl_write_r, &&lbl_write_both, &&lbl_swap,
  };
  goto* kTable[cell.meta & 0xff];
lbl_nop:
  policy.accepting(cell.accepting_delta());
  return;
lbl_write_q:
  policy.write_q(cell.q2);
  policy.accepting(cell.accepting_delta());
  return;
lbl_write_r:
  policy.write_r(cell.r2);
  policy.accepting(cell.accepting_delta());
  return;
lbl_write_both:
  policy.write_both(cell.q2, cell.r2);
  policy.accepting(cell.accepting_delta());
  return;
lbl_swap:
  policy.swap_qr();
  policy.accepting(cell.accepting_delta());
  return;
#else
  switch (cell.op()) {
    case kNop:
      break;
    case kWriteQ:
      policy.write_q(cell.q2);
      break;
    case kWriteR:
      policy.write_r(cell.r2);
      break;
    case kWriteBoth:
      policy.write_both(cell.q2, cell.r2);
      break;
    case kSwap:
      policy.swap_qr();
      break;
    default:
      break;
  }
  policy.accepting(cell.accepting_delta());
#endif
}

/// Convenience policy built from five callables (lambdas compose well at
/// call sites that only need a couple of ops to do real work).
template <typename WQ, typename WR, typename WB, typename SW, typename AC>
struct CellPolicy {
  WQ wq;
  WR wr;
  WB wb;
  SW sw;
  AC ac;
  void write_q(std::uint32_t q2) { wq(q2); }
  void write_r(std::uint32_t r2) { wr(r2); }
  void write_both(std::uint32_t q2, std::uint32_t r2) { wb(q2, r2); }
  void swap_qr() { sw(); }
  void accepting(std::int32_t delta) { ac(delta); }
};

template <typename WQ, typename WR, typename WB, typename SW, typename AC>
CellPolicy<WQ, WR, WB, SW, AC> make_policy(WQ wq, WR wr, WB wb, SW sw,
                                           AC ac) {
  return {wq, wr, wb, sw, ac};
}

}  // namespace ppde::isa
