// SPU local-store access and control-flow cost helpers.
//
// Vector loads/stores on the SPU are always 16-byte aligned quadword
// accesses on the odd pipeline; scalar access compiles to load+rotate
// (2 odd cycles) and stores to a read-modify-write (3 cycles). Branches
// have no hardware predictor: a branch resolved against its software hint
// costs ~18 cycles. These helpers make the kernel code pay those costs
// explicitly, which is how the pre-optimization ports of Section 5.3 end
// up *slower* than the PPE on branchy code.
#pragma once

#include <cstring>

#include "spu/pipes.h"
#include "spu/vec.h"
#include "support/aligned.h"
#include "support/error.h"

namespace cellport::spu {

namespace detail {
// Out of line and cold, so that vld/vst stay small enough to inline.
[[noreturn, gnu::cold, gnu::noinline]] inline void unaligned(
    const char* what) {
  throw cellport::Error(what);
}
}  // namespace detail

/// The alignment rule of vld without the load or its charge, for kernels
/// that read an aligned local-store row natively and charge its loads in
/// bulk.
inline void vld_check(const void* p) {
  if (!cellport::is_aligned(p, 16)) {
    detail::unaligned("SPU vector load from unaligned address");
  }
}

/// Quadword vector load. `p` must be 16-byte aligned (hardware silently
/// ignores low address bits; we fail loudly instead).
template <typename V>
V vld(const void* p) {
  vld_check(p);
  charge_odd();
  V r;
  std::memcpy(&r, p, 16);
  return r;
}

/// The alignment rule of vst without the store or its charge, for kernels
/// that write an aligned local-store row natively and charge its stores
/// in bulk.
inline void vst_check(const void* p) {
  if (!cellport::is_aligned(p, 16)) {
    detail::unaligned("SPU vector store to unaligned address");
  }
}

/// Quadword vector store; `p` must be 16-byte aligned.
template <typename V>
void vst(void* p, const V& x) {
  vst_check(p);
  charge_odd();
  std::memcpy(p, &x, 16);
}

/// Scalar load: quadword load + rotate-to-preferred-slot (2 odd cycles).
template <typename T>
T sload(const T* p) {
  charge_odd(2);
  return *p;
}

/// Scalar store: load-quadword, insert, store (1 even + 2 odd cycles).
template <typename T>
void sstore(T* p, T x) {
  charge_even(1);
  charge_odd(2);
  *p = x;
}

/// Scalar arithmetic: n single-lane ops still occupy a full even-pipe
/// issue slot each.
inline void sop(double n = 1.0) { charge_even(n); }

/// A conditional branch. `hint_correct` says whether the software branch
/// hint (or fall-through assumption) matched the actual direction; a
/// wrong hint flushes the pipeline (~18 cycles).
inline bool spu_branch(bool taken, bool hint_correct = true) {
  charge_odd();
  if (!hint_correct) charge_branch_miss();
  return taken;
}

/// Per-iteration loop overhead of compiled SPU loops (induction update +
/// compare on the even pipe, branch on the odd pipe), `n` iterations.
inline void spu_loop(double n) {
  charge_even(2 * n);
  charge_odd(n);
}

}  // namespace cellport::spu
