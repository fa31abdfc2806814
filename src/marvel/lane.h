// One scheduled SPE role of the Cell engine: an extract slot, a detection
// SPE, a shard, a detection block, a fused lane or a feed lane.
//
// A lane owns the stub for its pinned SPE (Listing 2). An unguarded
// engine builds plain lanes: send/finish are exactly SPEInterface's
// Send/Wait, so a kernel fault throws cellport::Error from finish(). A
// guarded engine builds guarded lanes behind a guard::GuardedInterface:
// finish() runs the deadline/retry/quarantine loop and reports a failed
// verdict instead of throwing, which the caller turns into a PPE
// fallback. Call sites are the same for both; a fault-free guarded lane
// charges exactly what a plain one does.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "guard/guarded_interface.h"
#include "port/spe_interface.h"

namespace cellport::marvel {

class Lane {
 public:
  using Result = guard::GuardedInterface::Result;

  /// Opens `module` on `spe`. With a non-null `health` the lane is
  /// guarded and may migrate to `spares`; otherwise it is plain.
  Lane(const port::KernelModule& module, int spe, guard::SpeHealth* health,
       const std::vector<int>& spares);

  void send(int opcode, std::uint64_t ea);
  /// Collects the pending call. Plain: Wait(), {ok, attempts=1}, throws
  /// on a kernel fault. Guarded: GuardedInterface::Finish().
  Result finish();
  Result call(int opcode, std::uint64_t ea) {
    send(opcode, ea);
    return finish();
  }
  /// Non-consuming completion timestamp of the pending call.
  sim::SimTime peek_ns();
  /// The stub currently hosting the module (ring dispatch); null while a
  /// guarded lane has no healthy SPE.
  port::SPEInterface* iface();
  bool guarded() const { return guarded_ != nullptr; }
  /// Waits out every call still in flight on the lane (per-call or ring
  /// batch), swallowing their faults. Used when another lane's fault
  /// unwinds a schedule, so no kernel keeps touching buffers the
  /// unwinding frees.
  void quiesce() noexcept;

 private:
  std::unique_ptr<port::SPEInterface> plain_;
  std::unique_ptr<guard::GuardedInterface> guarded_;
};

}  // namespace cellport::marvel
