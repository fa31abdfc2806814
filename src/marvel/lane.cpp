#include "marvel/lane.h"

#include "support/error.h"

namespace cellport::marvel {

Lane::Lane(const port::KernelModule& module, int spe,
           guard::SpeHealth* health, const std::vector<int>& spares) {
  if (health != nullptr) {
    guarded_ = std::make_unique<guard::GuardedInterface>(*health, module,
                                                         spe, spares);
  } else {
    plain_ = std::make_unique<port::SPEInterface>(module, spe);
  }
}

void Lane::send(int opcode, std::uint64_t ea) {
  if (guarded_ != nullptr) {
    guarded_->Send(opcode, ea);
  } else {
    plain_->Send(opcode, ea);
  }
}

Lane::Result Lane::finish() {
  if (guarded_ != nullptr) return guarded_->Finish();
  Result r;
  r.value = plain_->Wait();
  r.ok = true;
  r.attempts = 1;
  return r;
}

sim::SimTime Lane::peek_ns() {
  return guarded_ != nullptr ? guarded_->peek_ns()
                             : plain_->peek_completion_ns();
}

port::SPEInterface* Lane::iface() {
  return guarded_ != nullptr ? guarded_->iface() : plain_.get();
}

void Lane::quiesce() noexcept {
  port::SPEInterface* i = iface();
  if (i == nullptr) return;
  while (i->busy() || i->ring_batches_in_flight() > 0) {
    try {
      if (i->busy()) {
        i->Wait();
      } else {
        i->WaitBatch(nullptr);
      }
    } catch (const cellport::Error&) {
      // Already reported by the call that unwound the schedule.
    }
  }
}

}  // namespace cellport::marvel
