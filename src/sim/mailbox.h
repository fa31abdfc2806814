// Timestamped, depth-limited mailboxes.
//
// Each SPE exposes a 4-entry inbound mailbox (PPE -> SPE), a 1-entry
// outbound mailbox and a 1-entry outbound interrupt mailbox (SPE -> PPE).
// Entries carry the sender's simulated timestamp; the reader's clock
// advances to max(own, ts) on receipt, which is the only way simulated
// time flows between cores. Functionally the mailboxes are real
// thread-safe queues so the threaded runtime blocks exactly where real
// mailbox channels stall.
//
// Deviation from hardware: entries are 64-bit (real Cell mailboxes carry
// 32-bit words; a 64-bit effective address would be sent as two writes).
// We widen the word so host pointers can travel in one entry; the protocol
// shape (Listing 3 of the paper) is unchanged.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

#include "sim/time.h"
#include "support/error.h"

namespace cellport::sim {

class Mailbox {
 public:
  struct Entry {
    std::uint64_t value = 0;
    SimTime ts = 0;  // delivery timestamp (sender clock + wire latency)
  };

  Mailbox(std::string name, std::size_t capacity)
      : name_(std::move(name)), capacity_(capacity) {}

  /// Blocking write: waits until a slot is free (hardware stalls the
  /// writer when the mailbox is full).
  void write(std::uint64_t value, SimTime delivery_ts);

  /// Non-blocking write; throws MailboxError when full. Used by call
  /// sites that must not stall (protocol bugs surface as errors).
  void write_or_throw(std::uint64_t value, SimTime delivery_ts);

  /// Blocking read: waits until an entry is available.
  Entry read();

  /// Deadline read (cellguard). Blocks host-side until an entry is
  /// functionally present — the sender always writes eventually, so this
  /// never blocks forever — then consumes it only if its delivery
  /// timestamp is within `deadline`. Returns false (entry left queued)
  /// otherwise. The decision depends only on simulated timestamps, so a
  /// timeout is deterministic and replayable regardless of host
  /// scheduling.
  bool read_before(SimTime deadline, Entry* out);

  /// Non-consuming peek (cellbalance). Blocks host-side until an entry is
  /// functionally present, then returns the head entry's delivery
  /// timestamp WITHOUT consuming it and without counting a read. The
  /// steal scheduler compares these timestamps across lanes to pick the
  /// earliest completion; a later read()/read_before() must consume the
  /// very entry that was peeked (enforced as the mailbox.peek invariant).
  SimTime peek_ts();

  /// Number of entries currently queued (spe_stat_* equivalent).
  std::size_t count() const;

  std::size_t capacity() const { return capacity_; }
  const std::string& name() const { return name_; }

  /// Traffic/occupancy statistics. `writes`/`reads` are deterministic
  /// totals and feed the mailbox series of the MetricsRegistry;
  /// `max_depth` is the functional queue's high-water mark, which depends
  /// on host thread interleaving, so only the capacity invariant reads it
  /// (it never feeds back into simulated time or a metric).
  struct Stats {
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;
    std::size_t max_depth = 0;
  };
  Stats stats() const;

  /// Drops all queued entries and statistics (machine reset).
  void clear();

 private:
  /// With mu_ held and q_ non-empty: the head's timestamp must match what
  /// the last peek saw (mailbox.peek invariant).
  void check_peek_consistency() const;

  std::string name_;
  std::size_t capacity_;
  Stats stats_;
  /// Delivery timestamp the last peek_ts() observed, while the peeked
  /// entry is still queued. < 0 means "nothing peeked". The next consume
  /// checks the head still carries this timestamp — FIFO order means a
  /// peeked completion can never be displaced, only consumed.
  SimTime peeked_ts_ = -1;
  mutable std::mutex mu_;
  std::condition_variable cv_read_;
  std::condition_variable cv_write_;
  std::deque<Entry> q_;
};

}  // namespace cellport::sim
