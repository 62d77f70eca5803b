#ifndef MDW_COMMON_CANCELLATION_H_
#define MDW_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "common/status.h"

namespace mdw {

/// Time source for query deadlines. Two modes:
///   - the default *steady* clock: NowMicros() reads the process
///     monotonic clock, so deadlines are wall-time budgets;
///   - a *virtual* clock (DeadlineClock::Virtual()): NowMicros() is a
///     manually advanced counter. The scheduler and the deterministic
///     tests use virtual time so "deadline expired" is a pure function
///     of the event sequence, independent of machine speed.
/// Handles are cheap copies sharing the same underlying counter; a
/// token built from a clock keeps the counter alive.
class DeadlineClock {
 public:
  /// Steady (wall) clock.
  DeadlineClock() = default;

  /// Manually advanced clock starting at 0 microseconds.
  static DeadlineClock Virtual();

  /// Microseconds on this clock: monotonic process time (steady mode)
  /// or the advanced counter (virtual mode).
  std::int64_t NowMicros() const;

  /// Advances a virtual clock; aborts on a steady clock.
  void AdvanceMicros(std::int64_t delta_us) const;

 private:
  std::shared_ptr<std::atomic<std::int64_t>> vnow_;  // null = steady
};

/// Cooperative cancellation for in-flight queries.
///
/// A token is a cheap copyable handle to shared tripwire state. The
/// default-constructed token is *unarmed*: it holds no state, every
/// ShouldStop() is a single null-pointer check, and RemainingMicros()
/// reports an unbounded budget — so the per-chunk checkpoints threaded
/// through the executor are free unless a caller actually arms a
/// deadline or keeps a handle around to Cancel().
///
/// An armed token trips for one of two reasons, and remembers which:
///   - Cancel(): the caller explicitly abandoned the query
///     (StatusCode::kCancelled), or
///   - an attached deadline expired on its clock
///     (StatusCode::kDeadlineExceeded).
/// Explicit cancellation wins over a concurrently expiring deadline: a
/// token that observed Cancel() stays kCancelled.
///
/// Checking is cooperative: nothing interrupts a running kernel. The
/// executor polls ShouldStop() at chunk boundaries and before expensive
/// waits (retry backoff in the buffer pool), abandons remaining work,
/// and surfaces CancelStatus() as the query's typed status — the
/// aggregate is disengaged exactly like an I/O failure, so a tripped
/// token can never yield a partial sum.
class CancellationToken {
 public:
  /// Unarmed token: never trips, costs one null check per poll.
  CancellationToken() = default;

  /// Armed token with no deadline: trips only via Cancel().
  static CancellationToken Manual();

  /// Armed token that trips once `clock` passes `deadline_us` (checked
  /// lazily at poll time — no timer thread), or once `parent` trips:
  /// linking stacks a per-query budget under an outer cancel scope, and
  /// an unarmed parent (the default) links nothing. Cancel() on the
  /// child never propagates up.
  static CancellationToken WithDeadlineMicros(
      std::int64_t deadline_us, DeadlineClock clock = {},
      const CancellationToken& parent = {});

  /// Armed token that trips `timeout_us` from now on `clock` (or when
  /// `parent` trips).
  static CancellationToken WithTimeoutMicros(
      std::int64_t timeout_us, DeadlineClock clock = {},
      const CancellationToken& parent = {}) {
    return WithDeadlineMicros(clock.NowMicros() + timeout_us, clock, parent);
  }

  bool armed() const { return state_ != nullptr; }

  /// Trips the token with kCancelled. Safe to call from any thread, and
  /// on an unarmed token (no-op).
  void Cancel() const;

  /// True once the token has tripped (explicit cancel or expired
  /// deadline). The hot-path poll: unarmed tokens return false after an
  /// inline null check; armed tokens pay one relaxed atomic load per
  /// link, plus a clock read only while a not-yet-tripped deadline is
  /// attached.
  bool ShouldStop() const {
    return state_ != nullptr && ShouldStopSlow();
  }

  /// The typed status to surface for a tripped token: kCancelled or
  /// kDeadlineExceeded. Ok when the token has not (yet) tripped.
  Status CancelStatus() const;

  /// Remaining deadline budget in microseconds: INT64_MAX when no
  /// deadline is attached (incl. unarmed), 0 when tripped or expired.
  /// Retry/backoff loops cap their sleeps by this so a deadlined query
  /// can never sleep past its own budget.
  std::int64_t RemainingMicros() const;

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    std::atomic<bool> deadline_hit{false};
    bool has_deadline = false;
    std::int64_t deadline_us = 0;
    DeadlineClock clock;
    std::shared_ptr<State> parent;  ///< linked outer scope (may be null)
  };
  explicit CancellationToken(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  /// Armed-token half of ShouldStop(): walks the link chain.
  bool ShouldStopSlow() const;

  std::shared_ptr<State> state_;
};

}  // namespace mdw

#endif  // MDW_COMMON_CANCELLATION_H_
