//===- support/Governor.h - Resource governance ----------------*- C++ -*-===//
//
// Part of egglog-cpp. See DESIGN.md ("Failure atomicity and resource
// governance") for checkpoint placement rules.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ResourceGovernor turns resource limits into bounded-latency stops.
/// Legacy RunOptions limits (TimeoutSeconds, NodeLimit) stop the engine
/// gracefully at iteration granularity; the governor's limits are hard: any
/// trip raises an ErrKind::Limit (or Cancelled) error and the current
/// command rolls back. Inner loops (match, apply, rebuild, extract) call a
/// checkpoint every N rows, so the stop latency is bounded by the work in N
/// rows, not by a whole engine iteration.
///
/// Thread-safety: pollQuick() touches only the deadline and the atomic
/// cancel flag and may be called from match workers. The full poll()
/// additionally compares live-tuple and byte counts supplied by the caller
/// and is meant for serial checkpoints (apply/rebuild/extract run on the
/// coordinating thread; parallel match never grows tables).
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_SUPPORT_GOVERNOR_H
#define EGGLOG_SUPPORT_GOVERNOR_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace egglog {

enum class GovernorVerdict : uint8_t {
  Ok,
  Timeout,
  NodeLimit,
  MemoryLimit,
  Cancelled,
};

class ResourceGovernor {
public:
  using Clock = std::chrono::steady_clock;

  /// Per-command wall-clock budget in seconds; 0 disables. The deadline is
  /// re-armed at every command start (arm()), so the budget is per command,
  /// not per session.
  void setTimeout(double Seconds) { TimeoutSeconds = Seconds; }
  double timeout() const { return TimeoutSeconds; }

  /// Ceiling on live tuples across all tables; 0 disables.
  void setMaxLive(size_t Max) { MaxLive = Max; }
  size_t maxLive() const { return MaxLive; }

  /// Ceiling on approximate bytes allocated by tables + union-find (plus
  /// the engine's buffered matches after each match phase); 0
  /// disables. Approximate: container capacities, not allocator truth.
  void setMaxBytes(size_t Max) { MaxBytes = Max; }
  size_t maxBytes() const { return MaxBytes; }

  /// Cooperative cancellation, safe from any thread (e.g. a signal handler
  /// shim or an embedding host's watchdog). Sticky until the next arm().
  void requestCancel() { CancelFlag.store(true, std::memory_order_release); }

  /// Called at command start: re-arms the deadline and clears a stale
  /// cancel request left over from a previous command's trip.
  void arm() {
    CancelFlag.store(false, std::memory_order_release);
    if (TimeoutSeconds > 0)
      Deadline = Clock::now() +
                 std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(TimeoutSeconds));
    HasDeadline = TimeoutSeconds > 0;
  }

  /// Deadline + cancellation only. Cheap enough for worker threads.
  GovernorVerdict pollQuick() const {
    if (CancelFlag.load(std::memory_order_acquire))
      return GovernorVerdict::Cancelled;
    if (HasDeadline && Clock::now() >= Deadline)
      return GovernorVerdict::Timeout;
    return GovernorVerdict::Ok;
  }

  /// Full poll with caller-supplied resource counts.
  GovernorVerdict poll(size_t LiveTuples, size_t ApproxBytes) const {
    GovernorVerdict Quick = pollQuick();
    if (Quick != GovernorVerdict::Ok)
      return Quick;
    if (MaxLive && LiveTuples > MaxLive)
      return GovernorVerdict::NodeLimit;
    if (MaxBytes && ApproxBytes > MaxBytes)
      return GovernorVerdict::MemoryLimit;
    return GovernorVerdict::Ok;
  }

  bool anyLimitSet() const {
    return TimeoutSeconds > 0 || MaxLive || MaxBytes ||
           CancelFlag.load(std::memory_order_acquire);
  }

  /// Rows between full checkpoints in the serial inner loops. Test-settable
  /// to make trips land deterministically; 1024 bounds stop latency to ~a
  /// thousand row visits while keeping the amortized cost unmeasurable.
  void setCheckpointInterval(uint32_t Rows) {
    CheckpointInterval = Rows ? Rows : 1;
  }
  uint32_t checkpointInterval() const { return CheckpointInterval; }

private:
  double TimeoutSeconds = 0;
  size_t MaxLive = 0;
  size_t MaxBytes = 0;
  uint32_t CheckpointInterval = 1024;
  bool HasDeadline = false;
  Clock::time_point Deadline{};
  std::atomic<bool> CancelFlag{false};
};

} // namespace egglog

#endif // EGGLOG_SUPPORT_GOVERNOR_H
