//===- perfbench/harness/Harness.h - Benchmark harness core ----*- C++ -*-===//
//
// Part of the egglog-cpp benchmark harness.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: clocks, the span recorder, the per-round
/// figures it accumulates, and the workload interface.
///
/// A workload runs in rounds; a round attempts every operation of the
/// workload once. Inside a round, the harness times *work* (calls into the
/// program) and leaves the benchmark's own checks out: workloads wrap each
/// stretch of program calls in a WorkScope, and total_s / cpu_s add up
/// only those stretches. Spans sit inside work, one per call into a public
/// function of a layer, and carry the name, start, end and parent the
/// traced run writes out.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_HARNESS_H
#define PERFBENCH_HARNESS_HARNESS_H

#include "core/Engine.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

/// Seconds on the monotonic clock.
inline double wallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// This process's resource usage so far.
struct Usage {
  double UserSeconds = 0;
  double SysSeconds = 0;
  double MinorFaults = 0;
  double MaxRssMb = 0;
};

inline Usage usageNow() {
  struct rusage R {};
  getrusage(RUSAGE_SELF, &R);
  Usage U;
  U.UserSeconds = R.ru_utime.tv_sec + R.ru_utime.tv_usec * 1e-6;
  U.SysSeconds = R.ru_stime.tv_sec + R.ru_stime.tv_usec * 1e-6;
  U.MinorFaults = static_cast<double>(R.ru_minflt);
  U.MaxRssMb = static_cast<double>(R.ru_maxrss) / 1024.0; // Linux: KiB
  return U;
}

/// Which end-to-end figure a span's time also counts toward.
enum class Role { None, Setup, Solve };

/// Figures of one round.
struct RoundFigures {
  double SetupSeconds = 0;
  double SolveSeconds = 0;
  double WorkSeconds = 0;
  double CpuSeconds = 0;
  size_t Attempted = 0;
  size_t Failed = 0;
  /// Per-layer figures by metric name: span seconds and counters.
  std::map<std::string, double> Layer;
};

/// One recorded span.
struct SpanRecord {
  const char *Name;
  double Start;
  double End;
  int64_t Parent; ///< Index of the enclosing span, -1 at top level.
  unsigned Round;
};

/// Accumulates per-round figures and, in a traced run, keeps every span in
/// memory until writeSpans() at exit.
class Recorder {
public:
  explicit Recorder(bool KeepSpans) : KeepSpans(KeepSpans) {}

  void beginRound(unsigned Round) {
    CurrentRound = Round;
    Rounds.emplace_back();
  }
  RoundFigures &round() { return Rounds.back(); }
  const std::vector<RoundFigures> &rounds() const { return Rounds; }

  void add(const std::string &Metric, double Value) {
    round().Layer[Metric] += Value;
  }
  void raise(const std::string &Metric, double Value) {
    double &Slot = round().Layer[Metric];
    Slot = std::max(Slot, Value);
  }

  void beginWork() {
    WorkStart = wallNow();
    UsageStart = usageNow();
  }
  void endWork() {
    Usage End = usageNow();
    RoundFigures &R = round();
    R.WorkSeconds += wallNow() - WorkStart;
    double Sys = End.SysSeconds - UsageStart.SysSeconds;
    R.CpuSeconds += End.UserSeconds - UsageStart.UserSeconds + Sys;
    R.Layer["process.sys_s"] += Sys;
    R.Layer["process.minor_faults"] +=
        End.MinorFaults - UsageStart.MinorFaults;
  }

  void openSpan(const char *Name) {
    Open.push_back(OpenSpan{Name, wallNow(), Records.size()});
    if (KeepSpans)
      Records.push_back(SpanRecord{Name, Open.back().Start, 0,
                                   Open.size() > 1
                                       ? int64_t(Open[Open.size() - 2].Index)
                                       : -1,
                                   CurrentRound});
  }

  /// Closes the innermost span.
  void closeSpan(const std::string &Metric, Role R) {
    OpenSpan S = Open.back();
    Open.pop_back();
    double End = wallNow();
    double Seconds = End - S.Start;
    if (KeepSpans)
      Records[S.Index].End = End;
    RoundFigures &F = round();
    if (!Metric.empty())
      F.Layer[Metric] += Seconds;
    if (R == Role::Setup)
      F.SetupSeconds += Seconds;
    else if (R == Role::Solve)
      F.SolveSeconds += Seconds;
  }

  /// Writes the spans as JSON lines; false on an I/O error.
  bool writeSpans(const std::string &Path) const;

private:
  struct OpenSpan {
    const char *Name;
    double Start;
    size_t Index;
  };
  bool KeepSpans;
  unsigned CurrentRound = 0;
  std::vector<RoundFigures> Rounds;
  std::vector<OpenSpan> Open;
  std::vector<SpanRecord> Records;
  double WorkStart = 0;
  Usage UsageStart;
};

/// A span around one call into a layer. Its time goes to per-layer metric
/// \p Metric (by default the span name plus "_s"; none when empty) and, per
/// \p R, to the round's set-up or solve time.
class Span {
public:
  Span(Recorder &Rec, const char *Name, Role R = Role::None,
       const char *Metric = nullptr)
      : Rec(Rec), R(R),
        Metric(Metric ? Metric : std::string(Name) + "_s") {
    Rec.openSpan(Name);
  }
  ~Span() { Rec.closeSpan(Metric, R); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Recorder &Rec;
  Role R;
  std::string Metric;
};

/// A stretch of program calls that counts toward total_s and cpu_s.
class WorkScope {
public:
  explicit WorkScope(Recorder &Rec) : Rec(Rec) { Rec.beginWork(); }
  ~WorkScope() { Rec.endWork(); }
  WorkScope(const WorkScope &) = delete;
  WorkScope &operator=(const WorkScope &) = delete;

private:
  Recorder &Rec;
};

/// Adds one engine run's report to the round's engine.* figures.
/// \p TuplesBefore and \p UnionsBefore are the database's live tuples and
/// unions before the run.
void recordRun(Recorder &Rec, const egglog::RunReport &Report,
               size_t TuplesBefore, size_t UnionsBefore);

/// Collects wrong answers; any one makes the run exit non-zero.
struct Checks {
  std::vector<std::string> Failures;
  void fail(const std::string &Message) { Failures.push_back(Message); }
  bool ok() const { return Failures.empty(); }
};

/// One workload. The constructor makes the inputs from the seed; each
/// runRound() attempts every operation once, records its figures into the
/// recorder's current round, and checks the outputs.
class Workload {
public:
  virtual ~Workload() = default;
  virtual void runRound(Recorder &Rec, Checks &C) = 0;
};

/// Options every workload understands.
struct WorkloadOptions {
  uint64_t Seed = 1;
  /// Directory for files a workload writes (snapshots).
  std::string WorkDir = ".";
};

std::unique_ptr<Workload> makePointsTo(const WorkloadOptions &Options);
std::unique_ptr<Workload> makeEqSat(const WorkloadOptions &Options);
std::unique_ptr<Workload> makeHerbie(const WorkloadOptions &Options);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HARNESS_H
