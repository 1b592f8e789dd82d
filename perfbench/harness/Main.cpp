//===- perfbench/harness/Main.cpp - Benchmark harness entry point --------===//
//
// Part of the egglog-cpp benchmark harness.
//
// Usage: perfbench_harness --workload pointsto|eqsat|herbie --seed N
//                          --seconds S --trace 0|1 [--work-dir DIR]
//
// Runs whole rounds of the workload until S seconds have passed since the
// process started (at least one round), checks every output, and prints
// one JSON object as the last line of standard output:
//
//   --trace 0  the end-to-end metrics: setup_s (one cold set-up, timed from
//              process start), and the medians over rounds of solve_s,
//              total_s and cpu_s, plus the process's max_rss_mb;
//   --trace 1  the per-layer metrics (medians over rounds), with every span
//              kept in memory and written to DIR/trace-<workload>-<seed>.jsonl
//              at exit.
//
// A wrong answer prints "correct": false, names it on standard error and
// exits 1.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

void perfbench::recordRun(Recorder &Rec, const egglog::RunReport &Report,
                          size_t TuplesBefore, size_t UnionsBefore) {
  double Match = 0, Apply = 0, Rebuild = 0, Passes = 0;
  for (const egglog::IterationStats &It : Report.Iterations) {
    Match += It.SearchSeconds;
    Apply += It.ApplySeconds;
    Rebuild += It.RebuildSeconds;
    Passes += It.RebuildPasses;
  }
  Rec.add("engine.match_s", Match);
  Rec.add("engine.apply_s", Apply);
  Rec.add("engine.rebuild_s", Rebuild);
  Rec.add("engine.rebuild_passes", Passes);
  Rec.add("engine.iterations", double(Report.Iterations.size()));
  Rec.add("engine.matches", double(Report.totalMatches()));
  if (!Report.Iterations.empty()) {
    const egglog::IterationStats &Last = Report.Iterations.back();
    Rec.add("engine.new_tuples", double(Last.TuplesAfter) - TuplesBefore);
    Rec.add("engine.unions", double(Last.UnionsAfter) - UnionsBefore);
  }
}

bool Recorder::writeSpans(const std::string &Path) const {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  for (size_t I = 0; I < Records.size(); ++I) {
    const SpanRecord &S = Records[I];
    std::fprintf(Out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %lld, \"round\": %u}\n",
                 I, S.Name, S.Start, S.End, static_cast<long long>(S.Parent),
                 S.Round);
  }
  return std::fclose(Out) == 0;
}

namespace {

struct Metric {
  const char *Name;
  const char *Unit;
};

/// The per-layer metrics of BENCHMARK.json, in its order. Every workload
/// reports all of them; a layer a workload does not exercise reads 0.
const Metric LayerMetrics[] = {
    {"frontend.declare_s", "s"},    {"table.load_s", "s"},
    {"table.rows_loaded", "count"}, {"engine.match_s", "s"},
    {"engine.apply_s", "s"},        {"engine.rebuild_s", "s"},
    {"engine.rebuild_passes", "count"},
    {"engine.iterations", "count"}, {"engine.matches", "count"},
    {"engine.new_tuples", "count"}, {"engine.unions", "count"},
    {"engine.useful_ratio", "ratio"},
    {"engine.warm_solve_s", "s"},   {"engine.warm_matches", "count"},
    {"snapshot.save_s", "s"},       {"snapshot.load_s", "s"},
    {"snapshot.bytes", "bytes"},    {"extract.s", "s"},
    {"extract.rows_considered", "count"},
    {"herbie.sample_s", "s"},       {"herbie.eval_s", "s"},
    {"herbie.candidates", "count"}, {"herbie.error_bits", "bits"},
    {"egraph.approx_mb", "MB"},     {"process.sys_s", "s"},
    {"process.minor_faults", "count"},
};

double median(std::vector<double> Values) {
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

/// Median over rounds of one figure.
template <typename Fn> double medianOf(const Recorder &Rec, Fn Get) {
  std::vector<double> Values;
  for (const RoundFigures &R : Rec.rounds())
    Values.push_back(Get(R));
  return median(std::move(Values));
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload pointsto|eqsat|herbie "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  const double ProcessStart = wallNow();
  std::string WorkloadName;
  WorkloadOptions Options;
  double Seconds = -1;
  int Trace = -1;
  for (int I = 1; I + 1 < argc; I += 2) {
    const char *Flag = argv[I], *Arg = argv[I + 1];
    if (!std::strcmp(Flag, "--workload"))
      WorkloadName = Arg;
    else if (!std::strcmp(Flag, "--seed"))
      Options.Seed = std::strtoull(Arg, nullptr, 10);
    else if (!std::strcmp(Flag, "--seconds"))
      Seconds = std::atof(Arg);
    else if (!std::strcmp(Flag, "--trace"))
      Trace = std::atoi(Arg);
    else if (!std::strcmp(Flag, "--work-dir"))
      Options.WorkDir = Arg;
    else
      return usage();
  }
  if (argc % 2 == 0 || Seconds < 0 || (Trace != 0 && Trace != 1))
    return usage();

  std::unique_ptr<Workload> W;
  if (WorkloadName == "pointsto")
    W = makePointsTo(Options);
  else if (WorkloadName == "eqsat")
    W = makeEqSat(Options);
  else if (WorkloadName == "herbie")
    W = makeHerbie(Options);
  else
    return usage();

  Recorder Rec(Trace == 1);
  Checks C;
  double SetupSeconds = 0;
  for (unsigned Round = 0;; ++Round) {
    double RoundStart = wallNow();
    Rec.beginRound(Round);
    W->runRound(Rec, C);
    const RoundFigures &R = Rec.round();
    std::fprintf(stderr,
                 "perfbench: round %u setup_s %.6f solve_s %.6f total_s %.6f "
                 "cpu_s %.6f\n",
                 Round, R.SetupSeconds, R.SolveSeconds, R.WorkSeconds,
                 R.CpuSeconds);
    if (Round == 0)
      SetupSeconds = (RoundStart - ProcessStart) + Rec.round().SetupSeconds;
    if (!C.ok() || wallNow() - ProcessStart >= Seconds)
      break;
  }

  size_t Attempted = 0, Failed = 0;
  for (const RoundFigures &R : Rec.rounds()) {
    Attempted += R.Attempted;
    Failed += R.Failed;
  }

  std::string Metrics;
  auto Emit = [&](const char *Name, double Value, const char *Unit) {
    char Buffer[256];
    std::snprintf(Buffer, sizeof(Buffer),
                  "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  Metrics.empty() ? "" : ", ", Name, Value, Unit);
    Metrics += Buffer;
  };
  if (Trace == 0) {
    Emit("setup_s", SetupSeconds, "s");
    Emit("solve_s",
         medianOf(Rec, [](const RoundFigures &R) { return R.SolveSeconds; }),
         "s");
    Emit("total_s",
         medianOf(Rec, [](const RoundFigures &R) { return R.WorkSeconds; }),
         "s");
    Emit("cpu_s",
         medianOf(Rec, [](const RoundFigures &R) { return R.CpuSeconds; }),
         "s");
    Emit("max_rss_mb", usageNow().MaxRssMb, "MB");
  } else {
    for (const Metric &M : LayerMetrics) {
      std::string Name = M.Name;
      double Value = medianOf(Rec, [&](const RoundFigures &R) {
        auto Get = [&](const char *Key) {
          auto It = R.Layer.find(Key);
          return It == R.Layer.end() ? 0.0 : It->second;
        };
        if (Name == "engine.useful_ratio") {
          double Matches = Get("engine.matches");
          return Matches > 0
                     ? (Get("engine.new_tuples") + Get("engine.unions")) /
                           Matches
                     : 0.0;
        }
        return Get(M.Name);
      });
      Emit(M.Name, Value, M.Unit);
    }
    std::fprintf(stderr, "perfbench: traced total_s median %.6f over %zu "
                         "rounds\n",
                 medianOf(Rec,
                          [](const RoundFigures &R) { return R.WorkSeconds; }),
                 Rec.rounds().size());
    std::string Path =
        Options.WorkDir + "/trace-" + WorkloadName + "-" +
        std::to_string(Options.Seed) + ".jsonl";
    if (!Rec.writeSpans(Path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
  }

  for (const std::string &Failure : C.Failures)
    std::fprintf(stderr, "perfbench: wrong answer: %s\n", Failure.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              C.ok() ? "true" : "false", Attempted, Failed, Metrics.c_str());
  std::fflush(stdout);
  return C.ok() ? 0 : 1;
}
