//===- perfbench/harness/HerbieWorkload.cpp - §6.2 mini-Herbie workload ---===//
//
// Part of the egglog-cpp benchmark harness.
//
// Sound mini-Herbie over the 51-benchmark suite, driven step by step
// through the library's public functions (the same pipeline as
// herbie::improveExpression): sample points with their ground truth,
// declare the sound ruleset, load the input term and its variable ranges,
// run the phased schedule, extract candidates, and keep the candidate with
// the least measured error. One operation is one suite benchmark.
//
// The seed picks the sample points. The rewrite work does not depend on
// them, so every seed does the same analysis work.
//
// Checks, with the harness's own binary128 evaluator at fresh points: the
// chosen expression agrees with the input, and its binary64 error there is
// not above the input's.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Oracles.h"

#include "core/Extract.h"
#include "core/Frontend.h"
#include "herbie/Herbie.h"
#include "herbie/Rules.h"
#include "support/Rational.h"

using namespace egglog;
using namespace egglog::herbie;
using namespace perfbench;

namespace {

/// Schedule phases (saturate the analyses, then one rewrite iteration).
/// The library default of 12 takes ~100 s over the suite; 6 take ~5 s.
constexpr unsigned Phases = 6;
/// The library's defaults for the other knobs.
constexpr size_t NodeLimit = 60000;
constexpr unsigned Samples = 200;
constexpr size_t MaxCandidates = 48;

/// Fresh points per benchmark for the oracle.
constexpr size_t FreshPoints = 256;
/// Slack on the error comparison at fresh points, in bits: the program
/// chooses on its own sample points, so a candidate that is better there
/// may be marginally worse on others (by up to 0.007 bits as measured).
constexpr double ErrorSlackBits = 0.25;

/// (set (lo|hi (MVar "x")) q) for one range end, as exact rationals.
std::string rangeFact(const char *Side, const std::string &Var, double End) {
  Rational Q = Rational::fromDouble(End);
  return std::string("(set (") + Side + " (MVar \"" + Var +
         "\")) (rational-big \"" + Q.numerator().toString() + "\" \"" +
         Q.denominator().toString() + "\"))\n";
}

class Herbie : public Workload {
public:
  explicit Herbie(const WorkloadOptions &Options)
      : Seed(Options.Seed), Program(herbieProgramText(/*Sound=*/true)),
        Schedule(herbiePhasedSchedule(Phases)) {}

  void runRound(Recorder &Rec, Checks &C) override {
    const std::vector<Benchmark> &Suite = herbieSuite();
    for (size_t I = 0; I < Suite.size(); ++I)
      runBenchmark(Rec, C, I, Suite[I]);
  }

private:
  uint64_t Seed;
  std::string Program;
  std::string Schedule;

  void runBenchmark(Recorder &Rec, Checks &C, size_t Index,
                    const Benchmark &Bench) {
    ++Rec.round().Attempted;
    std::unique_ptr<Frontend> F;
    std::string Best = Bench.Expr;
    bool Ok = true;
    {
      WorkScope Work(Rec);
      Span Op(Rec, "op.benchmark", Role::None, "");
      ExprPtr Root;
      SampleSet Sampled;
      {
        Span S(Rec, "herbie.sample", Role::Setup);
        Root = parseFPExpr(Bench.Expr);
        Ok = Root != nullptr;
        if (Ok)
          Sampled = samplePoints(*Root, Bench.Ranges, Samples,
                                 static_cast<uint32_t>(Seed * 2654435761ULL +
                                                       Index));
        Ok = Ok && !Sampled.Points.empty();
      }
      double BestError = 0;
      if (Ok) {
        Span S(Rec, "herbie.eval");
        BestError = averageError(*Root, Sampled);
      }
      F = std::make_unique<Frontend>();
      if (Ok) {
        Span S(Rec, "frontend.declare", Role::Setup);
        Ok = F->execute(Program);
      }
      if (Ok) {
        Span S(Rec, "table.load", Role::Setup);
        std::string Load = "(define root " + toEgglogTerm(*Root) + ")\n";
        for (const VarRange &R : Bench.Ranges)
          Load += rangeFact("lo", R.Name, R.Lo) + rangeFact("hi", R.Name, R.Hi);
        size_t Before = F->graph().liveTupleCount();
        Ok = F->execute(Load);
        Rec.add("table.rows_loaded",
                double(F->graph().liveTupleCount() - Before));
      }
      size_t TuplesBefore = F->graph().liveTupleCount();
      size_t UnionsBefore = F->graph().unionFind().unionCount();
      if (Ok) {
        F->runOptions().NodeLimit = NodeLimit;
        F->runOptions().UseBackoff = true;
        Span S(Rec, "engine.run", Role::Solve, "");
        Ok = F->execute(Schedule);
      }
      Value RootValue;
      Ok = Ok && F->evalGround("root", RootValue);
      if (Ok) {
        recordRun(Rec, F->lastRun(), TuplesBefore, UnionsBefore);
        Rec.raise("egraph.approx_mb",
                  double(F->graph().approxBytes()) / (1 << 20));
        uint64_t RowsBefore = F->graph().extractIndex().stats().RowsConsidered;
        std::vector<ExtractedTerm> Variants;
        {
          Span S(Rec, "extract", Role::None, "extract.s");
          Variants = extractVariants(F->graph(), RootValue, MaxCandidates);
        }
        Rec.add("extract.rows_considered",
                double(F->graph().extractIndex().stats().RowsConsidered -
                       RowsBefore));
        for (const ExtractedTerm &V : Variants) {
          ExprPtr Candidate = parseEgglogTerm(V.Text);
          if (!Candidate)
            continue;
          Rec.add("herbie.candidates", 1);
          Span S(Rec, "herbie.eval");
          double Error = averageError(*Candidate, Sampled);
          if (Error < BestError) {
            BestError = Error;
            Best = toSurface(*Candidate);
          }
        }
        Rec.add("herbie.error_bits", BestError / herbieSuite().size());
      }
    }
    if (!Ok)
      ++Rec.round().Failed;
    else
      check(C, Index, Bench, Best);
    WorkScope Work(Rec);
    F.reset();
  }

  void check(Checks &C, size_t Index, const Benchmark &Bench,
             const std::string &Best) {
    std::string Where = "herbie benchmark " + Bench.Name + ": chose " + Best +
                        " for " + Bench.Expr + ": ";
    std::unique_ptr<oracle::RealExpr> Input = oracle::parseRealExpr(Bench.Expr);
    std::unique_ptr<oracle::RealExpr> Chosen = oracle::parseRealExpr(Best);
    if (!Input || !Chosen) {
      C.fail(Where + "does not parse");
      return;
    }
    std::vector<std::tuple<std::string, double, double>> Ranges;
    for (const VarRange &R : Bench.Ranges)
      Ranges.emplace_back(R.Name, R.Lo, R.Hi);
    std::vector<oracle::RealPoint> Points = oracle::freshPoints(
        *Input, Ranges, FreshPoints, (Seed << 16) ^ (Index + 0x9e37));
    oracle::RealComparison Cmp = oracle::compareReal(*Chosen, *Input, Points);
    if (!Cmp.Agrees)
      C.fail(Where + "disagrees with the input: " + Cmp.Why);
    else if (Cmp.CandidateErrorBits > Cmp.InputErrorBits + ErrorSlackBits)
      C.fail(Where + "has " + std::to_string(Cmp.CandidateErrorBits) +
             " bits of error at fresh points, the input " +
             std::to_string(Cmp.InputErrorBits));
  }
};

} // namespace

std::unique_ptr<Workload> perfbench::makeHerbie(const WorkloadOptions &Options) {
  return std::make_unique<Herbie>(Options);
}
