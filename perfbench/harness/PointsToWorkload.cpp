//===- perfbench/harness/PointsToWorkload.cpp - Fig. 8 workload -----------===//
//
// Part of the egglog-cpp benchmark harness.
//
// The Fig. 8 native Steensgaard encoding over the 30-program synthetic
// postgres suite. One operation is one program: declare the encoding, load
// its facts, solve cold, save a snapshot, load it into a fresh frontend,
// re-declare the rules and solve again (the warm start).
//
// The seed relabels every program: variables and base allocations are
// permuted and each fact list is shuffled. The relabeled programs are
// isomorphic to the suite's, so every seed does the same amount of
// analysis work while the engine sees different ids in a different order.
//
// Checks: each program's partition of variables and allocations equals
// the oracle's union-find solver; the warm re-solve reaches the cold
// solve's liveContentHash and adds no tuple.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Oracles.h"

#include "core/Frontend.h"
#include "core/Snapshot.h"
#include "pointsto/ProgramGenerator.h"

#include <algorithm>
#include <cstdio>
#include <random>
#include <sys/stat.h>
#include <unordered_map>

using namespace egglog;
using namespace perfbench;

namespace {

/// Suite scale: the largest program (ecpg) has ~18.4k facts and solves in
/// about a second.
constexpr double SuiteScale = 0.5;

const char *Schema = R"(
  (sort Obj)
  (relation allocR (i64 i64))
  (relation copyR (i64 i64))
  (relation loadR (i64 i64))
  (relation storeR (i64 i64))
  (relation gepR (i64 i64 i64))
  (relation fieldAllocR (i64 i64 i64))
  (function objOf (i64) Obj)
  (function vpt (i64) Obj)
  (function contents (Obj) Obj)
)";

/// Rules are engine state, not snapshot content: the warm start declares
/// them again over the loaded database.
const char *Rules = R"(
  (rule ((allocR v a)) ((union (vpt v) (objOf a))))
  (rule ((copyR d s)) ((union (vpt d) (vpt s))))
  (rule ((loadR d s)) ((union (vpt d) (contents (vpt s)))))
  (rule ((storeR d s)) ((union (contents (vpt d)) (vpt s))))
  (rule ((gepR d b f) (fieldAllocR a f fa) (= (vpt b) (objOf a)))
        ((union (vpt d) (objOf fa))))
  (rule ((fieldAllocR a f fa) (fieldAllocR b f fb)
         (= (objOf a) (objOf b)))
        ((union (objOf fa) (objOf fb))))
)";

const char *Solve = "(run 1000000)";

/// Relabels \p P under a seeded permutation of variables and base
/// allocations and shuffles each fact list.
pointsto::Program relabel(const pointsto::Program &P, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::vector<uint32_t> VarMap(P.NumVars), AllocMap(P.NumBaseAllocs);
  for (uint32_t I = 0; I < P.NumVars; ++I)
    VarMap[I] = I;
  for (uint32_t I = 0; I < P.NumBaseAllocs; ++I)
    AllocMap[I] = I;
  std::shuffle(VarMap.begin(), VarMap.end(), Rng);
  std::shuffle(AllocMap.begin(), AllocMap.end(), Rng);

  pointsto::Program Q = P;
  for (auto &[V, A] : Q.Allocs) {
    V = VarMap[V];
    A = AllocMap[A];
  }
  for (auto *Pairs : {&Q.Copies, &Q.Loads, &Q.Stores})
    for (auto &[D, S] : *Pairs) {
      D = VarMap[D];
      S = VarMap[S];
    }
  for (auto &[D, B, F] : Q.Geps) {
    D = VarMap[D];
    B = VarMap[B];
  }
  std::shuffle(Q.Allocs.begin(), Q.Allocs.end(), Rng);
  std::shuffle(Q.Copies.begin(), Q.Copies.end(), Rng);
  std::shuffle(Q.Loads.begin(), Q.Loads.end(), Rng);
  std::shuffle(Q.Stores.begin(), Q.Stores.end(), Rng);
  std::shuffle(Q.Geps.begin(), Q.Geps.end(), Rng);
  return Q;
}

oracle::PointerFacts toFacts(const pointsto::Program &P) {
  oracle::PointerFacts F;
  F.NumVars = P.NumVars;
  F.NumBaseAllocs = P.NumBaseAllocs;
  F.NumFields = P.NumFields;
  F.Allocs = P.Allocs;
  F.Copies = P.Copies;
  F.Loads = P.Loads;
  F.Stores = P.Stores;
  F.Geps = P.Geps;
  return F;
}

FunctionId functionNamed(EGraph &G, const char *Name) {
  FunctionId Id = 0;
  G.lookupFunctionName(Name, Id);
  return Id;
}

/// Loads \p P's facts through EGraph::setValue; returns the rows loaded.
size_t loadFacts(EGraph &G, const pointsto::Program &P) {
  size_t Rows = 0;
  auto Fact = [&](FunctionId Rel, std::initializer_list<uint32_t> Keys) {
    Value Args[3];
    size_t N = 0;
    for (uint32_t K : Keys)
      Args[N++] = G.mkI64(K);
    G.setValue(Rel, Args, G.mkUnit());
    ++Rows;
  };
  FunctionId AllocR = functionNamed(G, "allocR"),
             CopyR = functionNamed(G, "copyR"),
             LoadR = functionNamed(G, "loadR"),
             StoreR = functionNamed(G, "storeR"),
             GepR = functionNamed(G, "gepR"),
             FieldAllocR = functionNamed(G, "fieldAllocR");
  for (auto [V, A] : P.Allocs)
    Fact(AllocR, {V, A});
  for (auto [D, S] : P.Copies)
    Fact(CopyR, {D, S});
  for (auto [D, S] : P.Loads)
    Fact(LoadR, {D, S});
  for (auto [D, S] : P.Stores)
    Fact(StoreR, {D, S});
  for (auto [D, B, F] : P.Geps)
    Fact(GepR, {D, B, F});
  for (uint32_t A = 0; A < P.NumBaseAllocs; ++A)
    for (uint32_t F = 0; F < P.NumFields; ++F)
      Fact(FieldAllocR, {A, F, P.fieldAlloc(A, F)});
  return Rows;
}

/// The engine's partition of variables (by vpt) and allocations (by
/// objOf), labeled by the smallest node of each class; nodes without an
/// entry are singletons.
std::vector<uint32_t> enginePartition(EGraph &G, const pointsto::Program &P) {
  FunctionId Vpt = functionNamed(G, "vpt"), ObjOf = functionNamed(G, "objOf");
  uint32_t NumNodes = P.NumVars + P.numAllAllocs();
  std::vector<uint32_t> Label(NumNodes);
  std::unordered_map<uint64_t, uint32_t> ClassMin;
  std::vector<int64_t> ClassOf(NumNodes, -1);
  for (uint32_t Node = 0; Node < NumNodes; ++Node) {
    bool IsVar = Node < P.NumVars;
    Value Key = G.mkI64(IsVar ? Node : Node - P.NumVars);
    std::optional<Value> Obj = G.lookup(IsVar ? Vpt : ObjOf, &Key);
    if (!Obj) {
      Label[Node] = Node;
      continue;
    }
    uint64_t Class = G.canonicalize(*Obj).Bits;
    ClassOf[Node] = static_cast<int64_t>(Class);
    ClassMin.emplace(Class, Node); // nodes ascend: the first is smallest
  }
  for (uint32_t Node = 0; Node < NumNodes; ++Node)
    if (ClassOf[Node] >= 0)
      Label[Node] = ClassMin[static_cast<uint64_t>(ClassOf[Node])];
  return Label;
}

size_t fileBytes(const std::string &Path) {
  struct stat St {};
  return stat(Path.c_str(), &St) == 0 ? static_cast<size_t>(St.st_size) : 0;
}

class PointsTo : public Workload {
public:
  explicit PointsTo(const WorkloadOptions &Options)
      : SnapshotPath(Options.WorkDir + "/pointsto.snap") {
    std::vector<pointsto::Program> Suite = pointsto::postgresSuite(SuiteScale);
    for (size_t I = 0; I < Suite.size(); ++I)
      Programs.push_back(
          relabel(Suite[I], Options.Seed * 1000003ULL + I + 1));
    Expected.resize(Programs.size());
  }

  void runRound(Recorder &Rec, Checks &C) override {
    for (size_t I = 0; I < Programs.size(); ++I)
      runProgram(Rec, C, I);
  }

private:
  std::vector<pointsto::Program> Programs;
  /// Oracle partitions, computed on first use (outside timed work).
  std::vector<std::vector<uint32_t>> Expected;
  std::string SnapshotPath;

  void runProgram(Recorder &Rec, Checks &C, size_t Index) {
    const pointsto::Program &P = Programs[Index];
    ++Rec.round().Attempted;
    std::unique_ptr<Frontend> Cold, Warm;
    bool Ok = true;
    size_t WarmTuplesBefore = 0;
    {
      WorkScope Work(Rec);
      Span Op(Rec, "op.program", Role::None, "");
      Cold = std::make_unique<Frontend>();
      Warm = std::make_unique<Frontend>();
      {
        Span S(Rec, "frontend.declare", Role::Setup);
        Ok = Cold->execute(Schema) && Cold->execute(Rules);
      }
      if (Ok) {
        Span S(Rec, "table.load", Role::Setup);
        Rec.add("table.rows_loaded", double(loadFacts(Cold->graph(), P)));
      }
      size_t TuplesBefore = Cold->graph().liveTupleCount();
      size_t UnionsBefore = Cold->graph().unionFind().unionCount();
      if (Ok) {
        Span S(Rec, "engine.run", Role::Solve, "");
        Ok = Cold->execute(Solve);
      }
      if (Ok) {
        recordRun(Rec, Cold->lastRun(), TuplesBefore, UnionsBefore);
        Rec.raise("egraph.approx_mb",
                  double(Cold->graph().approxBytes()) / (1 << 20));
        EggError Err;
        Span S(Rec, "snapshot.save");
        Ok = saveSnapshot(Cold->graph(), SnapshotPath, Err);
      }
      if (Ok) {
        EggError Err;
        Span S(Rec, "snapshot.load");
        Ok = loadSnapshot(Warm->graph(), SnapshotPath, Err);
        Warm->engine().noteExternalMutation();
      }
      if (Ok) {
        Span S(Rec, "frontend.declare");
        Ok = Warm->execute(Rules);
      }
      WarmTuplesBefore = Warm->graph().liveTupleCount();
      if (Ok) {
        Span S(Rec, "engine.warm_run", Role::Solve, "engine.warm_solve_s");
        Ok = Warm->execute(Solve);
      }
      if (Ok)
        Rec.add("engine.warm_matches",
                double(Warm->lastRun().totalMatches()));
    }
    if (!Ok) {
      ++Rec.round().Failed;
    } else {
      Rec.add("snapshot.bytes", double(fileBytes(SnapshotPath)));
      check(C, Index, *Cold, *Warm, WarmTuplesBefore);
    }
    std::remove(SnapshotPath.c_str());
    WorkScope Work(Rec);
    Cold.reset();
    Warm.reset();
  }

  void check(Checks &C, size_t Index, Frontend &Cold, Frontend &Warm,
             size_t WarmTuplesBefore) {
    const pointsto::Program &P = Programs[Index];
    std::string Where = "pointsto program " + P.Name + ": ";
    if (Expected[Index].empty())
      Expected[Index] = oracle::steensgaardPartition(toFacts(P));
    std::string Why;
    if (!oracle::samePartition(enginePartition(Cold.graph(), P),
                               Expected[Index], Why))
      C.fail(Where + "alias partition differs from the oracle: " + Why);
    if (Warm.graph().liveContentHash() != Cold.graph().liveContentHash())
      C.fail(Where + "warm re-solve reached a different liveContentHash");
    if (Warm.graph().liveTupleCount() != WarmTuplesBefore)
      C.fail(Where + "warm re-solve added tuples");
  }
};

} // namespace

std::unique_ptr<Workload>
perfbench::makePointsTo(const WorkloadOptions &Options) {
  return std::make_unique<PointsTo>(Options);
}
