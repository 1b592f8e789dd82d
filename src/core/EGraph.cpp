//===- core/EGraph.cpp - The egglog database -------------------------------===//
//
// Part of egglog-cpp. See EGraph.h for an overview.
//
//===----------------------------------------------------------------------===//

#include "core/EGraph.h"

#include "core/ApplyStage.h"
#include "core/Extract.h"
#include "support/FailPoints.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>

using namespace egglog;

namespace {

/// Pops a scratch-stack frame on scope exit, whatever the return path.
struct ScratchFrame {
  std::vector<Value> &Stack;
  size_t Base;

  ScratchFrame(std::vector<Value> &Stack) : Stack(Stack), Base(Stack.size()) {}
  ~ScratchFrame() { Stack.resize(Base); }
  /// First value of the frame. Recomputed from the base index on each call
  /// because nested frames can reallocate the stack.
  Value *data() { return Stack.data() + Base; }
};

} // namespace

EGraph::EGraph() { registerBuiltinPrimitives(Prims); }

// Out of line: ExtractIndex is incomplete in the header.
EGraph::~EGraph() = default;

ExtractIndex &EGraph::extractIndex() {
  if (!ExtractIdx) {
    // The index folds merges from the union-find's log; recording starts
    // here (earlier merges are covered by the initial scratch rebuild).
    UF.enableMergeLog();
    ExtractIdx = std::make_unique<ExtractIndex>();
  }
  return *ExtractIdx;
}

//===----------------------------------------------------------------------===
// Sorts and functions
//===----------------------------------------------------------------------===

SortId EGraph::declareSort(const std::string &Name) {
  return SortsTable.declareUserSort(Name);
}

SortId EGraph::declareSetSort(const std::string &Name, SortId Element) {
  SortId Id = SortsTable.declareSetSort(Name, Element);
  registerSetPrimitives(Id);
  return Id;
}

FunctionId EGraph::declareFunction(FunctionDecl Decl) {
  EGGLOG_FAILPOINT("egraph.declare");
  assert(FunctionNames.find(Decl.Name) == FunctionNames.end() &&
         "function redeclared");
  // Negative costs would make the extraction fixpoint non-monotone (and
  // defeat saturatingAdd's overflow guard); the frontend rejects them with
  // a diagnostic, this is the API-level backstop.
  assert(Decl.Cost >= 0 && "negative extraction cost");
  FunctionId Id = static_cast<FunctionId>(Functions.size());
  auto Info = std::make_unique<FunctionInfo>();
  Info->Storage = std::make_unique<Table>(Decl.ArgSorts.size());
  Info->Decl = std::move(Decl);

  // Classify columns for the incremental rebuild: id-sort columns feed the
  // table's occurrence index; container columns that (transitively) reach
  // an id sort can hide merged ids from it and force the sweep fallback.
  // Columns of immutable base values need neither.
  std::vector<unsigned> IdCols;
  unsigned NumKeys = Info->Decl.ArgSorts.size();
  for (unsigned I = 0; I <= NumKeys; ++I) {
    SortId S = I < NumKeys ? Info->Decl.ArgSorts[I] : Info->Decl.OutSort;
    if (SortsTable.isIdSort(S)) {
      IdCols.push_back(I);
      continue;
    }
    while (SortsTable.kind(S) == SortKind::Set)
      S = SortsTable.info(S).Element;
    if (SortsTable.isIdSort(S))
      Info->NeedsFullSweep = true;
  }
  Info->Storage->setIdColumns(std::move(IdCols));

  FunctionNames.emplace(Info->Decl.Name, Id);
  Functions.push_back(std::move(Info));
  return Id;
}

bool EGraph::lookupFunctionName(const std::string &Name,
                                FunctionId &Out) const {
  auto It = FunctionNames.find(Name);
  if (It == FunctionNames.end())
    return false;
  Out = It->second;
  return true;
}

//===----------------------------------------------------------------------===
// Value construction
//===----------------------------------------------------------------------===

Value EGraph::mkF64(double D) const {
  return Value(SortTable::F64Sort, std::bit_cast<uint64_t>(D));
}

double EGraph::valueToF64(Value V) const {
  return std::bit_cast<double>(V.Bits);
}

Value EGraph::mkString(const std::string &S) {
  return Value(SortTable::StringSort, Strings.intern(S));
}

const std::string &EGraph::valueToString(Value V) const {
  return Strings.lookup(static_cast<uint32_t>(V.Bits));
}

Value EGraph::mkRational(const Rational &R) {
  return Value(SortTable::RationalSort, Rationals.intern(R));
}

const Rational &EGraph::valueToRational(Value V) const {
  return Rationals.lookup(static_cast<uint32_t>(V.Bits));
}

Value EGraph::mkSet(SortId SetSort, std::vector<Value> Elements) {
  assert(SortsTable.kind(SetSort) == SortKind::Set && "not a set sort");
  for (Value &Element : Elements)
    Element = canonicalize(Element);
  std::sort(Elements.begin(), Elements.end());
  Elements.erase(std::unique(Elements.begin(), Elements.end()),
                 Elements.end());
  return Value(SetSort, Sets.intern(Elements));
}

uint32_t EGraph::internSetElements(std::vector<Value> Elements) {
  assert(std::is_sorted(Elements.begin(), Elements.end()) &&
         "raw set elements must be pre-sorted");
  return Sets.intern(Elements);
}

const std::vector<Value> &EGraph::valueToSet(Value V) const {
  return Sets.lookup(static_cast<uint32_t>(V.Bits));
}

Value EGraph::freshId(SortId Sort) {
  assert(SortsTable.isIdSort(Sort) && "fresh id of a non-id sort");
  return Value(Sort, UF.makeSet());
}

//===----------------------------------------------------------------------===
// Canonicalization
//===----------------------------------------------------------------------===

Value EGraph::canonicalize(Value V) {
  switch (SortsTable.kind(V.Sort)) {
  case SortKind::User:
    return Value(V.Sort, UF.find(V.Bits));
  case SortKind::Set: {
    const std::vector<Value> &Elements = valueToSet(V);
    bool Dirty = false;
    for (const Value &Element : Elements) {
      if (canonicalize(Element) != Element) {
        Dirty = true;
        break;
      }
    }
    if (!Dirty)
      return V;
    return mkSet(V.Sort, Elements);
  }
  default:
    return V;
  }
}

bool EGraph::canonicalizeRow(Value *Row, unsigned Width) {
  bool Changed = false;
  for (unsigned I = 0; I < Width; ++I) {
    Value Canonical = canonicalize(Row[I]);
    if (Canonical != Row[I]) {
      Row[I] = Canonical;
      Changed = true;
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===
// Database operations
//===----------------------------------------------------------------------===

std::optional<Value> EGraph::lookup(FunctionId Func, const Value *Args) {
  FunctionInfo &Info = *Functions[Func];
  unsigned NumKeys = Info.numKeys();
  ScratchFrame Canonical(KeyScratch);
  KeyScratch.insert(KeyScratch.end(), Args, Args + NumKeys);
  canonicalizeRow(Canonical.data(), NumKeys);
  return Info.Storage->lookup(Canonical.data());
}

bool EGraph::getOrCreate(FunctionId Func, const Value *Args, Value &Out) {
  FunctionInfo &Info = *Functions[Func];
  unsigned NumKeys = Info.numKeys();
  ScratchFrame Canonical(KeyScratch);
  KeyScratch.insert(KeyScratch.end(), Args, Args + NumKeys);
  canonicalizeRow(Canonical.data(), NumKeys);
  if (std::optional<Value> Existing = Info.Storage->lookup(Canonical.data())) {
    Out = *Existing;
    return true;
  }
  SortId OutSort = Info.Decl.OutSort;
  if (Info.Decl.DefaultExpr) {
    std::vector<Value> Env;
    if (!evalExpr(*Info.Decl.DefaultExpr, Env, Out, /*CreateTerms=*/true))
      return false;
    Out = canonicalize(Out);
  } else if (SortsTable.isIdSort(OutSort)) {
    Out = freshId(OutSort);
  } else if (SortsTable.kind(OutSort) == SortKind::Unit) {
    Out = mkUnit();
  } else {
    reportError("function '" + Info.Decl.Name +
                "' has no default for a missing entry");
    return false;
  }
  // Re-check: evaluating the default may have populated the entry (note
  // Canonical.data() is recomputed — nested frames may have reallocated).
  if (std::optional<Value> Existing = Info.Storage->lookup(Canonical.data())) {
    Out = *Existing;
    return true;
  }
  Info.Storage->insert(Canonical.data(), Out, Timestamp);
  return true;
}

bool EGraph::setValue(FunctionId Func, const Value *Args, Value Out) {
  FunctionInfo &Info = *Functions[Func];
  unsigned NumKeys = Info.numKeys();
  ScratchFrame Canonical(KeyScratch);
  KeyScratch.insert(KeyScratch.end(), Args, Args + NumKeys);
  canonicalizeRow(Canonical.data(), NumKeys);
  Out = canonicalize(Out);

  std::optional<Value> Existing = Info.Storage->lookup(Canonical.data());
  if (!Existing) {
    Info.Storage->insert(Canonical.data(), Out, Timestamp);
    return true;
  }
  Value Old = canonicalize(*Existing);
  if (Old == Out) {
    // Keep the stored copy canonical without creating a delta row.
    return true;
  }

  // Resolve the functional dependency violation via the merge semantics
  // (§3.2): a merge expression if declared, union for id sorts, and a hard
  // conflict otherwise.
  Value Merged;
  if (Info.Decl.MergeExpr) {
    MergeEnv.assign({Old, Out});
    if (!evalExpr(*Info.Decl.MergeExpr, MergeEnv, Merged,
                  /*CreateTerms=*/true))
      return false;
    Merged = canonicalize(Merged);
    // A merge expression over an id-sort output can reassign the key to a
    // different class without a union: the old association vanishes and a
    // class cost may rise, which the decrease-only extraction refresh
    // cannot track. (The default id merge below unions instead, which the
    // merge log covers.)
    if (ExtractIdx && Merged != Old && SortsTable.isIdSort(Info.Decl.OutSort))
      ExtractIdx->invalidate();
  } else if (SortsTable.isIdSort(Info.Decl.OutSort)) {
    Merged = unionValues(Old, Out);
  } else if (SortsTable.kind(Info.Decl.OutSort) == SortKind::Unit) {
    return true;
  } else {
    reportError("merge conflict on function '" + Info.Decl.Name +
                "' without a :merge expression");
    return false;
  }
  if (Merged != Old)
    Info.Storage->insert(Canonical.data(), Merged, Timestamp);
  return true;
}

Value EGraph::unionValues(Value A, Value B) {
  assert(A.Sort == B.Sort && "union of values of different sorts");
  assert(SortsTable.isIdSort(A.Sort) && "union of non-id values");
  uint64_t RootA = UF.find(A.Bits), RootB = UF.find(B.Bits);
  if (RootA == RootB)
    return Value(A.Sort, RootA);
  uint64_t Root = UF.unite(RootA, RootB);
  UnionsDirty = true;
  return Value(A.Sort, Root);
}

unsigned EGraph::rebuild() {
  return ForceFullRebuild ? rebuildFullSweep() : rebuildIncremental();
}

void EGraph::warm() {
  for (const auto &Info : Functions)
    Info->Storage->warmOccurrences();
}

bool EGraph::rewriteRow(FunctionId Func, size_t Row, std::vector<Value> &Buffer,
                        bool &Rewritten) {
  Table &T = *Functions[Func]->Storage;
  unsigned Width = T.rowWidth();
  Buffer.resize(Width);
  T.copyRow(Row, Buffer.data());
  if (!canonicalizeRow(Buffer.data(), Width))
    return true;
  // The row is stale: remove it and reinsert canonically (which may
  // trigger the merge expression on a collision).
  T.eraseRow(Row);
  Rewritten = true;
  return setValue(Func, Buffer.data(), Buffer[Width - 1]);
}

bool EGraph::rebuildTableIncremental(FunctionId Func,
                                     const std::vector<uint64_t> &Dirty,
                                     std::vector<uint32_t> &Rows,
                                     std::vector<Value> &Buffer,
                                     bool &TableRewritten) {
  FunctionInfo &Info = *Functions[Func];
  Table &T = *Info.Storage;
  if (!Info.NeedsFullSweep && !T.trackingOccurrences())
    return true; // rows hold only immutable values; unions cannot stale them
  // Bulk-sweep heuristic, two stages. First, the dirty set alone: a
  // merge storm touching a sizable fraction of the table is swept
  // without even bringing the occurrence index up to date (catch-up
  // itself costs a pass over the appended rows). Second, the precise
  // affected-row count (over-counted: chains may still hold dead
  // rows): per-id resolution wins only while the affected set is a
  // small fraction of the table. Either way a merge storm degrades to
  // the old full-rebuild behavior, never below it.
  bool Sweep = Info.NeedsFullSweep || Dirty.size() * 4 > T.liveCount();
  if (!Sweep) {
    size_t Affected = T.occurrenceCount(Dirty);
    if (Affected == 0)
      return true;
    Sweep = Affected * 4 > T.liveCount();
  }
  if (Sweep) {
    // The sweep visits every row, so the per-id lists for this drain
    // are dead weight: drop them (a consumed id never reappears).
    if (T.trackingOccurrences())
      for (uint64_t Id : Dirty)
        T.dropOccurrences(Id);
    size_t Limit = T.rowCount();
    for (size_t Row = 0; Row < Limit; ++Row) {
      if (!T.isLive(Row))
        continue;
      if (!governorCheckpoint("rebuild.row"))
        return false;
      bool RowRewritten = false;
      if (!rewriteRow(Func, Row, Buffer, RowRewritten))
        return false;
      if (RowRewritten)
        TableRewritten = true;
    }
  } else {
    for (uint64_t Id : Dirty) {
      Rows.clear();
      T.takeOccurrences(Id, Rows);
      for (uint32_t Row : Rows) {
        // A row can die mid-drain: another dirty id already rewrote
        // it, or a reinsertion collided with its key.
        if (!T.isLive(Row))
          continue;
        if (!governorCheckpoint("rebuild.row"))
          return false;
        bool RowRewritten = false;
        if (!rewriteRow(Func, Row, Buffer, RowRewritten))
          return false;
        if (RowRewritten)
          TableRewritten = true;
      }
    }
  }
  return true;
}

unsigned EGraph::rebuildIncremental() {
  unsigned Passes = 0;
  std::vector<uint64_t> Dirty;
  std::vector<uint32_t> Rows;
  std::vector<Value> Buffer;
  std::vector<bool> Rewritten(Functions.size(), false);
  // Fixpoint over the merge worklist: each pass drains the ids that lost
  // their canonical status, rewrites exactly the rows reaching them through
  // the occurrence indexes, and loops while those rewrites merge further
  // classes. Terminates because canonical ids only ever shrink (min-id
  // representatives).
  while (!Failed) {
    UF.takeDirty(Dirty);
    if (Dirty.empty())
      break;
    ++Passes;
    for (size_t F = 0; F < Functions.size(); ++F) {
      bool TableRewritten = false;
      bool Ok = rebuildTableIncremental(static_cast<FunctionId>(F), Dirty,
                                        Rows, Buffer, TableRewritten);
      if (TableRewritten)
        Rewritten[F] = true;
      if (!Ok)
        return Passes;
    }
  }
  UnionsDirty = false;
  sweepRewrittenIndexes(Rewritten);
  return Passes;
}

unsigned EGraph::rebuildParallel(ThreadPool &Pool, double *GatherSeconds) {
  if (ForceFullRebuild)
    return rebuildFullSweep();
  if (Pool.threads() <= 1)
    return rebuildIncremental();
  return rebuildIncrementalParallel(Pool, GatherSeconds);
}

unsigned EGraph::rebuildIncrementalParallel(ThreadPool &Pool,
                                            double *GatherSeconds) {
  unsigned Passes = 0;
  std::vector<uint64_t> Dirty;
  std::vector<uint32_t> Rows;
  std::vector<Value> Buffer;
  std::vector<bool> Rewritten(Functions.size(), false);

  /// One table's frozen gather: the rows the serial pass would visit, in
  /// its exact visit order, with the frozen canonical image of each stale
  /// row. Mode mirrors the serial heuristic's three outcomes.
  struct TableGather {
    enum class Mode : uint8_t { Untouched, PerId, Sweep } VisitMode =
        Mode::Untouched;
    bool Eligible = false;
    uint64_t VersionAtFreeze = 0;
    std::vector<uint32_t> VisitRows;
    /// Per visited row: UINT32_MAX if the row was canonical at the freeze,
    /// else the offset of its image in Images.
    std::vector<uint32_t> VisitImage;
    std::vector<Value> Images;
  };
  std::vector<TableGather> Gathers(Functions.size());

  // Same fixpoint as rebuildIncremental, but each pass front-loads two
  // read-only parallel phases — per-table occurrence catch-up and the
  // frozen-image gather — before the serial mutation tail.
  while (!Failed) {
    UF.takeDirty(Dirty);
    if (Dirty.empty())
      break;
    ++Passes;
    Timer Gather;

    // Occurrence catch-up, one table per work item (each table's index is
    // independent). The serial pass pays this lazily inside
    // occurrenceCount/takeOccurrences; hoisting it here is what lets the
    // gather below walk the chains read-only.
    std::vector<size_t> CatchUp;
    for (size_t F = 0; F < Functions.size(); ++F)
      if (Functions[F]->Storage->trackingOccurrences())
        CatchUp.push_back(F);
    Pool.parallelFor(
        CatchUp.size(),
        [&](size_t K) {
          EGGLOG_FAILPOINT("rebuild.occurrence");
          Functions[CatchUp[K]]->Storage->warmOccurrences();
        },
        "rebuild.catchup");

    // Gather: per eligible table, evaluate the sweep heuristic at the
    // frozen state and record the serial visit order with frozen canonical
    // images. Valid for the tail only while the table's version is
    // untouched — the version check re-validates both the heuristic inputs
    // (liveCount, chains) and the row set itself.
    std::atomic<bool> GatherStop{false};
    std::vector<size_t> GatherTables;
    for (size_t F = 0; F < Functions.size(); ++F) {
      FunctionInfo &Info = *Functions[F];
      Table &T = *Info.Storage;
      TableGather &TG = Gathers[F];
      TG.Eligible = false;
      TG.VisitMode = TableGather::Mode::Untouched;
      TG.VisitRows.clear();
      TG.VisitImage.clear();
      TG.Images.clear();
      // Container columns need the (mutating) set interner to
      // canonicalize; those tables take the serial fallback.
      if (Info.NeedsFullSweep || !T.trackingOccurrences())
        continue;
      TG.Eligible = true;
      TG.VersionAtFreeze = T.version();
      GatherTables.push_back(F);
    }
    Pool.parallelFor(
        GatherTables.size(),
        [&](size_t K) {
          size_t F = GatherTables[K];
          const Table &T = *Functions[F]->Storage;
          TableGather &TG = Gathers[F];
          unsigned Width = T.rowWidth();
          bool Sweep = Dirty.size() * 4 > T.liveCount();
          if (!Sweep) {
            size_t Affected = T.occurrenceCountReadOnly(Dirty);
            if (Affected == 0)
              return; // serial would skip without touching the chains
            Sweep = Affected * 4 > T.liveCount();
          }
          TG.VisitMode =
              Sweep ? TableGather::Mode::Sweep : TableGather::Mode::PerId;
          uint32_t PollTick = 0;
          std::vector<Value> Image(Width);
          // The gather phase is read-only, so the column base pointers are
          // stable for its whole duration: per-cell reads are direct
          // column-array loads.
          std::vector<const Value *> Cols(Width);
          for (unsigned I = 0; I < Width; ++I)
            Cols[I] = T.column(I);
          auto Visit = [&](size_t Row) {
            EGGLOG_FAILPOINT("rebuild.occurrence");
            if ((PollTick++ & 63) == 0 &&
                Gov.pollQuick() != GovernorVerdict::Ok) {
              GatherStop.store(true, std::memory_order_relaxed);
              return false;
            }
            bool Stale = false;
            for (unsigned I = 0; I < Width; ++I) {
              Value Cell = Cols[I][Row];
              Value V = Cell;
              // findReadOnly never writes; eligible tables hold no
              // container cells reaching ids, so canonicalization is the
              // union-find lookup alone.
              if (SortsTable.kind(V.Sort) == SortKind::User)
                V = Value(V.Sort, UF.findReadOnly(V.Bits));
              Image[I] = V;
              Stale |= V != Cell;
            }
            TG.VisitRows.push_back(static_cast<uint32_t>(Row));
            if (!Stale) {
              TG.VisitImage.push_back(UINT32_MAX);
            } else {
              TG.VisitImage.push_back(
                  static_cast<uint32_t>(TG.Images.size()));
              TG.Images.insert(TG.Images.end(), Image.begin(), Image.end());
            }
            return true;
          };
          if (Sweep) {
            size_t Limit = T.rowCount();
            for (size_t Row = 0; Row < Limit; ++Row) {
              if (!T.isLive(Row))
                continue;
              if (!Visit(Row))
                return;
            }
          } else {
            std::vector<uint32_t> ChainRows;
            for (uint64_t Id : Dirty) {
              ChainRows.clear();
              T.readOccurrences(Id, ChainRows);
              for (uint32_t Row : ChainRows)
                if (!Visit(Row))
                  return;
            }
          }
        },
        "rebuild.gather");
    if (GatherSeconds)
      *GatherSeconds += Gather.seconds();

    if (GatherStop.load(std::memory_order_relaxed)) {
      // A quick-poll trip mid-gather: the full poll reports the error and
      // the pass stops exactly like a refused serial checkpoint. (The
      // full poll subsumes the quick checks, so the defensive fallback —
      // dropping every gather and going serial — should be unreachable.)
      if (governorTripped())
        return Passes;
      for (TableGather &TG : Gathers)
        TG.Eligible = false;
    }

    // Serial mutation tail, tables in declaration order. An id staged as
    // canonical in a frozen image stays canonical until it loses a unite,
    // which appends it to the union-find's pending dirty list — the
    // cursor PassDirty keeps over that list is what re-validates frozen
    // images against the tail's own merges.
    PhaseDirty PassDirty(UF);
    for (size_t F = 0; F < Functions.size(); ++F) {
      FunctionId Func = static_cast<FunctionId>(F);
      FunctionInfo &Info = *Functions[F];
      Table &T = *Info.Storage;
      TableGather &TG = Gathers[F];
      bool TableRewritten = false;
      bool UseGather = TG.Eligible && T.version() == TG.VersionAtFreeze;
      if (!UseGather) {
        // Earlier tables' merge expressions touched this table (or it was
        // never gathered): recompute everything at the current state, on
        // the exact serial path.
        bool Ok = rebuildTableIncremental(Func, Dirty, Rows, Buffer,
                                          TableRewritten);
        if (TableRewritten)
          Rewritten[F] = true;
        if (!Ok)
          return Passes;
        continue;
      }
      if (TG.VisitMode == TableGather::Mode::Untouched)
        continue; // no dirty id reaches this table; serial skips it too
      unsigned Width = T.rowWidth();
      for (size_t V = 0; V < TG.VisitRows.size(); ++V) {
        size_t Row = TG.VisitRows[V];
        // Rows visited live at the freeze can die during the tail (an
        // earlier dirty id's rewrite, or a key collision); the serial
        // drain skips those at the same point.
        if (!T.isLive(Row))
          continue;
        if (!governorCheckpoint("rebuild.row")) {
          if (TableRewritten)
            Rewritten[F] = true;
          return Passes;
        }
        PassDirty.absorb();
        uint32_t Img = TG.VisitImage[V];
        // The tail mutates tables (appends can reallocate columns), so
        // rows without a frozen image are read cell-by-cell, not through a
        // cached pointer.
        const Value *ImageCells =
            Img == UINT32_MAX ? nullptr : TG.Images.data() + Img;
        bool CellDirty = false;
        for (unsigned I = 0; I < Width; ++I) {
          Value C = ImageCells ? ImageCells[I] : T.cell(Row, I);
          if (SortsTable.kind(C.Sort) == SortKind::User &&
              PassDirty.dirty(C.Bits)) {
            CellDirty = true;
            break;
          }
        }
        if (CellDirty) {
          // A frozen-image id lost a unite since the freeze: the image is
          // stale, recompute at the current state (serial-exact).
          if (!rewriteRow(Func, Row, Buffer, TableRewritten)) {
            if (TableRewritten)
              Rewritten[F] = true;
            return Passes;
          }
          continue;
        }
        if (Img == UINT32_MAX)
          continue; // canonical at the freeze and untouched since
        // Stale at the freeze with a still-valid image: exactly
        // rewriteRow's mutation, minus recomputing the canonicalization.
        T.eraseRow(Row);
        TableRewritten = true;
        if (!setValue(Func, ImageCells, ImageCells[Width - 1])) {
          Rewritten[F] = true;
          return Passes;
        }
      }
      // Detach the consumed chains as the serial drain does (sweep mode
      // drops them up front; per-id mode detaches inside takeOccurrences).
      for (uint64_t Id : Dirty)
        T.dropOccurrences(Id);
      if (TableRewritten)
        Rewritten[F] = true;
    }
  }
  UnionsDirty = false;
  sweepRewrittenIndexes(Rewritten);
  return Passes;
}

unsigned EGraph::rebuildFullSweep() {
  unsigned Passes = 0;
  std::vector<Value> Buffer;
  std::vector<bool> Rewritten(Functions.size(), false);
  bool Changed = true;
  while (Changed && !Failed) {
    Changed = false;
    ++Passes;
    for (size_t F = 0; F < Functions.size(); ++F) {
      Table &T = *Functions[F]->Storage;
      size_t Limit = T.rowCount();
      for (size_t Row = 0; Row < Limit; ++Row) {
        if (!T.isLive(Row))
          continue;
        if (!governorCheckpoint("rebuild.row"))
          return Passes;
        bool RowRewritten = false;
        if (!rewriteRow(static_cast<FunctionId>(F), Row, Buffer,
                        RowRewritten))
          return Passes;
        if (RowRewritten) {
          Changed = true;
          Rewritten[F] = true;
        }
      }
    }
  }
  // The sweep restored canonicity without consulting the worklist; drop it
  // so a later incremental rebuild does not reprocess applied merges.
  UF.clearDirty();
  UnionsDirty = false;
  sweepRewrittenIndexes(Rewritten);
  return Passes;
}

void EGraph::sweepRewrittenIndexes(const std::vector<bool> &Rewritten) {
  // Stamp-partition indexes are dropped only for tables that actually had
  // rows rewritten; untouched tables keep their entries, which re-validate
  // lazily against version() on next use. The All indexes always stay for
  // incremental refresh.
  for (size_t F = 0; F < Rewritten.size(); ++F) {
    Table &T = *Functions[F]->Storage;
    if (Rewritten[F] && T.hasIndexCache())
      T.indexes().sweepStale();
  }
}

//===----------------------------------------------------------------------===
// Expression and action evaluation
//===----------------------------------------------------------------------===

bool EGraph::evalExpr(const TypedExpr &Expr, const std::vector<Value> &Env,
                      Value &Out, bool CreateTerms) {
  switch (Expr.ExprKind) {
  case TypedExpr::Kind::Var:
    assert(Expr.Index < Env.size() && "unbound variable slot");
    Out = Env[Expr.Index];
    return true;
  case TypedExpr::Kind::Lit:
    Out = Expr.Literal;
    return true;
  case TypedExpr::Kind::PrimCall: {
    // Arguments are evaluated into a frame of the shared scratch stack
    // (this runs inside every action and merge expression on the rebuild
    // hot path; a per-call std::vector was a measurable allocation cost).
    // Recursion pushes nested frames above this one, so cells are
    // re-addressed by index after every nested eval.
    ScratchFrame Args(EvalScratch);
    EvalScratch.resize(Args.Base + Expr.Args.size());
    for (size_t I = 0; I < Expr.Args.size(); ++I) {
      Value V;
      if (!evalExpr(Expr.Args[I], Env, V, CreateTerms))
        return false;
      EvalScratch[Args.Base + I] = V;
    }
    return Prims.get(Expr.Index).Apply(*this, Args.data(), Out);
  }
  case TypedExpr::Kind::FuncCall: {
    ScratchFrame Args(EvalScratch);
    EvalScratch.resize(Args.Base + Expr.Args.size());
    for (size_t I = 0; I < Expr.Args.size(); ++I) {
      Value V;
      if (!evalExpr(Expr.Args[I], Env, V, CreateTerms))
        return false;
      EvalScratch[Args.Base + I] = V;
    }
    if (CreateTerms)
      return getOrCreate(Expr.Index, Args.data(), Out);
    std::optional<Value> Existing = lookup(Expr.Index, Args.data());
    if (!Existing)
      return false;
    Out = canonicalize(*Existing);
    return true;
  }
  }
  return false;
}

bool EGraph::runActions(const std::vector<Action> &Actions,
                        std::vector<Value> &Env) {
  for (const Action &Act : Actions) {
    switch (Act.ActKind) {
    case Action::Kind::Let: {
      Value Result;
      if (!evalExpr(Act.Expr, Env, Result))
        return false;
      assert(Act.Var < Env.size() && "let target out of range");
      Env[Act.Var] = Result;
      break;
    }
    case Action::Kind::Set: {
      ScratchFrame Args(EvalScratch);
      EvalScratch.resize(Args.Base + Act.Args.size());
      for (size_t I = 0; I < Act.Args.size(); ++I) {
        Value V;
        if (!evalExpr(Act.Args[I], Env, V))
          return false;
        EvalScratch[Args.Base + I] = V;
      }
      Value Result;
      if (!evalExpr(Act.Expr, Env, Result))
        return false;
      if (!setValue(Act.Func, Args.data(), Result))
        return false;
      break;
    }
    case Action::Kind::Union: {
      Value Lhs, Rhs;
      if (!evalExpr(Act.Expr, Env, Lhs) || !evalExpr(Act.Expr2, Env, Rhs))
        return false;
      unionValues(Lhs, Rhs);
      break;
    }
    case Action::Kind::Panic:
      reportError("panic: " + Act.Message);
      return false;
    case Action::Kind::Eval: {
      Value Ignored;
      if (!evalExpr(Act.Expr, Env, Ignored))
        return false;
      break;
    }
    case Action::Kind::Delete: {
      ScratchFrame Args(EvalScratch);
      EvalScratch.resize(Args.Base + Act.Args.size());
      for (size_t I = 0; I < Act.Args.size(); ++I) {
        Value V;
        if (!evalExpr(Act.Args[I], Env, V))
          return false;
        EvalScratch[Args.Base + I] = V;
      }
      canonicalizeRow(Args.data(), Act.Args.size());
      Value Dummy;
      bool Erased = Functions[Act.Func]->Storage->erase(
          Act.Args.empty() ? &Dummy : Args.data());
      // Deleting a term entry can raise its class's extraction cost; the
      // decrease-only incremental refresh cannot model that. A no-op
      // delete (key already absent) changes nothing and stays warm.
      if (Erased && ExtractIdx &&
          SortsTable.isIdSort(Functions[Act.Func]->Decl.OutSort))
        ExtractIdx->invalidate();
      break;
    }
    }
  }
  return true;
}

bool EGraph::checkFact(const CheckFact &Fact) {
  std::vector<Value> Env;
  switch (Fact.FactKind) {
  case CheckFact::Kind::Present: {
    Value Ignored;
    return evalExpr(Fact.Lhs, Env, Ignored, /*CreateTerms=*/false);
  }
  case CheckFact::Kind::Equal: {
    Value Lhs, Rhs;
    if (!evalExpr(Fact.Lhs, Env, Lhs, /*CreateTerms=*/false) ||
        !evalExpr(Fact.Rhs, Env, Rhs, /*CreateTerms=*/false))
      return false;
    return valueEqual(Lhs, Rhs);
  }
  case CheckFact::Kind::NotEqual: {
    Value Lhs, Rhs;
    if (!evalExpr(Fact.Lhs, Env, Lhs, /*CreateTerms=*/false) ||
        !evalExpr(Fact.Rhs, Env, Rhs, /*CreateTerms=*/false))
      return false;
    return !valueEqual(Lhs, Rhs);
  }
  }
  return false;
}

size_t EGraph::liveTupleCount() const {
  size_t Total = 0;
  for (const auto &Info : Functions)
    Total += Info->Storage->liveCount();
  return Total;
}

uint64_t EGraph::liveContentHash() const {
  uint64_t Total = 0;
  std::vector<const Value *> Cols;
  for (size_t F = 0; F < Functions.size(); ++F) {
    const Table &T = *Functions[F]->Storage;
    unsigned Width = T.rowWidth();
    Cols.resize(Width);
    for (unsigned I = 0; I < Width; ++I)
      Cols[I] = T.column(I);
    for (size_t Row : T.liveRows()) {
      uint64_t RowHash = hashMix(F + 0x9E3779B97F4A7C15ull);
      for (unsigned I = 0; I < Width; ++I)
        RowHash = hashCombine(RowHash, Cols[I][Row].hash());
      // Sum keeps the accumulator order-independent across rows.
      Total += RowHash;
    }
  }
  return Total;
}

IndexCache::Stats EGraph::indexStats() const {
  IndexCache::Stats Total;
  for (const auto &Info : Functions) {
    const IndexCache::Stats &S = Info->Storage->indexes().stats();
    Total.Hits += S.Hits;
    Total.Builds += S.Builds;
    Total.Refreshes += S.Refreshes;
    Total.Derivations += S.Derivations;
  }
  return Total;
}

void EGraph::invalidateIndexes() {
  for (const auto &Info : Functions)
    Info->Storage->indexes().invalidate();
}

//===----------------------------------------------------------------------===
// Push/pop contexts
//===----------------------------------------------------------------------===

EGraph::Snapshot EGraph::snapshot() const {
  Snapshot S;
  S.UF = UF.snapshot();
  S.Tables.reserve(Functions.size());
  for (const auto &Info : Functions)
    S.Tables.push_back(Info->Storage->snapshot());
  S.NumSorts = SortsTable.size();
  S.NumFunctions = Functions.size();
  S.NumPrims = Prims.size();
  S.Timestamp = Timestamp;
  S.UnionsDirty = UnionsDirty;
  return S;
}

void EGraph::restore(const Snapshot &S) {
  assert(S.NumFunctions <= Functions.size() &&
         S.NumFunctions == S.Tables.size() &&
         "snapshot is from a different database");
  // Drop declarations made since the snapshot (newest first).
  for (size_t F = Functions.size(); F > S.NumFunctions; --F) {
    FunctionNames.erase(Functions[F - 1]->Decl.Name);
    Functions.pop_back();
  }
  SortsTable.truncate(S.NumSorts);
  Prims.truncate(S.NumPrims);

  for (size_t F = 0; F < S.NumFunctions; ++F)
    Functions[F]->Storage->restore(S.Tables[F]);
  UF.restore(S.UF);
  Timestamp = S.Timestamp;
  UnionsDirty = S.UnionsDirty;
  // Restore resurrects killed rows and truncates appended ones, breaking
  // the append-only/decrease-only assumptions of the extraction cache.
  if (ExtractIdx)
    ExtractIdx->invalidate();
  clearError();
}

//===----------------------------------------------------------------------===
// Command transactions
//===----------------------------------------------------------------------===

EGraph::TxnMark EGraph::txnBegin() {
  assert(!InTxn && "nested command transactions are not supported");
  InTxn = true;
  TxnMark M;
  M.UF = UF.txnBegin();
  M.Tables.reserve(Functions.size());
  for (const auto &Info : Functions)
    M.Tables.push_back(Info->Storage->txnMark());
  M.NumSorts = SortsTable.size();
  M.NumFunctions = Functions.size();
  M.NumPrims = Prims.size();
  M.Timestamp = Timestamp;
  M.UnionsDirty = UnionsDirty;
  return M;
}

void EGraph::adoptContent(std::vector<std::unique_ptr<Table>> NewTables,
                          std::vector<uint64_t> UFParents,
                          std::vector<uint64_t> UFDirty, uint64_t UnionCount,
                          uint32_t NewTimestamp,
                          bool NewUnionsDirty) noexcept {
  assert(NewTables.size() == Functions.size() &&
         "adoptContent needs one staged table per declared function");
  for (size_t F = 0; F < Functions.size(); ++F)
    Functions[F]->Storage = std::move(NewTables[F]);
  UF.adopt(std::move(UFParents), std::move(UFDirty), UnionCount);
  Timestamp = NewTimestamp;
  UnionsDirty = NewUnionsDirty;
  // The staged tables carry none of the old tables' index or extraction
  // state; consumers rebuild from scratch against the adopted content.
  if (ExtractIdx)
    ExtractIdx->invalidate();
  clearError();
}

void EGraph::txnCommit() {
  assert(InTxn && "txnCommit without an open transaction");
  InTxn = false;
  UF.txnCommit();
}

void EGraph::txnRollback(const TxnMark &M) {
  assert(InTxn && "txnRollback without an open transaction");
  InTxn = false;
  // Drop declarations made by the failed command (newest first), exactly as
  // restore() does for popped contexts.
  for (size_t F = Functions.size(); F > M.NumFunctions; --F) {
    FunctionNames.erase(Functions[F - 1]->Decl.Name);
    Functions.pop_back();
  }
  SortsTable.truncate(M.NumSorts);
  Prims.truncate(M.NumPrims);
  for (size_t F = 0; F < M.NumFunctions; ++F)
    Functions[F]->Storage->rollbackTo(M.Tables[F]);
  UF.txnRollback(M.UF);
  Timestamp = M.Timestamp;
  UnionsDirty = M.UnionsDirty;
  // An injected fault or bad_alloc can unwind past live scratch frames;
  // the frames' destructors resize the stacks on the way out, but clear
  // them anyway so a missed frame cannot leak into the next command.
  EvalScratch.clear();
  KeyScratch.clear();
  MergeEnv.clear();
  // Rollback resurrects killed rows and truncates appended ones; the
  // extraction cache's decrease-only refresh cannot model either.
  if (ExtractIdx)
    ExtractIdx->invalidate();
  clearError();
}

//===----------------------------------------------------------------------===
// Resource governance
//===----------------------------------------------------------------------===

size_t EGraph::approxBytes() const {
  size_t Total = UF.approxBytes();
  for (const auto &Info : Functions)
    Total += Info->Storage->approxBytes();
  return Total;
}

bool EGraph::governorTripped(size_t TransientBytes) {
  if (Failed)
    return true;
  if (!Gov.anyLimitSet())
    return false;
  switch (Gov.poll(liveTupleCount(), approxBytes() + TransientBytes)) {
  case GovernorVerdict::Ok:
    return false;
  case GovernorVerdict::Timeout:
    reportError(ErrKind::Limit,
                "resource limit: wall-clock timeout of " +
                    std::to_string(Gov.timeout()) + "s exceeded");
    return true;
  case GovernorVerdict::NodeLimit:
    reportError(ErrKind::Limit,
                "resource limit: live tuple ceiling of " +
                    std::to_string(Gov.maxLive()) + " exceeded");
    return true;
  case GovernorVerdict::MemoryLimit:
    reportError(ErrKind::Limit,
                "resource limit: memory ceiling of " +
                    std::to_string(Gov.maxBytes() >> 20) + " MB exceeded");
    return true;
  case GovernorVerdict::Cancelled:
    reportError(ErrKind::Cancelled, "cancelled by request");
    return true;
  }
  return false;
}

bool EGraph::governorCheckpoint(const char *Site) {
  (void)Site; // only the failpoint macro consumes it in test builds
  if (Failed)
    return false;
  if (CheckpointBudget > 0) {
    --CheckpointBudget;
    return true;
  }
  CheckpointBudget = Gov.checkpointInterval() - 1;
  EGGLOG_FAILPOINT(Site);
  return !governorTripped();
}

//===----------------------------------------------------------------------===
// Set primitives
//===----------------------------------------------------------------------===

void EGraph::registerSetPrimitives(SortId SetSort) {
  SortId Element = SortsTable.info(SetSort).Element;
  auto SetOf = [SetSort](std::vector<Value> Elements, EGraph &G) {
    return G.mkSet(SetSort, std::move(Elements));
  };

  Prims.add(Primitive{"set-empty", {}, SetSort,
                      [SetOf](EGraph &G, const Value *, Value &Out) {
                        Out = SetOf({}, G);
                        return true;
                      }});
  Prims.add(Primitive{"set-singleton",
                      {Element},
                      SetSort,
                      [SetOf](EGraph &G, const Value *Args, Value &Out) {
                        Out = SetOf({Args[0]}, G);
                        return true;
                      }});
  Prims.add(Primitive{"set-insert",
                      {SetSort, Element},
                      SetSort,
                      [SetOf](EGraph &G, const Value *Args, Value &Out) {
                        std::vector<Value> Elements = G.valueToSet(Args[0]);
                        Elements.push_back(Args[1]);
                        Out = SetOf(std::move(Elements), G);
                        return true;
                      }});
  Prims.add(Primitive{"set-remove",
                      {SetSort, Element},
                      SetSort,
                      [SetOf](EGraph &G, const Value *Args, Value &Out) {
                        std::vector<Value> Elements;
                        Value Needle = G.canonicalize(Args[1]);
                        for (Value V : G.valueToSet(G.canonicalize(Args[0])))
                          if (G.canonicalize(V) != Needle)
                            Elements.push_back(V);
                        Out = SetOf(std::move(Elements), G);
                        return true;
                      }});
  Prims.add(Primitive{"set-union",
                      {SetSort, SetSort},
                      SetSort,
                      [SetOf](EGraph &G, const Value *Args, Value &Out) {
                        std::vector<Value> Elements = G.valueToSet(Args[0]);
                        const std::vector<Value> &Other = G.valueToSet(Args[1]);
                        Elements.insert(Elements.end(), Other.begin(),
                                        Other.end());
                        Out = SetOf(std::move(Elements), G);
                        return true;
                      }});
  Prims.add(Primitive{"set-intersect",
                      {SetSort, SetSort},
                      SetSort,
                      [SetOf](EGraph &G, const Value *Args, Value &Out) {
                        Value A = G.canonicalize(Args[0]);
                        Value B = G.canonicalize(Args[1]);
                        const std::vector<Value> &Bs = G.valueToSet(B);
                        std::vector<Value> Elements;
                        for (Value V : G.valueToSet(A))
                          if (std::binary_search(Bs.begin(), Bs.end(), V))
                            Elements.push_back(V);
                        Out = SetOf(std::move(Elements), G);
                        return true;
                      }});
  Prims.add(Primitive{"set-contains",
                      {SetSort, Element},
                      SortTable::BoolSort,
                      [](EGraph &G, const Value *Args, Value &Out) {
                        Value A = G.canonicalize(Args[0]);
                        Value Needle = G.canonicalize(Args[1]);
                        const std::vector<Value> &Elements = G.valueToSet(A);
                        bool Found = std::binary_search(Elements.begin(),
                                                        Elements.end(), Needle);
                        Out = G.mkBool(Found);
                        return true;
                      }});
  Prims.add(Primitive{"set-not-contains",
                      {SetSort, Element},
                      SortTable::BoolSort,
                      [](EGraph &G, const Value *Args, Value &Out) {
                        Value A = G.canonicalize(Args[0]);
                        Value Needle = G.canonicalize(Args[1]);
                        const std::vector<Value> &Elements = G.valueToSet(A);
                        bool Found = std::binary_search(Elements.begin(),
                                                        Elements.end(), Needle);
                        Out = G.mkBool(!Found);
                        return true;
                      }});
  Prims.add(Primitive{"set-length",
                      {SetSort},
                      SortTable::I64Sort,
                      [](EGraph &G, const Value *Args, Value &Out) {
                        Value A = G.canonicalize(Args[0]);
                        Out = G.mkI64(
                            static_cast<int64_t>(G.valueToSet(A).size()));
                        return true;
                      }});
}
