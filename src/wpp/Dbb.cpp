//===- wpp/Dbb.cpp - Dynamic basic block dictionaries ---------------------===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#include "wpp/Dbb.h"

#include "obs/Metrics.h"
#include "obs/Names.h"

#include <algorithm>
#include <cassert>

using namespace twpp;

size_t DynamicCfg::indexOf(BlockId Block) const {
  auto It = std::lower_bound(Blocks.begin(), Blocks.end(), Block);
  if (It == Blocks.end() || *It != Block)
    return npos;
  return static_cast<size_t>(It - Blocks.begin());
}

uint64_t DynamicCfg::edgeCount() const {
  uint64_t Count = 0;
  for (const auto &Succs : Successors)
    Count += Succs.size();
  return Count;
}

DynamicCfg twpp::buildDynamicCfg(const PathTrace &Trace) {
  DynamicCfg Cfg;
  if (Trace.empty())
    return Cfg;

  Cfg.Blocks = Trace;
  std::sort(Cfg.Blocks.begin(), Cfg.Blocks.end());
  Cfg.Blocks.erase(std::unique(Cfg.Blocks.begin(), Cfg.Blocks.end()),
                   Cfg.Blocks.end());
  size_t N = Cfg.Blocks.size();
  Cfg.Successors.resize(N);
  Cfg.Predecessors.resize(N);
  Cfg.IsEntry.assign(N, false);
  Cfg.IsExit.assign(N, false);

  Cfg.IsEntry[Cfg.indexOf(Trace.front())] = true;
  Cfg.IsExit[Cfg.indexOf(Trace.back())] = true;
  for (size_t I = 0; I + 1 < Trace.size(); ++I) {
    size_t From = Cfg.indexOf(Trace[I]);
    size_t To = Cfg.indexOf(Trace[I + 1]);
    Cfg.Successors[From].push_back(Trace[I + 1]);
    Cfg.Predecessors[To].push_back(Trace[I]);
  }
  for (size_t I = 0; I != N; ++I) {
    auto Dedupe = [](std::vector<BlockId> &List) {
      std::sort(List.begin(), List.end());
      List.erase(std::unique(List.begin(), List.end()), List.end());
    };
    Dedupe(Cfg.Successors[I]);
    Dedupe(Cfg.Predecessors[I]);
  }
  return Cfg;
}

CompactedTrace twpp::compactWithDbbs(const PathTrace &Trace) {
  CompactedTrace Result;
  if (Trace.size() < 2) {
    Result.Blocks = Trace;
    return Result;
  }

  DynamicCfg Cfg = buildDynamicCfg(Trace);
  size_t N = Cfg.Blocks.size();

  // Effective degrees include the virtual entry/exit edges so that trace
  // boundaries terminate chains.
  auto OutDegree = [&Cfg](size_t I) {
    return Cfg.Successors[I].size() + (Cfg.IsExit[I] ? 1 : 0);
  };
  auto InDegree = [&Cfg](size_t I) {
    return Cfg.Predecessors[I].size() + (Cfg.IsEntry[I] ? 1 : 0);
  };

  // A block is chain-interior iff it has exactly one predecessor and that
  // predecessor has exactly one successor (virtual edges included).
  std::vector<bool> Interior(N, false);
  for (size_t I = 0; I != N; ++I) {
    if (InDegree(I) != 1 || Cfg.Predecessors[I].empty())
      continue;
    size_t Pred = Cfg.indexOf(Cfg.Predecessors[I].front());
    if (OutDegree(Pred) == 1)
      Interior[I] = true;
  }

  // Assemble maximal chains starting from every non-interior head.
  // NextInChain[I] holds the index following I inside its chain, or npos.
  std::vector<size_t> NextInChain(N, DynamicCfg::npos);
  for (size_t I = 0; I != N; ++I) {
    if (OutDegree(I) != 1 || Cfg.Successors[I].empty())
      continue;
    size_t Succ = Cfg.indexOf(Cfg.Successors[I].front());
    if (Interior[Succ])
      NextInChain[I] = Succ;
  }

  DbbDictionary Dict;
  for (size_t I = 0; I != N; ++I) {
    if (Interior[I] || NextInChain[I] == DynamicCfg::npos)
      continue;
    std::vector<BlockId> Chain;
    size_t Walk = I;
    while (Walk != DynamicCfg::npos) {
      Chain.push_back(Cfg.Blocks[Walk]);
      assert(Chain.size() <= N && "cycle in DBB chain");
      Walk = NextInChain[Walk];
    }
    assert(Chain.size() >= 2 && "chain head with no body");
    Dict.Chains.push_back(std::move(Chain));
  }
  std::sort(Dict.Chains.begin(), Dict.Chains.end(),
            [](const std::vector<BlockId> &A, const std::vector<BlockId> &B) {
              return A.front() < B.front();
            });

  // Rewrite the trace: at each chain-head occurrence the full chain must
  // follow (guaranteed by the degree conditions); emit the head and skip
  // the body.
  Result.Dictionary = std::move(Dict);
  uint64_t Lookups = 0, Hits = 0;
  size_t Pos = 0;
  while (Pos < Trace.size()) {
    BlockId Head = Trace[Pos];
    const std::vector<BlockId> *Chain = Result.Dictionary.findChain(Head);
    ++Lookups;
    if (!Chain) {
      Result.Blocks.push_back(Head);
      ++Pos;
      continue;
    }
    ++Hits;
    for (size_t K = 0; K < Chain->size(); ++K) {
      (void)K;
      assert(Pos + K < Trace.size() && Trace[Pos + K] == (*Chain)[K] &&
             "chain occurrence does not match dictionary");
    }
    Result.Blocks.push_back(Head);
    Pos += Chain->size();
  }
  if (obs::enabled()) {
    obs::MetricsRegistry &M = obs::metrics();
    static obs::Counter &Chains = M.counter(obs::names::DbbChains);
    static obs::Counter &AllLookups = M.counter(obs::names::DbbLookups);
    static obs::Counter &LookupHits = M.counter(obs::names::DbbLookupHits);
    Chains.add(Result.Dictionary.Chains.size());
    AllLookups.add(Lookups);
    LookupHits.add(Hits);
  }
  return Result;
}

void twpp::appendExpansion(const DbbDictionary &Dictionary, BlockId Head,
                           PathTrace &Out) {
  if (const std::vector<BlockId> *Chain = Dictionary.findChain(Head)) {
    Out.insert(Out.end(), Chain->begin(), Chain->end());
    return;
  }
  Out.push_back(Head);
}

PathTrace twpp::expandDbbs(const CompactedTrace &Compacted) {
  PathTrace Out;
  Out.reserve(Compacted.Blocks.size());
  for (BlockId Head : Compacted.Blocks)
    appendExpansion(Compacted.Dictionary, Head, Out);
  return Out;
}
