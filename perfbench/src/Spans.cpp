//===- perfbench/src/Spans.cpp - In-memory layer spans ---------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <map>

using namespace perfbench;

const char *perfbench::layerName(Layer L) {
  switch (L) {
  case Layer::Iteration:
    return "bench.iteration";
  case Layer::Setup:
    return "bench.setup";
  case Layer::WorkloadsBuild:
    return "workloads.build";
  case Layer::FrontendParse:
    return "frontend.parse";
  case Layer::AnalysisLint:
    return "analysis.lint";
  case Layer::DslCodegen:
    return "dsl.codegen";
  case Layer::AsmAssemble:
    return "asm.assemble";
  case Layer::SimConstruct:
    return "sim.construct";
  case Layer::SimLoad:
    return "sim.load";
  case Layer::SimRun:
    return "sim.run";
  case Layer::ObsReport:
    return "obs.report";
  case Layer::NumLayers:
    break;
  }
  return "?";
}

int32_t Tracer::open(Layer L) {
  Span S;
  S.L = L;
  S.Iter = Iter;
  S.Parent = Current;
  S.Begin = nowNanos();
  Spans.push_back(S);
  Current = static_cast<int32_t>(Spans.size() - 1);
  return Current;
}

void Tracer::close(int32_t Idx) {
  Spans[Idx].End = nowNanos();
  Current = Spans[Idx].Parent;
}

std::vector<std::vector<double>> Tracer::selfSeconds() const {
  // Children of one parent are sequential (one host thread records
  // them), so the part of a span its children cover is the sum of
  // their durations.
  std::vector<uint64_t> ChildNanos(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNanos[S.Parent] += S.End - S.Begin;
  std::map<uint32_t, std::vector<double>> ByIter;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::vector<double> &Row = ByIter[S.Iter];
    Row.resize(NumLayers, 0.0);
    Row[static_cast<unsigned>(S.L)] +=
        static_cast<double>(S.End - S.Begin - ChildNanos[I]) * 1e-9;
  }
  std::vector<std::vector<double>> Out;
  for (auto &KV : ByIter)
    Out.push_back(std::move(KV.second));
  return Out;
}
