//===- perfbench/src/Spans.h - In-memory layer spans -----------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracer. One span is recorded around each call the
/// benchmark makes into a repository module (name, start, end, parent,
/// iteration id). Spans stay in memory until the run ends; a layer's
/// self time is its span's duration minus the time its child spans
/// cover. With tracing off a scope costs one branch.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_PERFBENCH_SPANS_H
#define LBP_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The layers the benchmark times: one per module entry point it calls,
/// plus the iteration and set-up envelopes that parent them.
enum class Layer : uint8_t {
  Iteration,      ///< One pass from source text to the built report.
  Setup,          ///< Source text to a loaded machine at cycle 0.
  WorkloadsBuild, ///< workloads/romp source generators.
  FrontendParse,  ///< frontend::parseDetC.
  AnalysisLint,   ///< analysis::analyzeModule.
  DslCodegen,     ///< dsl::compileModule.
  AsmAssemble,    ///< assembler::assemble.
  SimConstruct,   ///< sim::Machine construction.
  SimLoad,        ///< Machine::load plus input injection.
  SimRun,         ///< Machine::run.
  ObsReport,      ///< The result report (obs::buildReport on otsu-detc).
  NumLayers
};

constexpr unsigned NumLayers = static_cast<unsigned>(Layer::NumLayers);

/// Metric-style name of \p L ("frontend.parse", "sim.run", ...).
const char *layerName(Layer L);

inline uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  Layer L = Layer::Iteration;
  uint32_t Iter = 0;
  int32_t Parent = -1; ///< Index into the span list; -1 for a root.
  uint64_t Begin = 0;
  uint64_t End = 0;
};

class Tracer {
public:
  explicit Tracer(bool Enabled) : On(Enabled) {}

  void setEnabled(bool E) { On = E; }

  /// Spans opened from now on carry iteration id \p I.
  void beginIteration(uint32_t I) { Iter = I; }

  /// RAII span; closes at scope exit. Scopes must nest.
  class Scope {
  public:
    Scope(Tracer &T, Layer L) : T(T.On ? &T : nullptr) {
      if (this->T)
        Idx = this->T->open(L);
    }
    ~Scope() {
      if (T)
        T->close(Idx);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *T;
    int32_t Idx = -1;
  };

  const std::vector<Span> &spans() const { return Spans; }

  /// Self time per layer in seconds for each iteration id that has
  /// spans: Result[iter][layer].
  std::vector<std::vector<double>> selfSeconds() const;

private:
  int32_t open(Layer L);
  void close(int32_t Idx);

  bool On;
  uint32_t Iter = 0;
  int32_t Current = -1;
  std::vector<Span> Spans;
};

} // namespace perfbench

#endif // LBP_PERFBENCH_SPANS_H
