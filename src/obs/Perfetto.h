//===- obs/Perfetto.h - Timeline export of the canonical event stream ------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Streams the canonical trace-event sequence to timeline formats
/// (docs/OBSERVABILITY.md):
///
///  * PerfettoSink writes Chrome/Perfetto `trace_event` JSON — open the
///    file in ui.perfetto.dev (or chrome://tracing) and every core shows
///    up as a process with one thread lane per hart. Hart activity spans
///    (HartStart..HartEnd) become duration events, the X_PAR protocol
///    messages become instants, and cumulative per-core commit counters
///    are sampled onto counter tracks.
///  * JsonlSink writes one compact JSON object per event, for ad-hoc
///    scripting (jq etc.) without a trace viewer.
///
/// Both sinks observe the stream through sim::TraceSink, i.e. strictly
/// after hashing, and both derive their output from the canonical event
/// sequence only — no wall-clock, no pointers — so the exported bytes
/// are identical for both engines (asserted by
/// tests/thread_sweep_test.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef LBP_OBS_PERFETTO_H
#define LBP_OBS_PERFETTO_H

#include "sim/Config.h"
#include "sim/Trace.h"

#include <ostream>
#include <vector>

namespace lbp {
namespace obs {

/// Chrome `trace_event` JSON exporter. One simulated cycle maps to one
/// display microsecond. Register with Machine::addTraceSink() before
/// load() (the boot HartStart is an event), run, then call finish().
class PerfettoSink : public sim::TraceSink {
public:
  /// \p CounterInterval is the cycle stride of the commit counter
  /// samples (0 disables the counter tracks).
  PerfettoSink(std::ostream &OS, const sim::SimConfig &Cfg,
               uint64_t CounterInterval = 64);

  void onEvent(uint64_t Cycle, sim::EventKind Kind, uint64_t A,
               uint64_t B) override;

  /// Closes still-open hart spans at \p FinalCycle (normally
  /// Machine::cycles()), flushes a last counter sample and terminates
  /// the JSON document. Must be called exactly once.
  void finish(uint64_t FinalCycle);

private:
  void emitJson(const char *Json);
  void beginSpan(uint64_t Cycle, unsigned Hart, uint64_t Pc);
  void endSpan(uint64_t Cycle, unsigned Hart);
  void instant(uint64_t Cycle, unsigned Hart, const char *Name,
               uint64_t Arg);
  void sampleCounters(uint64_t Cycle);

  std::ostream &OS;
  unsigned NumCores;
  uint64_t Interval;
  uint64_t NextSample;
  bool First = true;
  bool Finished = false;
  std::vector<bool> SpanOpen;          ///< Per hart.
  std::vector<uint64_t> CommitsByCore; ///< Cumulative, for the samples.
};

/// One JSON object per event:
///   {"cycle":12,"kind":"commit","a":3,"b":4096}
class JsonlSink : public sim::TraceSink {
public:
  explicit JsonlSink(std::ostream &OS) : OS(OS) {}
  void onEvent(uint64_t Cycle, sim::EventKind Kind, uint64_t A,
               uint64_t B) override;

private:
  std::ostream &OS;
};

} // namespace obs
} // namespace lbp

#endif // LBP_OBS_PERFETTO_H
