//===- perfbench/src/HostProbe.h - Host speed probe ------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed amount of host work whose run time tracks how fast this host
/// runs code right now. On a shared host the simulator's speed moves by
/// up to 1.9x in phases of seconds to minutes, with the load other
/// tenants put on the machine. Thread CPU time moves with it, so no
/// clock hides it. The benchmark runs the probe between iterations
/// and divides the host time an iteration spends on one thread by the
/// probe's slowdown against a fixed reference. A run of the parallel
/// engine is not divided: it spends its time at barriers across four
/// cores, which the probe does not track. Over five runs of
/// matmul-tiled-c16-hostpar, dividing by this probe left the spread of
/// its sim_mips at 0.10 of the median (0.09 as measured), and dividing
/// by the mean of four probes run at once doubled it (0.05 to 0.11).
///
/// The probe has two kernels that resemble the benchmark's own work: an
/// opcode-dispatch loop over a seeded program (decode and execute), and
/// formatted keys into an ordered map (allocation, linked nodes and
/// branchy library code). Of the kernels tried on a shared 4-CPU Xeon
/// VM, these two tracked the simulator best: over 150 s runs of
/// matmul-tiled-c16 and otsu-detc the medians of 15-iteration windows
/// spread by 0.40 and 0.18 of their median as measured, and by 0.05
/// divided by the probe's slowdown. A pointer chase through 8 MiB and a
/// large table of distinct functions tracked it worse. The probe uses no
/// repository code, so a change to the simulator does not move it.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_PERFBENCH_HOSTPROBE_H
#define LBP_PERFBENCH_HOSTPROBE_H

namespace perfbench {

/// The probe's time on that Xeon VM in its fastest phases. A slowdown
/// is a probe time divided by this.
constexpr double ProbeReferenceSeconds = 0.012;

/// Runs the probe once and returns the geometric mean of its two
/// kernels' wall-clock seconds.
double runHostProbe();

} // namespace perfbench

#endif // LBP_PERFBENCH_HOSTPROBE_H
