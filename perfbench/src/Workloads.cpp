//===- perfbench/src/Workloads.cpp - The benchmark's seeded workloads -----===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analysis/DetRace.h"
#include "dsl/CodeGen.h"
#include "frontend/Compiler.h"
#include "isa/AddressMap.h"
#include "romp/Runtime.h"
#include "support/SplitMix64.h"
#include "support/StringUtils.h"
#include "workloads/MatMul.h"

#include <algorithm>

#include <sched.h>

using namespace perfbench;
using namespace lbp;

namespace {

uint32_t symbol(const assembler::Program &P, const char *Name) {
  std::optional<uint32_t> A = P.lookup(Name);
  return A ? *A : 0;
}

//===----------------------------------------------------------------------===//
// matmul: the paper's Section 7 kernel, tiled version
//===----------------------------------------------------------------------===//

/// The paper's tiled matmul with seeded X and Y written over the
/// generator's all-ones fill after load, and every Z element checked
/// against a host product. Timing does not depend on the values, so the
/// cycle count is the paper-sized program's.
class MatMulWorkload : public Workload {
public:
  /// \p HostParallel asks for HostThreads = min(4, nproc).
  MatMulWorkload(unsigned Harts, bool HostParallel, uint64_t Seed)
      : Spec(workloads::MatMulSpec::paper(Harts,
                                          workloads::MatMulVersion::Tiled)),
        HostParallel(HostParallel),
        HostThreads(HostParallel ? std::min(4u, nprocCount()) : 1) {
    unsigned H = Spec.h(), K = H / 2;
    SplitMix64 R(Seed);
    X.resize(H * K);
    Y.resize(K * H);
    for (uint32_t &V : X)
      V = static_cast<uint32_t>(R.nextBelow(1000));
    for (uint32_t &V : Y)
      V = static_cast<uint32_t>(R.nextBelow(1000));
    Z.assign(H * H, 0);
    for (unsigned I = 0; I != H; ++I)
      for (unsigned Kk = 0; Kk != K; ++Kk) {
        uint32_t Xv = X[I * K + Kk];
        for (unsigned J = 0; J != H; ++J)
          Z[I * H + J] += Xv * Y[Kk * H + J];
      }
  }

  sim::SimConfig config() const override {
    sim::SimConfig Cfg = sim::SimConfig::lbp(Spec.cores());
    Cfg.GlobalBankSizeLog2 = Spec.BankSizeLog2;
    Cfg.HostThreads = HostThreads;
    return Cfg;
  }

  bool buildAsm(Tracer &T, std::string &Asm, SourceStats &,
                std::string &) override {
    Tracer::Scope S(T, Layer::WorkloadsBuild);
    Asm = workloads::buildMatMulProgram(Spec);
    return true;
  }

  void inject(sim::Machine &M, const assembler::Program &P) override {
    uint32_t Xa = symbol(P, "X"), Ya = symbol(P, "Y");
    for (size_t I = 0; I != X.size(); ++I)
      M.debugWriteWord(Xa + 4 * static_cast<uint32_t>(I), X[I]);
    for (size_t I = 0; I != Y.size(); ++I)
      M.debugWriteWord(Ya + 4 * static_cast<uint32_t>(I), Y[I]);
  }

  bool verify(const sim::Machine &M, const assembler::Program &,
              std::string &Why) const override {
    unsigned H = Spec.h();
    for (unsigned I = 0; I != H; ++I)
      for (unsigned J = 0; J != H; ++J) {
        uint32_t Got = M.debugReadWord(workloads::zElementAddress(Spec, I, J));
        if (Got != Z[I * H + J]) {
          Why = formatString("Z[%u][%u] = %u, expected %u", I, J, Got,
                             Z[I * H + J]);
          return false;
        }
      }
    return true;
  }

  uint32_t outputWord(const assembler::Program &) const override {
    return workloads::zElementAddress(Spec, Spec.h() - 1, 0);
  }

  bool hostParallel() const override { return HostParallel; }

  PaperAnchor anchor() const override {
    // Fig. 21 (64 cores, tiled): the paper's text gives 1.18M cycles and
    // IPC 61.7. Fig. 20 (16 cores) gives no figure for the tiled version.
    // The recorded cycles and retired counts are EXPERIMENTS.md's.
    if (Spec.h() == 256)
      return {true, "paper Fig. 21, tiled, 64 cores", 1.18e6, 61.7, 1201322,
              73465665};
    if (Spec.h() == 64)
      return {false, "", 0, 0, 93698, 1421265};
    return {};
  }

private:
  workloads::MatMulSpec Spec;
  bool HostParallel;
  unsigned HostThreads;
  std::vector<uint32_t> X, Y, Z;
};

//===----------------------------------------------------------------------===//
// forkjoin-c64: back-to-back empty parallel regions
//===----------------------------------------------------------------------===//

/// Rounds of empty parallel regions over every hart of the machine: the
/// fork protocol, the in-order p_ret barrier chain and the quiescent
/// waits between team members dominate, and most core-cycles are idle.
/// Each worker stores its team index into OUT, which is filled with
/// seeded values no index can equal after load, so every word checked
/// was written by the run.
class ForkJoinWorkload : public Workload {
public:
  static constexpr uint32_t OutBase = 0x20000200;

  ForkJoinWorkload(unsigned Cores, unsigned Rounds, uint64_t Seed)
      : Cores(Cores), Harts(4 * Cores), Rounds(Rounds) {
    SplitMix64 R(Seed);
    for (unsigned T = 0; T != Harts; ++T)
      Fill.push_back(static_cast<uint32_t>(R.next()) | 0x80000000u);
  }

  sim::SimConfig config() const override { return sim::SimConfig::lbp(Cores); }

  bool buildAsm(Tracer &T, std::string &Asm, SourceStats &,
                std::string &) override {
    Tracer::Scope S(T, Layer::WorkloadsBuild);
    romp::AsmText Head;
    romp::emitMainPrologue(Head);
    // s1 survives the runtime (it only clobbers a*/t*/ra/tp).
    Head.line("li s1, %u", Rounds);
    Head.label("round");
    romp::emitParallelCall(Head, "worker", Harts, "0", Harts);
    Head.line("addi s1, s1, -1");
    Head.line("bnez s1, round");
    romp::AsmText Tail;
    romp::emitMainEpilogue(Tail);
    romp::emitParallelStart(Tail);
    Asm = Head.str() + Tail.str() +
          formatString(R"(
    .equ OUT, 0x%08x
worker:
    slli a4, a0, 2
    la a5, OUT
    add a4, a4, a5
    sw a0, 0(a4)
    p_syncm
    p_ret
)",
                       OutBase);
    return true;
  }

  void inject(sim::Machine &M, const assembler::Program &) override {
    for (unsigned T = 0; T != Harts; ++T)
      M.debugWriteWord(OutBase + 4 * T, Fill[T]);
  }

  bool verify(const sim::Machine &M, const assembler::Program &,
              std::string &Why) const override {
    for (unsigned T = 0; T != Harts; ++T) {
      uint32_t Got = M.debugReadWord(OutBase + 4 * T);
      if (Got != T) {
        Why = formatString("OUT[%u] = %u, expected %u", T, Got, T);
        return false;
      }
    }
    return true;
  }

  uint32_t outputWord(const assembler::Program &) const override {
    return OutBase + 4 * (Harts - 1);
  }

private:
  unsigned Cores, Harts, Rounds;
  std::vector<uint32_t> Fill;
};

//===----------------------------------------------------------------------===//
// otsu-detc: Otsu thresholding written in Det-C
//===----------------------------------------------------------------------===//

/// Host reference of the kernel's integer Otsu: the first bin with the
/// largest (wB >> Shift) * (wF >> Shift) * (mB - mF)^2, where the class
/// means are truncated integer quotients. Every product stays below
/// 2^31, so the 32-bit simulated arithmetic computes the same values.
int32_t otsuThreshold(const std::vector<int32_t> &Hist, int32_t N,
                      int32_t Sum, unsigned Shift) {
  int32_t Wb = 0, Sb = 0, Best = -1, Thr = 0;
  for (int32_t I = 0; I != 256; ++I) {
    int32_t H = Hist[I];
    Wb += H;
    if (Wb == 0)
      continue;
    int32_t Wf = N - Wb;
    if (Wf == 0)
      break;
    Sb += I * H;
    int32_t D = Sb / Wb - (Sum - Sb) / Wf;
    int32_t V = ((Wb >> Shift) * (Wf >> Shift)) * (D * D);
    if (V > Best) {
      Best = V;
      Thr = I;
    }
  }
  return Thr;
}

/// The Det-C kernel. Members bin their chunk of the packed image into a
/// histogram in their own 64 KiB bank and send their pixel sum over the
/// reduction line; a second team merges the histograms bin-wise and
/// sends the pixel count; main takes the threshold. The image is the
/// only input: it arrives as the initializer of `img`.
const char *OtsuKernel = R"(
void bin(int t) {
  int i;
  int w;
  int b;
  int s;
  s = 0;
  for (i = t * CHUNK; i < (t + 1) * CHUNK; i++) {
    w = img[i];
    b = (t * BANK) + (w & 255);
    hist[b] = hist[b] + 1;
    s = s + (w & 255);
    b = (t * BANK) + ((w >> 8) & 255);
    hist[b] = hist[b] + 1;
    s = s + ((w >> 8) & 255);
    b = (t * BANK) + ((w >> 16) & 255);
    hist[b] = hist[b] + 1;
    s = s + ((w >> 16) & 255);
    b = (t * BANK) + ((w >> 24) & 255);
    hist[b] = hist[b] + 1;
    s = s + ((w >> 24) & 255);
  }
  __reduce_send(s);
}

void merge(int t) {
  int k;
  int m;
  int acc;
  int c;
  c = 0;
  for (k = t * BINS; k < (t + 1) * BINS; k++) {
    acc = 0;
    for (m = 0; m < MEMBERS; m++)
      acc = acc + hist[(m * BANK) + k];
    gh[k] = acc;
    c = c + acc;
  }
  __reduce_send(c);
}

int otsu(int n, int sum) {
  int i;
  int h;
  int wb;
  int wf;
  int sb;
  int d;
  int v;
  int best;
  int thr;
  wb = 0;
  sb = 0;
  best = -1;
  thr = 0;
  for (i = 0; i < 256; i++) {
    h = gh[i];
    wb = wb + h;
    if (wb != 0) {
      wf = n - wb;
      if (wf == 0)
        break;
      sb = sb + (i * h);
      d = (sb / wb) - ((sum - sb) / wf);
      v = ((wb >> SHIFT) * (wf >> SHIFT)) * (d * d);
      if (v > best) {
        best = v;
        thr = i;
      }
    }
  }
  return thr;
}

void main() {
  int t;
  int sum;
  int total;
  int thr;
  sum = 0;
  total = 0;
  #pragma omp parallel for reduction(+:sum)
  for (t = 0; t < MEMBERS; t++)
    bin(t);
  #pragma omp parallel for reduction(+:total)
  for (t = 0; t < MEMBERS; t++)
    merge(t);
  __syncm();
  thr = otsu(total, sum);
  res[0] = thr;
  res[1] = total;
  res[2] = sum;
  __syncm();
}
)";

class OtsuWorkload : public Workload {
public:
  static constexpr unsigned BankLog2 = 16; // SimConfig default
  static constexpr uint32_t BankWords = (1u << BankLog2) / 4;

  OtsuWorkload(unsigned Cores, unsigned Members, unsigned Pixels,
               uint64_t Seed)
      : Cores(Cores), Members(Members), Pixels(Pixels) {
    // A bimodal 8-bit image: two seeded modes with seeded weights and
    // a triangular-ish spread from summing four uniform draws.
    SplitMix64 R(Seed);
    int Mode[2] = {40 + static_cast<int>(R.nextBelow(40)),
                   150 + static_cast<int>(R.nextBelow(60))};
    uint64_t Share = 30 + R.nextBelow(41); // % of pixels in mode 0
    std::vector<uint32_t> Words(Pixels / 4, 0);
    Hist.assign(256, 0);
    for (unsigned I = 0; I != Pixels; ++I) {
      int P = Mode[R.nextBelow(100) < Share ? 0 : 1] - 62;
      for (int K = 0; K != 4; ++K)
        P += static_cast<int>(R.nextBelow(32));
      P = std::clamp(P, 0, 255);
      Words[I / 4] |= static_cast<uint32_t>(P) << (8 * (I % 4));
      ++Hist[P];
      Sum += P;
    }
    while ((Pixels >> Shift) > 256)
      ++Shift;
    Threshold = otsuThreshold(Hist, static_cast<int32_t>(Pixels), Sum, Shift);

    uint32_t HistBase = isa::GlobalBase;
    uint32_t ImgBase = HistBase + Members * BankWords * 4;
    uint32_t GhBase = ImgBase + ((Pixels + BankWords * 4 - 1) /
                                 (BankWords * 4)) * BankWords * 4;
    Source = formatString("// Otsu thresholding of a %u-pixel 8-bit image, "
                          "four pixels per word.\n",
                          Pixels);
    Source += formatString("#define MEMBERS %u\n#define CHUNK %u\n"
                           "#define BANK %u\n#define BINS %u\n"
                           "#define SHIFT %u\n\n",
                           Members, Pixels / 4 / Members, BankWords,
                           256 / Members, Shift);
    Source += formatString("int hist[%u] at 0x%x;\n", Members * BankWords,
                           HistBase);
    Source += formatString("int gh[256] at 0x%x;\n", GhBase);
    Source += formatString("int res[4] at 0x%x;\n", GhBase + 1024);
    Source += formatString("int img[%u] at 0x%x = {", Pixels / 4, ImgBase);
    for (size_t I = 0; I != Words.size(); ++I)
      Source += formatString("%s%s0x%x", I ? "," : "", I % 8 ? " " : "\n  ",
                             Words[I]);
    Source += "\n};\n";
    Source += OtsuKernel;
  }

  sim::SimConfig config() const override {
    sim::SimConfig Cfg = sim::SimConfig::lbp(Cores);
    Cfg.CollectCounters = true;
    return Cfg;
  }

  bool buildAsm(Tracer &T, std::string &Asm, SourceStats &St,
                std::string &Err) override {
    St.SourceBytes = Source.size();
    frontend::FrontendResult FR;
    {
      Tracer::Scope S(T, Layer::FrontendParse);
      FR = frontend::parseDetC(Source);
    }
    if (!FR.succeeded()) {
      Err = "Det-C parse failed: " + FR.errorText();
      return false;
    }
    analysis::AnalysisResult AR;
    {
      Tracer::Scope S(T, Layer::AnalysisLint);
      analysis::DetRaceOptions Opts;
      Opts.MachineHarts = Cores * sim::HartsPerCore;
      Opts.GlobalBankSizeLog2 = BankLog2;
      AR = analysis::analyzeModule(*FR.M, Opts);
    }
    St.Affine = St.Banked = St.May = 0;
    for (const analysis::RegionCert &C : AR.Certs) {
      St.Affine += C.Affine;
      St.Banked += C.Banked;
      St.May += C.May;
    }
    St.Diags = AR.Diags.size();
    if (AR.hasErrors()) {
      Err = "lint errors:\n" + AR.text();
      return false;
    }
    Tracer::Scope S(T, Layer::DslCodegen);
    Asm = dsl::compileModule(*FR.M);
    return true;
  }

  bool verify(const sim::Machine &M, const assembler::Program &P,
              std::string &Why) const override {
    uint32_t Gh = symbol(P, "gh"), Res = symbol(P, "res");
    for (uint32_t B = 0; B != 256; ++B) {
      int32_t Got = static_cast<int32_t>(M.debugReadWord(Gh + 4 * B));
      if (Got != Hist[B]) {
        Why = formatString("histogram bin %u = %d, expected %d", B, Got,
                           Hist[B]);
        return false;
      }
    }
    const int32_t Want[3] = {Threshold, static_cast<int32_t>(Pixels), Sum};
    const char *What[3] = {"threshold", "pixel count", "pixel sum"};
    for (uint32_t K = 0; K != 3; ++K) {
      int32_t Got = static_cast<int32_t>(M.debugReadWord(Res + 4 * K));
      if (Got != Want[K]) {
        Why = formatString("%s = %d, expected %d", What[K], Got, Want[K]);
        return false;
      }
    }
    return true;
  }

  uint32_t outputWord(const assembler::Program &P) const override {
    return symbol(P, "res");
  }

  bool obsReport() const override { return true; }

private:
  unsigned Cores, Members, Pixels;
  unsigned Shift = 0;
  std::vector<int32_t> Hist;
  int32_t Sum = 0;
  int32_t Threshold = 0;
  std::string Source;
};

} // namespace

unsigned perfbench::nprocCount() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return 1;
  return std::max(1, CPU_COUNT(&Set));
}

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {
      "matmul-tiled-c16", "otsu-detc", "matmul-tiled-c16-hostpar",
      "forkjoin-c64", "matmul-tiled-c64"};
  return Names;
}

std::unique_ptr<Workload> perfbench::makeWorkload(const std::string &Name,
                                                  uint64_t Seed, bool Tiny) {
  if (Name == "matmul-tiled-c16")
    return std::make_unique<MatMulWorkload>(Tiny ? 16 : 64, false, Seed);
  if (Name == "matmul-tiled-c64")
    return std::make_unique<MatMulWorkload>(Tiny ? 16 : 256, false, Seed);
  if (Name == "otsu-detc")
    return Tiny ? std::make_unique<OtsuWorkload>(16, 8, 2048, Seed)
                : std::make_unique<OtsuWorkload>(64, 32, 65536, Seed);
  if (Name == "forkjoin-c64")
    return Tiny ? std::make_unique<ForkJoinWorkload>(4, 8, Seed)
                : std::make_unique<ForkJoinWorkload>(64, 256, Seed);
  if (Name == "matmul-tiled-c16-hostpar")
    return std::make_unique<MatMulWorkload>(Tiny ? 16 : 64, true, Seed);
  return nullptr;
}
