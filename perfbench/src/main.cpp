//===- perfbench/src/main.cpp - Benchmark driver --------------------------===//
//
// Part of the vdg-alias project (Ruf, PLDI 1995 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload for a fixed time and prints a spread report followed
/// by one JSON result line. Untraced runs (--trace 0) report the
/// end-to-end metrics; traced runs (--trace 1) report per-layer metrics
/// and the tracing overhead. See perfbench/README.md.
///
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Stats.h"
#include "Workloads.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <spawn.h>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#include <unordered_map>
#include <vector>

extern char **environ;

using namespace perfbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Reference;
  std::vector<uint64_t> ScaleSeeds;
  uint64_t QuerySeed = 0;
  std::string Spans;  ///< Where a traced run writes its spans.
  std::string Record; ///< Write a reference file here and exit.
  bool Cold = false;  ///< Measure one cold setup and exit (child mode).
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload corpus|scale|query|check "
               "--seed N --seconds S --trace 0|1\n"
               "                 --reference FILE --scale-seeds A,B,.. "
               "--query-seed N [--spans FILE]\n"
               "       perfbench --record FILE --scale-seeds A,B,.. "
               "--query-seed N\n",
               Why);
  std::exit(2);
}

uint64_t number(const char *S) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || End == S || *End)
    usage("expected a whole number");
  return V;
}

Args parse(int Argc, char **Argv) {
  Args A;
  bool HaveQuerySeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--cold") {
      A.Cold = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const char *V = Argv[++I];
    if (Flag == "--workload")
      A.Workload = V;
    else if (Flag == "--seed")
      A.Seed = number(V);
    else if (Flag == "--seconds")
      A.Seconds = double(number(V));
    else if (Flag == "--trace")
      A.Trace = number(V) != 0;
    else if (Flag == "--reference")
      A.Reference = V;
    else if (Flag == "--query-seed") {
      A.QuerySeed = number(V);
      HaveQuerySeed = true;
    } else if (Flag == "--scale-seeds") {
      std::string List = V;
      for (size_t Pos = 0; Pos <= List.size();) {
        size_t Comma = std::min(List.find(',', Pos), List.size());
        A.ScaleSeeds.push_back(number(List.substr(Pos, Comma - Pos).c_str()));
        Pos = Comma + 1;
      }
    } else if (Flag == "--spans")
      A.Spans = V;
    else if (Flag == "--record")
      A.Record = V;
    else
      usage(("unknown flag " + Flag).c_str());
  }
  if (A.ScaleSeeds.empty() || !HaveQuerySeed)
    usage("--scale-seeds and --query-seed are required");
  if (A.Record.empty()) {
    if (A.Reference.empty())
      usage("--reference is required");
    const auto &Names = workloadNames();
    if (std::find(Names.begin(), Names.end(), A.Workload) == Names.end())
      usage("--workload must be corpus, scale, query or check");
    if (A.Seconds < 1)
      usage("--seconds must be at least 1");
  }
  return A;
}

double secondsSince(uint64_t StartNs) {
  return double(nowNs() - StartNs) / 1e9;
}

double median(std::vector<double> V) { return spreadOf(std::move(V)).Median; }

/// Measures one cold setup in a fresh process (this binary with --cold)
/// and returns its setup seconds and first-item ms; folds the child's
/// operation counts into \p T.
bool coldChild(char **Argv, Tally &T, double &SetupS, double &FirstMs) {
  std::vector<char *> ChildArgv;
  for (char **A = Argv; *A; ++A)
    ChildArgv.push_back(*A);
  char ColdFlag[] = "--cold";
  ChildArgv.push_back(ColdFlag);
  ChildArgv.push_back(nullptr);

  int Pipe[2];
  if (pipe(Pipe) != 0)
    return false;
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&Actions, Pipe[0]);
  posix_spawn_file_actions_addclose(&Actions, Pipe[1]);
  pid_t Pid = 0;
  int Err = posix_spawn(&Pid, "/proc/self/exe", &Actions, nullptr,
                        ChildArgv.data(), environ);
  posix_spawn_file_actions_destroy(&Actions);
  close(Pipe[1]);
  std::string Out;
  if (Err == 0) {
    char Buf[4096];
    ssize_t N;
    while ((N = read(Pipe[0], Buf, sizeof Buf)) > 0 ||
           (N < 0 && errno == EINTR))
      if (N > 0)
        Out.append(Buf, size_t(N));
  }
  close(Pipe[0]);
  if (Err != 0)
    return false;
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  unsigned long long Attempted = 0, Failed = 0;
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0 ||
      std::sscanf(Out.c_str(), "cold %lf %lf %llu %llu", &SetupS, &FirstMs,
                  &Attempted, &Failed) != 4)
    return false;
  T.Attempted += Attempted;
  T.Failed += Failed;
  if (Failed)
    T.Failures.push_back("cold setup process reported " +
                         std::to_string(Failed) + " failed operations");
  return true;
}

Metric metricOf(const char *Name, const char *Unit,
                const std::vector<double> &V, std::string Note = "") {
  Spread S = spreadOf(V);
  return {Name, Unit, S.Median, S, std::move(Note)};
}

/// The calibration kernel's time, ms, at reference host speed: about its
/// time on the measurement VM (see README.md, Host drift), so reported
/// timings stay close to wall times there.
constexpr double ReferenceCalibrationMs = 50;

/// Keeps the calibration kernel's result alive.
volatile uint64_t CalibrationSink;

/// Runs the calibration kernel once and returns its wall time, ms: fixed
/// work (hash-table inserts and lookups, then a sort of 1 MB) that is part
/// of the benchmark, not of the program measured. Its speed follows the
/// host's memory-bound slow phases the way the analyses' speed does, so
/// dividing by it takes the host's drift out of a run's timings.
double calibrationMs() {
  uint64_t Start = nowNs();
  std::mt19937_64 G(7);
  std::unordered_map<uint64_t, uint64_t> Table;
  Table.reserve(1 << 15);
  for (uint64_t I = 0; I < 75000; ++I)
    Table[G() & 0xFFFFF] += I;
  uint64_t Sum = 0;
  for (int I = 0; I < 300000; ++I) {
    auto It = Table.find(G() & 0xFFFFF);
    if (It != Table.end())
      Sum += It->second;
  }
  std::vector<uint32_t> V(1 << 18);
  for (uint32_t &X : V)
    X = uint32_t(G());
  std::sort(V.begin(), V.end());
  CalibrationSink = Sum + V[V.size() / 2];
  return double(nowNs() - Start) / 1e6;
}

/// The calibration kernel's times over one run, and the host-speed
/// factor they give for any stretch of it.
class Calibration {
public:
  /// Runs the kernel once, \p AtS seconds into the run.
  void sample(double AtS) { Samples.push_back({AtS, calibrationMs()}); }

  std::vector<double> times() const {
    std::vector<double> Ms;
    for (const auto &[At, KernelMs] : Samples)
      Ms.push_back(KernelMs);
    return Ms;
  }

  /// ReferenceCalibrationMs over the kernel's median time around the
  /// stretch [FromS, ToS]: the samples within WindowS of it, or the three
  /// nearest when fewer lie there.
  double factor(double FromS, double ToS) const {
    constexpr double WindowS = 1.5;
    double Mid = (FromS + ToS) / 2;
    std::vector<std::pair<double, double>> ByDistance;
    for (const auto &[At, KernelMs] : Samples)
      ByDistance.push_back({std::abs(At - Mid), KernelMs});
    std::sort(ByDistance.begin(), ByDistance.end());
    double Reach = (ToS - FromS) / 2 + WindowS;
    std::vector<double> Near;
    for (const auto &[Distance, KernelMs] : ByDistance)
      if (Distance <= Reach || Near.size() < 3)
        Near.push_back(KernelMs);
    return ReferenceCalibrationMs / median(Near);
  }

private:
  std::vector<std::pair<double, double>> Samples; ///< (seconds in, ms)
};

/// The end-to-end run: cold setups in fresh processes spread over the run,
/// warm units in between, every timing from many samples. The calibration
/// kernel runs every CalibrateEveryS seconds between them, and every timing
/// is reported at reference host speed: multiplied by the calibration
/// factor of the stretch of the run it was taken in.
std::vector<Metric> runUntraced(const Args &A, char **Argv, Context &Ctx) {
  constexpr double CalibrateEveryS = 0.5;
  std::unique_ptr<Workload> W = makeWorkload(A.Workload, Ctx);
  uint64_t Start = nowNs();
  Calibration Cal;
  // Each timing with the stretch of the run it covers, in seconds.
  struct Timed {
    double FromS, ToS, Value;
  };
  std::vector<Timed> Setups, Units;
  std::vector<std::vector<double>> UnitItems;
  std::vector<double> FirstItemMs;
  double First = 0;
  Setups.push_back({0, 0, W->setup(First)});
  Setups.back().ToS = secondsSince(Start);
  FirstItemMs.push_back(First);

  // About 15% of the run goes to cold setups: at least three (for a
  // median), at most nine, evenly spaced so a slow phase of the host does
  // not land on all of them. The rest keeps enough warm items that the
  // tail percentile does not change between runs.
  size_t Cold = std::clamp<size_t>(
      size_t(std::lround(0.15 * A.Seconds /
                         std::max(Setups[0].Value, 1e-3))),
      3, 9);
  size_t Next = 1;
  double LastKernel = -CalibrateEveryS;
  while (true) {
    double Elapsed = secondsSince(Start);
    if (Next < Cold && Elapsed >= A.Seconds * double(Next) / double(Cold)) {
      double S = 0, F = 0;
      if (coldChild(Argv, Ctx.T, S, F)) {
        Setups.push_back({Elapsed, secondsSince(Start), S});
        FirstItemMs.push_back(F);
      } else {
        Ctx.T.expect(false, "cold setup process failed");
      }
      ++Next;
      continue;
    }
    if (Elapsed - LastKernel >= CalibrateEveryS) {
      Cal.sample(Elapsed);
      LastKernel = Elapsed;
      continue;
    }
    if (Elapsed >= A.Seconds && !Units.empty() && Next >= Cold)
      break;
    UnitItems.emplace_back();
    Units.push_back({Elapsed, 0, W->unit(UnitItems.back())});
    Units.back().ToS = secondsSince(Start);
  }
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);

  // Every timing as measured (wall) and at reference speed.
  std::vector<double> SetupWall, SetupRef, UnitWall, UnitRef, ItemWall,
      ItemRef, UnitP50;
  for (const Timed &T : Setups) {
    SetupWall.push_back(T.Value);
    SetupRef.push_back(T.Value * Cal.factor(T.FromS, T.ToS));
  }
  for (size_t I = 0; I < Units.size(); ++I) {
    double Factor = Cal.factor(Units[I].FromS, Units[I].ToS);
    UnitWall.push_back(Units[I].Value);
    UnitRef.push_back(Units[I].Value * Factor);
    for (double Ms : UnitItems[I]) {
      ItemWall.push_back(Ms);
      ItemRef.push_back(Ms * Factor);
    }
    UnitP50.push_back(median(UnitItems[I]));
  }

  auto Timings = [&](const std::vector<double> &Setup,
                     const std::vector<double> &Unit,
                     const std::vector<double> &Item, const char *Suffix) {
    std::string Sfx = Suffix;
    Tail T = tailOf(Item, W->tailPercentile());
    char TailNote[64];
    std::snprintf(TailNote, sizeof TailNote, "p%g of all items", T.Percentile);
    std::vector<Metric> M = {
        metricOf("setup_s", "s", Setup, "cold, fresh process each" + Sfx),
        metricOf("unit_ms", "ms", Unit, "warm units" + Sfx),
        metricOf("p50_ms", "ms", Item, "all warm items" + Sfx),
        {"tail_ms", "ms", T.Value, spreadOf(Item), TailNote + Sfx},
    };
    return M;
  };
  std::vector<Metric> M = Timings(SetupRef, UnitRef, ItemRef, "");
  M.push_back(metricOf("peak_rss_mb", "MB", {double(Usage.ru_maxrss) / 1024.0},
                       "ru_maxrss"));
  // Report only: the host's speed, the timings as measured, and the
  // single-sample definitions, whose larger run-to-run spread can be read
  // off beside the pooled ones.
  size_t Reported = M.size();
  M.push_back(metricOf("host.calibration_ms", "ms", Cal.times(),
                       "calibration kernel, wall"));
  for (Metric X : Timings(SetupWall, UnitWall, ItemWall, ", wall")) {
    X.Name += ".wall";
    M.push_back(X);
  }
  M.push_back(metricOf("setup_s.first_item", "ms", FirstItemMs,
                       "first item of a cold unit, wall"));
  M.push_back(metricOf("p50_ms.single_unit", "ms", UnitP50,
                       "median item of one unit, wall"));
  for (size_t I = Reported; I < M.size(); ++I)
    M[I].ReportOnly = true;
  return M;
}

/// The traced run: the selected workload's units alternate traced and
/// untraced (the difference is the tracing overhead), then every
/// workload's traced unit runs in turn so every layer is measured.
std::vector<Metric> runTraced(const Args &A, Context &Ctx) {
  std::vector<std::unique_ptr<Workload>> All;
  Workload *Self = nullptr;
  for (const std::string &Name : workloadNames()) {
    All.push_back(makeWorkload(Name, Ctx));
    if (Name == A.Workload)
      Self = All.back().get();
  }
  SpanRecorder S;
  uint64_t Start = nowNs();
  for (auto &W : All)
    W->tracedExtras(S);

  std::vector<double> Traced, Untraced;
  while (Traced.size() < 2 || secondsSince(Start) < 0.4 * A.Seconds) {
    std::vector<double> Items;
    Untraced.push_back(Self->unit(Items));
    Traced.push_back(Self->tracedUnit(S));
  }
  for (bool First = true; First || secondsSince(Start) < A.Seconds;
       First = false)
    for (auto &W : All) {
      if (!First && secondsSince(Start) >= A.Seconds)
        break;
      W->tracedUnit(S);
      W->tracedExtras(S);
    }

  LayerMetrics LM(S);
  for (auto &W : All)
    W->layerMetrics(LM);
  Metric TracedUnit = metricOf("trace.traced_unit_ms", "ms", Traced,
                               A.Workload + " units, traced");
  Metric UntracedUnit = metricOf("trace.untraced_unit_ms", "ms", Untraced,
                                 A.Workload + " units, untraced");
  std::vector<double> Diff;
  for (size_t I = 0; I < Traced.size(); ++I)
    Diff.push_back(Traced[I] - Untraced[I]);
  Metric Overhead = metricOf("trace.overhead_ms", "ms", Diff,
                             "traced minus untraced, per unit pair");
  Overhead.Value = TracedUnit.Value - UntracedUnit.Value;
  LM.Out.push_back(TracedUnit);
  LM.Out.push_back(UntracedUnit);
  LM.Out.push_back(Overhead);

  if (!A.Spans.empty() && !S.write(A.Spans))
    std::fprintf(stderr, "perfbench: could not write spans to %s\n",
                 A.Spans.c_str());
  return LM.Out;
}

void printReport(const Args &A, const std::vector<Metric> &Ms) {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              A.Workload.c_str(), (unsigned long long)A.Seed, A.Seconds,
              A.Trace ? 1 : 0);
  std::printf("  %-36s %-6s %14s %14s %14s %9s  %s\n", "metric", "unit",
              "value", "q1", "q3", "n", "note");
  for (const Metric &M : Ms)
    std::printf("  %-36s %-6s %14.6g %14.6g %14.6g %9zu  %s\n",
                (A.Workload + "/" + M.Name).c_str(), M.Unit.c_str(), M.Value,
                M.S.Q1, M.S.Q3, M.S.N, M.Note.c_str());
}

void printJson(const Tally &T, const std::vector<Metric> &Ms) {
  bool Correct = T.Failed == 0 && T.Attempted > 0;
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(T.Attempted);
  Out += ", \"failed\": " + std::to_string(T.Failed);
  Out += ", \"metrics\": {";
  bool First = true;
  for (const Metric &M : Ms) {
    if (M.ReportOnly)
      continue;
    char Value[64];
    std::snprintf(Value, sizeof Value, "%.17g",
                  std::isfinite(M.Value) ? M.Value : 0.0);
    Out += (First ? "\"" : ", \"") + M.Name + "\": {\"value\": " + Value +
           ", \"unit\": \"" + M.Unit + "\"}";
    First = false;
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parse(Argc, Argv);

  if (!A.Record.empty()) {
    Inputs In;
    std::string Error;
    if (!In.build(A.ScaleSeeds, A.QuerySeed, nullptr, Error)) {
      std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
      return 1;
    }
    return recordReference(In, A.Record) ? 0 : 1;
  }

  Reference Ref;
  Inputs In;
  std::string Error;
  if (!Ref.load(A.Reference, Error) ||
      !In.build(A.ScaleSeeds, A.QuerySeed, &Ref, Error)) {
    std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
    return 1;
  }
  Context Ctx(In, Ref, A.Seed);

  if (A.Cold) {
    std::unique_ptr<Workload> W = makeWorkload(A.Workload, Ctx);
    double First = 0;
    double Setup = W->setup(First);
    for (const std::string &F : Ctx.T.Failures)
      std::fprintf(stderr, "perfbench: FAILED %s\n", F.c_str());
    std::printf("cold %.17g %.17g %llu %llu\n", Setup, First,
                (unsigned long long)Ctx.T.Attempted,
                (unsigned long long)Ctx.T.Failed);
    return 0;
  }

  std::vector<Metric> Ms =
      A.Trace ? runTraced(A, Ctx) : runUntraced(A, Argv, Ctx);
  for (const std::string &F : Ctx.T.Failures)
    std::fprintf(stderr, "perfbench: FAILED %s\n", F.c_str());
  printReport(A, Ms);
  printJson(Ctx.T, Ms);
  std::fflush(stdout);
  return Ctx.T.Failed == 0 && Ctx.T.Attempted > 0 ? 0 : 1;
}
