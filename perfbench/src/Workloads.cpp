//===- perfbench/src/Workloads.cpp ----------------------------------------===//
//
// Part of the vdg-alias project (Ruf, PLDI 1995 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "checker/Diagnostics.h"
#include "checker/Oracle.h"
#include "checker/VdgVerifier.h"
#include "clients/DefUse.h"
#include "clients/ModRef.h"
#include "contextsens/Spurious.h"
#include "corpus/Corpus.h"
#include "driver/Pipeline.h"
#include "driver/Tables.h"
#include "frontend/CallGraphAST.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "fuzz/Generator.h"
#include "lint/Lint.h"
#include "memory/LocationTable.h"
#include "pointsto/Statistics.h"
#include "query/AliasSummary.h"
#include "query/Protocol.h"
#include "query/QuerySession.h"
#include "query/Server.h"
#include "support/Digest.h"
#include "vdg/Builder.h"
#include "vdg/Verifier.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <numeric>
#include <optional>
#include <sstream>
#include <sys/resource.h>
#include <unistd.h>

using namespace perfbench;
using namespace vdga;

namespace {

// Shape of newly pinned generated programs: the scale tier's settings.
constexpr unsigned GenFunctions = 12, GenStmts = 30, GenDepth = 2;

double msSince(uint64_t StartNs) { return double(nowNs() - StartNs) / 1e6; }

double residentMb() {
  std::ifstream Statm("/proc/self/statm");
  uint64_t Size = 0, Resident = 0;
  Statm >> Size >> Resident;
  return double(Resident) * double(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double maxRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return double(Usage.ru_maxrss) / 1024.0;
}

/// Measures how far ru_maxrss rises across one call. Free heap pages are
/// first returned to the system, so the call cannot grow into memory that
/// is resident but unused, and the high-water mark is reset to the current
/// resident size (Linux /proc clear_refs), so the rise is this call's own
/// peak, not an earlier call's.
class RssRise {
public:
  RssRise() {
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
    // Where the reset is unavailable the old mark stays, and only a rise
    // past it counts.
    Before = std::max(residentMb(), maxRssMb());
  }
  double mb() const { return std::max(maxRssMb() - Before, 0.0); }

private:
  double Before = 0;
};

std::string join(std::initializer_list<uint64_t> Values, char Sep) {
  std::string S;
  for (uint64_t V : Values) {
    if (!S.empty())
      S += Sep;
    S += std::to_string(V);
  }
  return S;
}

std::string totals(const PairTotals &T) {
  return join({T.Pointer, T.Function, T.Aggregate, T.Store}, '/');
}

std::string ops(const IndirectOpStats &S) {
  return join({S.Total, S.ZeroRef, S.Count1, S.Count2, S.Count3, S.Count4Plus,
               S.Max},
              ',');
}

std::string breakdown(const PairBreakdown &B) {
  std::string S;
  for (const auto &Row : B.Counts)
    for (uint64_t C : Row)
      S += (S.empty() ? "" : ",") + std::to_string(C);
  return S;
}

/// The Figure 2-7 numbers of one program, rendered as one reference row.
struct FigureRow {
  unsigned Lines = 0, Nodes = 0, Outputs = 0;
  PairTotals CI;
  IndirectOpStats Reads, Writes;
  PairBreakdown All;
  bool RanCS = false;
  PairTotals CS;
  uint64_t Spurious = 0, Containment = 0;
  unsigned CSWins = 0;
  PairBreakdown SpuriousBreakdown;

  std::string render() const {
    std::string S = "lines=" + std::to_string(Lines) +
                    " nodes=" + std::to_string(Nodes) +
                    " outputs=" + std::to_string(Outputs) +
                    " ci=" + totals(CI) +
                    " ci_pairs=" + std::to_string(CI.total()) +
                    " store_pairs=" + std::to_string(CI.Store) +
                    " reads=" + ops(Reads) + " writes=" + ops(Writes) +
                    " breakdown=" + breakdown(All);
    if (RanCS)
      S += " cs=" + totals(CS) + " spurious=" + std::to_string(Spurious) +
           " cs_wins=" + std::to_string(CSWins) +
           " containment=" + std::to_string(Containment) +
           " spurious_breakdown=" + breakdown(SpuriousBreakdown);
    return S;
  }
};

FigureRow rowOf(const BenchmarkReport &R) {
  FigureRow Row;
  Row.Lines = R.SourceLines;
  Row.Nodes = R.VdgNodes;
  Row.Outputs = R.AliasOutputs;
  Row.CI = R.CI;
  Row.Reads = R.ReadsCI;
  Row.Writes = R.WritesCI;
  Row.All = R.AllBreakdown;
  Row.RanCS = R.RanCS;
  Row.CS = R.CS;
  Row.Spurious = R.SpuriousTotal;
  Row.Containment = R.ContainmentViolations;
  Row.CSWins = R.IndirectOpsWhereCSWins;
  Row.SpuriousBreakdown = R.SpuriousBreakdown;
  return Row;
}

/// The end-to-end corpus/scale item: the library's own benchmark entry.
/// Returns the rendered row; \p Why is set when the run failed or degraded.
std::string pipelineRow(const Source &S, bool RunCS, std::string &Why) {
  CorpusProgram P{S.Name.c_str(), "", S.Text.c_str(), true};
  BenchmarkReport R = analyzeBenchmark(P, RunCS);
  if (R.Failed)
    Why = "analysis failed: " + R.FailureReason;
  else if (R.Degradation.degraded())
    Why = "analysis degraded: " + R.Degradation.summary();
  return rowOf(R).render();
}

struct CheckCounts {
  uint64_t Errors = 0, Findings = 0, VerifierChecks = 0, OracleChecks = 0;
  uint64_t Lint[3] = {0, 0, 0};

  std::string render() const {
    return "errors=" + std::to_string(Errors) +
           " findings=" + std::to_string(Findings) +
           " verifier_checks=" + std::to_string(VerifierChecks) +
           " oracle_checks=" + std::to_string(OracleChecks) +
           " lint_steens=" + std::to_string(Lint[0]) +
           " lint_ci=" + std::to_string(Lint[1]) +
           " lint_cs=" + std::to_string(Lint[2]);
  }
};

constexpr LintTier LintTiers[3] = {LintTier::Steensgaard,
                                   LintTier::ContextInsens,
                                   LintTier::ContextSens};

/// The end-to-end check item: diagnose-level checks, then lint per tier.
std::string checkRow(const Source &S, std::string &Why) {
  std::string Error;
  auto AP = AnalyzedProgram::create(S.Text, &Error);
  if (!AP) {
    Why = "frontend rejected the program: " + Error;
    return "";
  }
  CheckOptions CO;
  CO.Level = CheckLevel::Diagnose;
  CheckReport CR = AP->runChecks(CO);
  CheckCounts C;
  C.Errors = CR.errorCount();
  C.Findings = CR.Findings.size();
  C.VerifierChecks = CR.VerifierChecks;
  C.OracleChecks = CR.OracleChecks;
  if (CR.DegradedAnalyses)
    Why = std::to_string(CR.DegradedAnalyses) + " checker analyses degraded";
  for (int I = 0; I < 3; ++I) {
    LintOptions LO;
    LO.Tier = LintTiers[I];
    LintReport LR = runLint(*AP, LO);
    C.Lint[I] = LR.Findings.size();
    if (LR.Degraded)
      Why = std::string("lint degraded on tier ") + lintTierName(LO.Tier);
  }
  return C.render();
}

uint64_t counter(const MetricsRegistry &M, const char *Name) {
  const vdga::Metric *Found = M.find(Name);
  return Found ? Found->Count : 0;
}

/// A span that is only recorded when a recorder is given.
struct MaybeSpan {
  MaybeSpan(SpanRecorder *R, const char *Name) {
    if (R)
      S.emplace(*R, Name);
  }
  std::optional<SpanRecorder::Scope> S;
};

//===----------------------------------------------------------------------===//
// corpus and scale
//===----------------------------------------------------------------------===//

/// Runs create, CI, (CS,) and the figure statistics per program. `corpus`
/// runs CS over the 15 corpus programs; `scale` skips it over the pinned
/// generated programs.
class PipelineWorkload : public Workload {
public:
  PipelineWorkload(Context &Ctx, const char *Name, const char *Root,
                   const std::vector<Source> &Items, bool RunCS,
                   double TailPercentile)
      : Workload(Ctx), Name(Name), Root(Root), Items(Items), RunCS(RunCS),
        TailP(TailPercentile) {}

  double tailPercentile() const override { return TailP; }

  double unit(std::vector<double> &ItemMs) override {
    uint64_t Start = nowNs();
    for (size_t I : order(Items.size())) {
      std::string Why;
      uint64_t T0 = nowNs();
      std::string Row = pipelineRow(Items[I], RunCS, Why);
      ItemMs.push_back(msSince(T0));
      compare(key(Items[I]), Row, Why);
    }
    return msSince(Start);
  }

  double tracedUnit(SpanRecorder &R) override {
    Counts C;
    std::vector<std::pair<uint64_t, uint64_t>> Split(Items.size());
    uint64_t Start = nowNs();
    {
      SpanRecorder::Scope U = R.span(Root);
      for (size_t I : order(Items.size())) {
        std::string Why;
        FigureRow Row = tracedItem(Items[I], R, C, Why);
        Split[I] = {Row.Nodes, Row.CI.total()};
        compare(key(Items[I]), Row.render(), Why);
      }
    }
    double Ms = msSince(Start);
    PerUnit.push_back(C);
    if (!Validated)
      validateSplit(Split);
    return Ms;
  }

  /// On scale, the memory the CI solve itself needs: a separate, untimed
  /// solve per program, so the heap trim RssRise makes stays out of the
  /// timed pointsto.ci_solve span.
  void tracedExtras(SpanRecorder &) override {
    if (RunCS)
      return;
    double Mb = 0;
    for (const Source &S : Items) {
      std::string Error;
      auto AP = AnalyzedProgram::create(S.Text, &Error);
      if (!AP) {
        Ctx.T.expect(false, key(S) + ": frontend rejected the program: " +
                                Error);
        continue;
      }
      RssRise Rss;
      bool Degraded = AP->runGoverned(GovernancePolicy{}).degraded();
      Mb = std::max(Mb, Rss.mb());
      Ctx.T.expect(!Degraded, key(S) + ": CI solve degraded");
    }
    RssMb.push_back(Mb);
  }

  void layerMetrics(LayerMetrics &M) override {
    auto Samples = [&](const char *MetricName, const char *Unit,
                       double Counts::*Field) {
      std::vector<double> V;
      for (const Counts &C : PerUnit)
        V.push_back(C.*Field);
      M.samples(MetricName, Unit, V);
    };
    if (RunCS) {
      // The frontend, memory, VDG and CS layers are measured on corpus.
      M.time("frontend.lex_ms", Root, "frontend.lex");
      M.time("frontend.parse_ms", Root, "frontend.parse");
      M.time("frontend.sema_ms", Root, "frontend.sema");
      M.time("frontend.callgraph_ms", Root, "frontend.callgraph");
      Samples("frontend.tokens", "count", &Counts::Tokens);
      M.time("memory.locations_ms", Root, "memory.locations");
      Samples("memory.paths", "count", &Counts::Paths);
      M.time("vdg.build_ms", Root, "vdg.build");
      M.time("vdg.verify_ms", Root, "vdg.verify");
      Samples("vdg.nodes", "count", &Counts::Nodes);
      M.time("contextsens.cs_solve_ms", Root, "contextsens.cs_solve");
      Samples("contextsens.cs_pairs", "count", &Counts::CSPairs);
      Samples("contextsens.cs_subsumption_discards", "count",
              &Counts::Discards);
      M.time("contextsens.spurious_ms", Root, "contextsens.spurious");
      return;
    }
    // The CI layer is measured on scale, where it is nearly all the work.
    M.time("pointsto.ci_solve_ms", Root, "pointsto.ci_solve");
    Samples("pointsto.ci_pairs", "count", &Counts::CIPairs);
    Samples("pointsto.ci_store_pairs", "count", &Counts::CIStore);
    std::vector<double> Ratio;
    for (const Counts &C : PerUnit)
      Ratio.push_back(C.Meets ? C.Inserted / C.Meets : 0);
    M.samples("pointsto.ci_insert_ratio", "ratio", Ratio);
    M.samples("pointsto.ci_rss_mb", "MB", RssMb);
    M.time("pointsto.stats_ms", Root, "pointsto.stats");
  }

private:
  /// Per-unit sums of the traced path's exact counts.
  struct Counts {
    double Tokens = 0, Paths = 0, Nodes = 0, CIPairs = 0, CIStore = 0;
    double Inserted = 0, Meets = 0, CSPairs = 0, Discards = 0;
  };

  std::string key(const Source &S) const { return Name + (" " + S.Name); }

  /// The item's layers called one at a time, in AnalyzedProgram::create's
  /// order, then the same solves and statistics analyzeBenchmark runs.
  FigureRow tracedItem(const Source &S, SpanRecorder &R, Counts &C,
                       std::string &Why) {
    FigureRow Row;
    Program P;
    P.SourceLines = Lexer::countCodeLines(S.Text);
    DiagnosticEngine Diags;
    std::vector<Token> Tokens;
    {
      SpanRecorder::Scope Sp = R.span("frontend.lex");
      Tokens = Lexer(S.Text, Diags).lexAll();
    }
    C.Tokens += double(Tokens.size());
    bool Ok = false;
    {
      SpanRecorder::Scope Sp = R.span("frontend.parse");
      Ok = Parser(std::move(Tokens), P, Diags).parseProgram() &&
           !Diags.hasErrors();
    }
    if (Ok) {
      SpanRecorder::Scope Sp = R.span("frontend.sema");
      Ok = Sema(P, Diags).run();
    }
    if (!Ok) {
      Why = "frontend rejected the program: " + Diags.render();
      return Row;
    }
    std::optional<CallGraphAST> CG;
    {
      SpanRecorder::Scope Sp = R.span("frontend.callgraph");
      CG.emplace(P);
      CG->annotate(P);
    }
    PathTable Paths;
    std::optional<LocationTable> Locs;
    {
      SpanRecorder::Scope Sp = R.span("memory.locations");
      Locs.emplace(P, Paths);
    }
    Graph G;
    {
      SpanRecorder::Scope Sp = R.span("vdg.build");
      Builder(P, Paths, *Locs, G).build();
    }
    {
      SpanRecorder::Scope Sp = R.span("vdg.verify");
      Ok = verifyGraph(G, P, Diags);
    }
    if (!Ok) {
      Why = "VDG verification failed: " + Diags.render();
      return Row;
    }

    // The untraced path solves through runGoverned with the default
    // policy, so the traced path uses that policy's strategy too.
    SolverStrategy Strategy = GovernancePolicy{}.Strategy;
    PairTable PT;
    MetricsRegistry Metrics;
    SolverObserver Obs{&Metrics, nullptr, false};
    std::optional<PointsToResult> CI;
    {
      SpanRecorder::Scope Sp = R.span("pointsto.ci_solve");
      CI.emplace(ContextInsensitiveSolver(G, Paths, PT, WorklistOrder::FIFO,
                                          Obs, ResourceBudget{}, Strategy)
                     .solve());
    }
    if (!CI->complete()) {
      Why = "CI solve did not complete";
      return Row;
    }
    Row.Lines = P.SourceLines;
    Row.Nodes = static_cast<unsigned>(G.numNodes());
    Row.Outputs = G.countAliasRelatedOutputs();
    {
      SpanRecorder::Scope Sp = R.span("pointsto.stats");
      Row.CI = computePairTotals(G, *CI);
      Row.Reads = computeIndirectOpStats(G, *CI, PT, /*Writes=*/false);
      Row.Writes = computeIndirectOpStats(G, *CI, PT, /*Writes=*/true);
      Row.All = computePairBreakdown(G, *CI, PT, Paths, *Locs);
    }
    C.Nodes += Row.Nodes;
    C.CIPairs += double(Row.CI.total());
    C.CIStore += double(Row.CI.Store);
    C.Inserted += double(CI->Stats.PairsInserted);
    C.Meets += double(CI->Stats.MeetOps);

    if (RunCS) {
      AssumptionSetTable AT;
      ContextSensOptions CSO;
      CSO.Strategy = Strategy;
      std::optional<ContextSensResult> CS;
      {
        SpanRecorder::Scope Sp = R.span("contextsens.cs_solve");
        CS.emplace(ContextSensSolver(G, Paths, PT, AT, *CI, CSO, Obs).solve());
      }
      if (!CS->complete()) {
        Why = "CS solve did not complete";
        return Row;
      }
      Row.RanCS = true;
      {
        SpanRecorder::Scope Sp = R.span("contextsens.spurious");
        PointsToResult Stripped = CS->stripAssumptions();
        SpuriousStats SS =
            computeSpuriousStats(G, *CI, Stripped, PT, Paths, *Locs);
        Row.CS = SS.CSTotals;
        Row.Spurious = SS.SpuriousTotal;
        Row.Containment = SS.ContainmentViolations;
        Row.SpuriousBreakdown = SS.SpuriousBreakdown;
        Row.CSWins = countIndirectOpsWhereCSWins(G, *CI, Stripped, PT);
      }
      C.CSPairs += double(Row.CS.total());
      C.Discards += double(counter(Metrics, "cs.subsumption_discards"));
    }
    C.Paths += double(Paths.numPaths());
    return Row;
  }

  /// The traced path must analyse the same program as the untraced one:
  /// same VDG size and CI pair total as AnalyzedProgram::create gives.
  void validateSplit(const std::vector<std::pair<uint64_t, uint64_t>> &Split) {
    Validated = true;
    for (size_t I = 0; I < Items.size(); ++I) {
      std::string Error;
      auto AP = AnalyzedProgram::create(Items[I].Text, &Error);
      uint64_t Nodes = AP ? AP->G.numNodes() : 0, Pairs = 0;
      if (AP) {
        GovernedAnalysis GA = AP->runGoverned(GovernancePolicy{});
        Pairs = computePairTotals(AP->G, GA.CI).total();
      }
      Ctx.T.expect(Split[I] == std::make_pair(Nodes, Pairs),
                   key(Items[I]) + ": traced frontend split gives " +
                       std::to_string(Split[I].first) + " nodes / " +
                       std::to_string(Split[I].second) +
                       " CI pairs, AnalyzedProgram::create gives " +
                       std::to_string(Nodes) + " / " + std::to_string(Pairs));
    }
  }

  const char *Name;
  const char *Root;
  const std::vector<Source> &Items;
  bool RunCS;
  double TailP;
  bool Validated = false;
  std::vector<Counts> PerUnit;
  std::vector<double> RssMb; ///< Largest CI solve RSS rise, per extras call.
};

//===----------------------------------------------------------------------===//
// check
//===----------------------------------------------------------------------===//

/// Per corpus program: runChecks at Diagnose level, then lint on the
/// steens, ci and cs tiers.
class CheckWorkload : public Workload {
public:
  explicit CheckWorkload(Context &Ctx) : Workload(Ctx) {}

  // p90 is the centre of the second-slowest program's latencies.
  double tailPercentile() const override { return 90; }

  double unit(std::vector<double> &ItemMs) override {
    uint64_t Start = nowNs();
    for (size_t I : order(Ctx.In.Corpus.size())) {
      const Source &S = Ctx.In.Corpus[I];
      std::string Why;
      uint64_t T0 = nowNs();
      std::string Row = checkRow(S, Why);
      ItemMs.push_back(msSince(T0));
      compare("check " + S.Name, Row, Why);
    }
    return msSince(Start);
  }

  double tracedUnit(SpanRecorder &R) override {
    Counts C;
    uint64_t Start = nowNs();
    {
      SpanRecorder::Scope U = R.span("unit.check");
      for (size_t I : order(Ctx.In.Corpus.size())) {
        const Source &S = Ctx.In.Corpus[I];
        std::string Why;
        CheckCounts CC = tracedItem(S, R, Why);
        C.VerifierChecks += double(CC.VerifierChecks);
        for (int T = 0; T < 3; ++T)
          C.Lint[T] += double(CC.Lint[T]);
        compare("check " + S.Name, CC.render(), Why);
      }
    }
    double Ms = msSince(Start);
    C.Steps = Steps;
    Steps = 0;
    PerUnit.push_back(C);
    return Ms;
  }

  void layerMetrics(LayerMetrics &M) override {
    const char *Root = "unit.check";
    M.time("driver.create_ms", Root, "driver.create");
    M.time("checker.verify_ms", Root, "checker.verify");
    M.time("checker.oracle_ms", Root, "checker.oracle");
    M.time("checker.diagnose_ms", Root, "checker.diagnose");
    M.time("interp.run_ms", Root, "interp.run");
    M.time("baseline.weihl_ms", Root, "baseline.weihl");
    M.time("baseline.steens_ms", Root, "baseline.steens");
    M.time("clients.modref_ms", Root, "clients.modref");
    M.time("clients.defuse_ms", Root, "clients.defuse");
    M.time("lint.steens_ms", Root, "lint.steens");
    M.time("lint.ci_ms", Root, "lint.ci");
    M.time("lint.cs_ms", Root, "lint.cs");
    std::vector<double> Checks, StepCounts, Lint[3];
    for (const Counts &C : PerUnit) {
      Checks.push_back(C.VerifierChecks);
      StepCounts.push_back(C.Steps);
      for (int T = 0; T < 3; ++T)
        Lint[T].push_back(C.Lint[T]);
    }
    M.samples("checker.verifier_checks", "count", Checks);
    M.samples("interp.steps", "count", StepCounts);
    M.samples("lint.steens_findings", "count", Lint[0]);
    M.samples("lint.ci_findings", "count", Lint[1]);
    M.samples("lint.cs_findings", "count", Lint[2]);
  }

private:
  struct Counts {
    double VerifierChecks = 0, Steps = 0;
    double Lint[3] = {0, 0, 0};
  };

  /// AnalyzedProgram::runChecks at Diagnose level, one layer call at a
  /// time (same calls, same order), then runLint per tier.
  CheckCounts tracedItem(const Source &S, SpanRecorder &R, std::string &Why) {
    CheckCounts C;
    std::unique_ptr<AnalyzedProgram> AP;
    std::string Error;
    {
      SpanRecorder::Scope Sp = R.span("driver.create");
      AP = AnalyzedProgram::create(S.Text, &Error);
    }
    if (!AP) {
      Why = "frontend rejected the program: " + Error;
      return C;
    }
    auto Tally = [&](const std::vector<Finding> &Fs) {
      C.Findings += Fs.size();
      for (const Finding &F : Fs)
        C.Errors += F.Severity == FindingSeverity::Error;
    };
    {
      SpanRecorder::Scope Sp = R.span("checker.verify");
      VerifierResult VR = verifyAnalyzedGraph(AP->G, AP->program(), AP->Paths,
                                              AP->locations());
      C.VerifierChecks = VR.Checks;
      Tally(VR.Findings);
    }
    CheckOptions CO;
    std::optional<PointsToResult> CI;
    {
      SpanRecorder::Scope Sp = R.span("pointsto.ci_solve");
      CI.emplace(AP->runContextInsensitive(CO.Order, /*RecordProvenance=*/true,
                                           CO.SolverBudget));
    }
    std::optional<ContextSensResult> CS;
    if (CI->complete()) {
      SpanRecorder::Scope Sp = R.span("contextsens.cs_solve");
      ContextSensOptions CSO;
      CSO.Budget = CO.SolverBudget;
      CS.emplace(AP->runContextSensitive(*CI, CSO));
    }
    std::optional<WeihlResult> Weihl;
    {
      SpanRecorder::Scope Sp = R.span("baseline.weihl");
      Weihl.emplace(AP->runWeihl(CO.SolverBudget));
    }
    std::optional<SteensgaardResult> Steens;
    {
      SpanRecorder::Scope Sp = R.span("baseline.steens");
      Steens.emplace(AP->runSteensgaard(CO.SolverBudget));
    }
    if (!CS || !CS->complete() || !Weihl->complete() || !Steens->complete()) {
      Why = "a checker analysis degraded";
      return C;
    }
    std::optional<PointsToResult> Stripped;
    {
      SpanRecorder::Scope Sp = R.span("contextsens.strip");
      Stripped.emplace(CS->stripAssumptions());
    }
    std::optional<RunResult> Run;
    {
      SpanRecorder::Scope Sp = R.span("interp.run");
      Run.emplace(AP->interpret(CO.OracleInput, CO.OracleMaxSteps,
                                CO.OracleMaxCallDepth));
    }
    Steps += double(Run->StepsExecuted);
    if (!Run->Ok) {
      Why = "concrete execution failed: " + Run->Error;
      return C;
    }
    C.Findings += Run->Truncated; // runChecks notes a truncated run.
    {
      SpanRecorder::Scope Sp = R.span("checker.oracle");
      OracleAnalyses A;
      A.CI = &*CI;
      A.CS = &*Stripped;
      A.Weihl = &*Weihl;
      A.Steens = &*Steens;
      OracleResult OR = runSoundnessOracle(AP->G, AP->Paths, AP->PT,
                                           AP->program().Names, Run->Trace, A);
      C.OracleChecks = OR.Checks;
      Tally(OR.Findings);
    }
    std::optional<ModRefInfo> MR;
    {
      SpanRecorder::Scope Sp = R.span("clients.modref");
      MR.emplace(computeModRef(AP->G, *CI, AP->PT, AP->Paths));
    }
    std::optional<DefUseInfo> DU;
    {
      SpanRecorder::Scope Sp = R.span("clients.defuse");
      DU.emplace(computeDefUse(AP->G, *CI, AP->PT, AP->Paths));
    }
    {
      SpanRecorder::Scope Sp = R.span("checker.diagnose");
      Tally(runDiagnostics(AP->G, AP->program(), AP->Paths, AP->PT, *CI, *MR,
                           *DU));
    }
    static constexpr const char *LintSpans[3] = {"lint.steens", "lint.ci",
                                                 "lint.cs"};
    for (int T = 0; T < 3; ++T) {
      SpanRecorder::Scope Sp = R.span(LintSpans[T]);
      LintOptions LO;
      LO.Tier = LintTiers[T];
      LintReport LR = runLint(*AP, LO);
      C.Lint[T] = LR.Findings.size();
      if (LR.Degraded)
        Why = std::string("lint degraded on tier ") + lintTierName(LO.Tier);
    }
    return C;
  }

  double Steps = 0; ///< Interpreter steps in the current traced unit.
  std::vector<Counts> PerUnit;
};

//===----------------------------------------------------------------------===//
// query
//===----------------------------------------------------------------------===//

/// One QueryServer over a generated program, driven in a closed loop by
/// one client through handleLine, as `vdga-serve` pipe mode is. Each unit
/// is the next batch of the run's seeded request stream; the server's
/// caches hit and miss as that stream makes them, nothing is forced.
class QueryWorkload : public Workload {
public:
  /// Requests per unit.
  static constexpr size_t Batch = 2000;
  /// Requests in the fixed stream that measures hit rate and bytes.
  static constexpr size_t FixedBatch = 4000;
  /// One request in SampleEvery is re-sent with the cache bypassed.
  static constexpr uint64_t SampleEvery = 64;

  explicit QueryWorkload(Context &Ctx)
      : Workload(Ctx), Stream(Ctx.Seed * 0x9E3779B97F4A7C15ULL + 1),
        Sampler(Ctx.Seed ^ 0xB7E151628AED2A6BULL) {}

  double tailPercentile() const override { return 99; }

  /// QueryServer::create plus the first answered request, which runs the
  /// governed solve and flattens the alias summary.
  double setup(double &FirstItemMs) override {
    FirstItemMs = startServer(nullptr);
    return SetupS;
  }

  double unit(std::vector<double> &ItemMs) override {
    if (!Server)
      startServer(nullptr);
    std::vector<std::string> Lines = batch(Stream, Batch);
    uint64_t Start = nowNs(), Prev = Start;
    for (size_t I = 0; I < Lines.size(); ++I) {
      Responses[I] = Server->handleLine(Lines[I], Shutdown);
      uint64_t Now = nowNs();
      ItemMs.push_back(double(Now - Prev) / 1e6);
      Prev = Now;
    }
    double Ms = double(Prev - Start) / 1e6;
    checkBatch(Lines);
    return Ms;
  }

  double tracedUnit(SpanRecorder &R) override {
    if (!Server)
      startServer(&R);
    std::vector<std::string> Lines = batch(Stream, Batch);
    uint64_t Start = nowNs();
    {
      SpanRecorder::Scope U = R.span("unit.query");
      for (size_t I = 0; I < Lines.size(); ++I) {
        SpanRecorder::Scope Sp = R.span("query.handle");
        Responses[I] = Server->handleLine(Lines[I], Shutdown);
      }
    }
    double Ms = msSince(Start);
    checkBatch(Lines);
    return Ms;
  }

  /// Request parsing and the bare session on one batch, then the governed
  /// solve and the summary build, each on a fresh program.
  void tracedExtras(SpanRecorder &R) override {
    if (!Server)
      startServer(&R);
    SpanRecorder::Scope U = R.span("extras.query");
    std::vector<std::string> Lines = batch(Stream, Batch);
    std::vector<QueryRequest> Reqs(Lines.size());
    for (size_t I = 0; I < Lines.size(); ++I) {
      std::string Error;
      bool Ok = false;
      {
        SpanRecorder::Scope Sp = R.span("query.parse");
        Ok = parseQueryRequest(Lines[I], Reqs[I], &Error);
      }
      Ctx.T.expect(Ok, "query: request did not parse: " + Error);
    }
    for (const QueryRequest &Req : Reqs) {
      QueryAnswer A;
      {
        SpanRecorder::Scope Sp = R.span("query.session");
        A = ask(*Session, Req, CacheMode::Use);
      }
      Ctx.T.expect(A.Ok, "query: session answer failed: " + A.Error);
    }
    for (const char *Layer : {"query.solve", "query.summary"}) {
      std::string Error;
      auto AP = AnalyzedProgram::create(Ctx.In.Query.Text, &Error);
      if (!AP) {
        Ctx.T.expect(false, "query: frontend rejected the program: " + Error);
        continue;
      }
      bool Degraded = false;
      SpanRecorder::Scope Sp = R.span(Layer);
      if (Layer == std::string_view("query.solve"))
        Degraded = AP->runGoverned(GovernancePolicy{}).degraded();
      else
        Degraded =
            buildAliasSummary(*AP, Ctx.In.Query.Text, GovernancePolicy{})
                .Degraded;
      Ctx.T.expect(!Degraded, std::string("query: ") + Layer + " degraded");
    }
  }

  void layerMetrics(LayerMetrics &M) override {
    M.time("query.create_ms", "setup.query", "query.create");
    M.time("query.solve_ms", "extras.query", "query.solve");
    M.time("query.summary_ms", "extras.query", "query.summary");
    M.perCallUs("query.parse_us", "query.parse");
    M.perCallUs("query.session_us", "query.session");
    M.perCallUs("query.handle_us", "query.handle");
    M.samples("query.hit_rate", "ratio", {HitRate});
    M.samples("query.response_bytes", "count", {ResponseBytes});
  }

private:
  /// Starts the server and answers the first request. With a recorder,
  /// also sends the fixed request stream to the fresh server to measure
  /// its cache hit rate and response size. Returns the first request's
  /// latency, ms.
  double startServer(SpanRecorder *R) {
    uint64_t Begin = nowNs();
    MaybeSpan Setup(R, "setup.query");
    std::string Error;
    {
      MaybeSpan Sp(R, "query.create");
      Server = QueryServer::create(Ctx.In.Query.Text, {}, &Error);
    }
    if (!Server) {
      // Nothing else can run: the benchmark cannot continue.
      std::fprintf(stderr, "perfbench: query server failed to start: %s\n",
                   Error.c_str());
      std::exit(1);
    }
    uint64_t T0 = nowNs();
    std::string First;
    {
      MaybeSpan Sp(R, "query.first_request");
      First = Server->handleLine(
          R"({"id":0,"op":"modref","target":"main"})", Shutdown);
    }
    double FirstMs = msSince(T0);
    SetupS = msSince(Begin) / 1000;
    Ctx.T.expect(ok(First), "query: first request failed: " + First);

    const AliasSummary &S = Server->summary();
    for (const AliasSummary::Variable &V : S.Variables)
      Vars.push_back(V.Name);
    for (const AliasSummary::Function &F : S.Functions)
      Fns.push_back(F.Name);
    for (const AliasSummary::Callsite &C : S.Callsites)
      Sites.push_back(C.Site);
    if (Vars.empty() || Fns.empty()) {
      std::fprintf(stderr, "perfbench: query summary has nothing to ask\n");
      std::exit(1);
    }
    Responses.resize(std::max(Batch, FixedBatch));
    Session.emplace(S, SessionMetrics);

    if (R) {
      std::mt19937_64 Fixed(1);
      std::vector<std::string> Lines = batch(Fixed, FixedBatch);
      for (size_t I = 0; I < Lines.size(); ++I)
        Responses[I] = Server->handleLine(Lines[I], Shutdown);
      checkBatch(Lines);
      ResponseBytes = 0;
      for (size_t I = 0; I < Lines.size(); ++I)
        ResponseBytes += double(content(Responses[I]).size());
      const MetricsRegistry &M = Server->metrics();
      double Hits = double(counter(M, "query.alias_hits") +
                           counter(M, "query.pointee_hits") +
                           counter(M, "query.modref_hits"));
      double Misses = double(counter(M, "query.alias_misses") +
                             counter(M, "query.pointee_misses") +
                             counter(M, "query.modref_misses"));
      HitRate = Hits / (Hits + Misses);
    }
    return FirstMs;
  }

  /// 50% mayAlias, 30% pointsTo, 20% modref (half functions, half call
  /// sites), operands drawn uniformly from the summary's names.
  std::vector<std::string> batch(std::mt19937_64 &G, size_t N) {
    auto Pick = [&](const std::vector<std::string> &V) -> const std::string & {
      return V[G() % V.size()];
    };
    std::vector<std::string> Lines;
    Lines.reserve(N);
    for (size_t I = 0; I < N; ++I) {
      std::string L = "{\"id\":" + std::to_string(NextId++) + ",\"op\":";
      uint64_t Roll = G() % 100;
      if (Roll < 50)
        L += "\"mayAlias\",\"a\":\"" + jsonEscape(Pick(Vars)) +
             "\",\"b\":\"" + jsonEscape(Pick(Vars)) + "\"}";
      else if (Roll < 80)
        L += "\"pointsTo\",\"var\":\"" + jsonEscape(Pick(Vars)) + "\"}";
      else
        L += "\"modref\",\"target\":\"" +
             jsonEscape(Roll < 90 || Sites.empty() ? Pick(Fns) : Pick(Sites)) +
             "\"}";
      Lines.push_back(std::move(L));
    }
    return Lines;
  }

  static QueryAnswer ask(QuerySession &S, const QueryRequest &Req,
                         CacheMode Mode) {
    auto Str = [&](const char *Key) {
      const std::string *V = Req.str(Key);
      return V ? std::string_view(*V) : std::string_view();
    };
    if (Req.Op == "mayAlias")
      return S.mayAlias(Str("a"), Str("b"), Mode);
    if (Req.Op == "pointsTo")
      return S.pointsTo(Str("var"), Mode);
    return S.modref(Str("target"), Mode);
  }

  /// An answer that is not an error and did not degrade.
  static bool ok(const std::string &Response) {
    return Response.find(",\"ok\":true,") != std::string::npos &&
           Response.find(",\"degraded\":false,") != std::string::npos;
  }

  /// The response without its cache flag and latency, which legitimately
  /// differ between a cached and a bypassed answer.
  static std::string_view content(const std::string &Response) {
    std::string_view V(Response);
    size_t Cut = V.find(",\"cached\":");
    return Cut == std::string_view::npos ? V : V.substr(0, Cut);
  }

  /// Every response must be ok; a seeded sample must equal the answer
  /// recomputed with the cache bypassed.
  void checkBatch(const std::vector<std::string> &Lines) {
    for (size_t I = 0; I < Lines.size(); ++I) {
      Ctx.T.expect(ok(Responses[I]),
                   "query: " + Lines[I] + " -> " + Responses[I]);
      if (Sampler() % SampleEvery)
        continue;
      std::string Bypass = Lines[I];
      Bypass.insert(Bypass.size() - 1, ",\"cache\":\"bypass\"");
      std::string Fresh = Server->handleLine(Bypass, Shutdown);
      Ctx.T.expect(content(Fresh) == content(Responses[I]),
                   "query: cached answer differs from bypass answer for " +
                       Lines[I] + ": " + Responses[I] + " vs " + Fresh);
    }
  }

  std::unique_ptr<QueryServer> Server;
  MetricsRegistry SessionMetrics;
  std::optional<QuerySession> Session;
  bool Shutdown = false;
  std::vector<std::string> Vars, Fns, Sites;
  std::vector<std::string> Responses;
  uint64_t NextId = 1;
  std::mt19937_64 Stream;  ///< The request stream, from the run's seed.
  std::mt19937_64 Sampler; ///< Picks the answers re-checked uncached.
  double SetupS = 0; ///< Server creation through the first answer.
  double HitRate = 0, ResponseBytes = 0;
};

/// Value of "key=<n>" in a reference row.
uint64_t field(const std::string &Row, const std::string &Key) {
  std::string Padded = " " + Row;
  size_t At = Padded.find(" " + Key + "=");
  if (At == std::string::npos)
    return UINT64_MAX;
  return std::strtoull(Padded.c_str() + At + Key.size() + 2, nullptr, 10);
}

} // namespace

//===----------------------------------------------------------------------===//
// Shared pieces
//===----------------------------------------------------------------------===//

void Tally::expect(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (Failures.size() < 20)
    Failures.push_back(What);
}

bool Reference::load(const std::string &Path, std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot read reference file " + Path;
    return false;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Words(Line);
    std::string Kind;
    Words >> Kind;
    if (Kind == "gen") {
      PinnedProgram P;
      char Digest[17] = {0};
      if (std::sscanf(Line.c_str(),
                      "gen %" SCNu64
                      " functions=%u stmts=%u depth=%u lines=%u digest=%16s",
                      &P.Seed, &P.Functions, &P.Stmts, &P.Depth, &P.Lines,
                      Digest) != 6) {
        Error = "malformed reference line: " + Line;
        return false;
      }
      P.Digest = Digest;
      Programs[P.Seed] = P;
      continue;
    }
    std::string Workload, Item;
    Words >> Workload >> Item;
    std::string Row;
    std::getline(Words >> std::ws, Row);
    if (Kind != "row" || Item.empty() || Row.empty()) {
      Error = "malformed reference line: " + Line;
      return false;
    }
    Rows[Workload + " " + Item] = Row;
  }

  // The paper-level totals the reference must reproduce: 92 pair instances
  // that CS eliminates, no indirect operation where CS beats CI, no checker
  // error, and 71/81/114 lint findings on the steens/ci/cs tiers.
  uint64_t Spurious = 0, Wins = 0, Errors = 0, Lint[3] = {0, 0, 0};
  size_t CorpusRows = 0, CheckRows = 0;
  for (const auto &[Key, Row] : Rows) {
    if (Key.rfind("corpus ", 0) == 0) {
      ++CorpusRows;
      Spurious += field(Row, "spurious");
      Wins += field(Row, "cs_wins");
    } else if (Key.rfind("check ", 0) == 0) {
      ++CheckRows;
      Errors += field(Row, "errors");
      Lint[0] += field(Row, "lint_steens");
      Lint[1] += field(Row, "lint_ci");
      Lint[2] += field(Row, "lint_cs");
    }
  }
  if (CorpusRows != corpus().size() || CheckRows != corpus().size() ||
      Spurious != 92 || Wins != 0 || Errors != 0 || Lint[0] != 71 ||
      Lint[1] != 81 || Lint[2] != 114) {
    Error = "reference totals are not the expected corpus results "
            "(spurious " +
            std::to_string(Spurious) + "/92, cs wins " +
            std::to_string(Wins) + "/0, checker errors " +
            std::to_string(Errors) + "/0, lint " + std::to_string(Lint[0]) +
            "/" + std::to_string(Lint[1]) + "/" + std::to_string(Lint[2]) +
            " of 71/81/114)";
    return false;
  }
  return true;
}

const std::string &Reference::row(const std::string &Key) const {
  static const std::string Missing = "(no reference row)";
  auto It = Rows.find(Key);
  return It == Rows.end() ? Missing : It->second;
}

bool Inputs::build(const std::vector<uint64_t> &ScaleSeeds, uint64_t QuerySeed,
                   const Reference *Ref, std::string &Error) {
  for (const CorpusProgram &P : corpus())
    Corpus.push_back({P.Name, P.Source});

  auto Generate = [&](uint64_t Seed, Source &Out) {
    PinnedProgram Pin{Seed, GenFunctions, GenStmts, GenDepth, 0, ""};
    if (Ref) {
      auto It = Ref->Programs.find(Seed);
      if (It == Ref->Programs.end()) {
        Error = "generator seed " + std::to_string(Seed) +
                " is not pinned in the reference";
        return false;
      }
      Pin = It->second;
    }
    FuzzOptions O;
    O.Seed = Seed;
    O.MaxFunctions = Pin.Functions;
    O.MaxStmtsPerBlock = Pin.Stmts;
    O.MaxBlockDepth = Pin.Depth;
    Out.Name = "gen" + std::to_string(Seed);
    Out.Text = generateProgram(O).render();
    unsigned Lines =
        static_cast<unsigned>(std::count(Out.Text.begin(), Out.Text.end(), '\n'));
    std::string Digest = sourceDigest(Out.Text);
    if (Ref && (Lines != Pin.Lines || Digest != Pin.Digest)) {
      Error = "generator seed " + std::to_string(Seed) + " now yields " +
              std::to_string(Lines) + " lines, digest " + Digest +
              "; pinned: " + std::to_string(Pin.Lines) + " lines, digest " +
              Pin.Digest + ". The generator changed, so this workload would "
              "silently measure a different program";
      return false;
    }
    Pin.Lines = Lines;
    Pin.Digest = Digest;
    if (std::none_of(Generated.begin(), Generated.end(),
                     [&](const PinnedProgram &G) { return G.Seed == Seed; }))
      Generated.push_back(Pin);
    return true;
  };

  for (uint64_t Seed : ScaleSeeds) {
    Scale.emplace_back();
    if (!Generate(Seed, Scale.back()))
      return false;
  }
  return Generate(QuerySeed, Query);
}

double Workload::setup(double &FirstItemMs) {
  std::vector<double> ItemMs;
  double Ms = unit(ItemMs);
  FirstItemMs = ItemMs.front();
  return Ms / 1000;
}

void Workload::compare(const std::string &Key, const std::string &Row,
                       const std::string &Why) {
  if (!Why.empty()) {
    Ctx.T.expect(false, Key + ": " + Why);
    return;
  }
  const std::string &Expected = Ctx.Ref.row(Key);
  Ctx.T.expect(Row == Expected, Key + ": output differs from the reference" +
                                    "\n  got:      " + Row +
                                    "\n  expected: " + Expected);
}

std::vector<size_t> Workload::order(size_t N) {
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0);
  std::shuffle(Order.begin(), Order.end(), Ctx.Rng);
  return Order;
}

void LayerMetrics::time(const char *Name, const char *Root, const char *Span) {
  auto It = ByRoot.find(Root);
  if (It == ByRoot.end())
    It = ByRoot.emplace(Root, Spans.selfByRoot(Root)).first;
  std::vector<double> PerUnit;
  for (const auto &Unit : It->second) {
    auto Found = Unit.find(Span);
    PerUnit.push_back(Found == Unit.end() ? 0 : Found->second);
  }
  Spread S = spreadOf(PerUnit);
  Out.push_back({Name, "ms", S.Median, S, "self time per unit"});
}

void LayerMetrics::perCallUs(const char *Name, const char *Span) {
  std::vector<double> Us;
  for (const SpanRecorder::Span &S : Spans.spans())
    if (S.Name == std::string_view(Span))
      Us.push_back(double(S.EndNs - S.StartNs) / 1e3);
  Spread S = spreadOf(Us);
  Out.push_back({Name, "us", S.Median, S, "per call"});
}

void LayerMetrics::samples(const char *Name, const char *Unit,
                           const std::vector<double> &PerUnit) {
  Spread S = spreadOf(PerUnit);
  bool Exact = std::all_of(PerUnit.begin(), PerUnit.end(),
                           [&](double V) { return V == PerUnit.front(); });
  Out.push_back({Name, Unit, S.Median, S,
                 std::string(Unit) == "count" && !Exact
                     ? "COUNT DIFFERS BETWEEN UNITS"
                     : "per unit"});
}

std::unique_ptr<Workload> perfbench::makeWorkload(const std::string &Name,
                                                  Context &Ctx) {
  // corpus: p95 falls inside the slowest program's (protocol) latencies.
  // scale: p75 falls inside the heaviest third of the programs.
  if (Name == "corpus")
    return std::make_unique<PipelineWorkload>(Ctx, "corpus", "unit.corpus",
                                              Ctx.In.Corpus, true, 95);
  if (Name == "scale")
    return std::make_unique<PipelineWorkload>(Ctx, "scale", "unit.scale",
                                              Ctx.In.Scale, false, 75);
  if (Name == "query")
    return std::make_unique<QueryWorkload>(Ctx);
  if (Name == "check")
    return std::make_unique<CheckWorkload>(Ctx);
  return nullptr;
}

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {"corpus", "scale", "query",
                                                 "check"};
  return Names;
}

bool perfbench::recordReference(const Inputs &In, const std::string &Path) {
  std::ofstream Out(Path);
  Out << "# perfbench reference: pinned generated inputs and the expected\n"
         "# output of every item. Rewrite only when an output change is\n"
         "# intended; see perfbench/README.md.\n";
  for (const PinnedProgram &P : In.Generated)
    Out << "gen " << P.Seed << " functions=" << P.Functions
        << " stmts=" << P.Stmts << " depth=" << P.Depth
        << " lines=" << P.Lines << " digest=" << P.Digest << "\n";
  bool Ok = true;
  auto Row = [&](const char *Workload, const Source &S, std::string Text,
                 const std::string &Why) {
    if (!Why.empty()) {
      std::fprintf(stderr, "perfbench: %s %s: %s\n", Workload, S.Name.c_str(),
                   Why.c_str());
      Ok = false;
    }
    Out << "row " << Workload << " " << S.Name << " " << Text << "\n";
  };
  for (const Source &S : In.Corpus) {
    std::string Why;
    std::string Text = pipelineRow(S, true, Why);
    Row("corpus", S, Text, Why);
  }
  for (const Source &S : In.Scale) {
    std::string Why;
    std::string Text = pipelineRow(S, false, Why);
    Row("scale", S, Text, Why);
  }
  for (const Source &S : In.Corpus) {
    std::string Why;
    std::string Text = checkRow(S, Why);
    Row("check", S, Text, Why);
  }
  Out.flush();
  return Ok && static_cast<bool>(Out);
}
