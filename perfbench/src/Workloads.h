//===- perfbench/src/Workloads.h - The four benchmark workloads -*- C++ -*-===//
//
// Part of the vdg-alias project (Ruf, PLDI 1995 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Inputs, reference outputs and the four workloads (corpus, scale, query,
/// check). Every workload runs the same work two ways: untraced, through
/// the library's end-to-end entry points, and traced, through the same
/// layers called one at a time with a span around each call. Every output
/// is compared against the reference file; a mismatch is a failed
/// operation.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Spans.h"
#include "Stats.h"

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

/// Generator settings and identity of one pinned generated program.
struct PinnedProgram {
  uint64_t Seed = 0;
  unsigned Functions = 0, Stmts = 0, Depth = 0;
  unsigned Lines = 0;  ///< Newline count of the rendered source.
  std::string Digest;  ///< sourceDigest of the rendered source.
};

/// Pinned inputs and recorded outputs (perfbench/reference.txt).
struct Reference {
  std::map<uint64_t, PinnedProgram> Programs;
  /// Expected output row per item, keyed "<workload> <item name>".
  std::map<std::string, std::string> Rows;

  bool load(const std::string &Path, std::string &Error);
  const std::string &row(const std::string &Key) const;
};

/// Operations attempted and failed, with the first failure messages.
struct Tally {
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Failures;

  void expect(bool Ok, const std::string &What);
};

struct Source {
  std::string Name;
  std::string Text;
};

/// Everything a workload reads: corpus and generated programs.
struct Inputs {
  std::vector<Source> Corpus;
  std::vector<Source> Scale;
  Source Query;
  std::vector<PinnedProgram> Generated;

  /// Regenerates the programs for \p ScaleSeeds and \p QuerySeed. When
  /// \p Ref is given, each must be pinned there and match its line count
  /// and digest exactly; otherwise the default generator settings apply.
  bool build(const std::vector<uint64_t> &ScaleSeeds, uint64_t QuerySeed,
             const Reference *Ref, std::string &Error);
};

/// What the run shares: inputs, reference, seeded randomness, tally.
struct Context {
  const Inputs &In;
  const Reference &Ref;
  uint64_t Seed;
  std::mt19937_64 Rng;
  Tally T;

  Context(const Inputs &In, const Reference &Ref, uint64_t Seed)
      : In(In), Ref(Ref), Seed(Seed), Rng(Seed) {}
};

/// One reported metric: the value, and the samples it summarizes.
struct Metric {
  std::string Name, Unit;
  double Value = 0;
  Spread S;
  std::string Note; ///< Extra detail for the spread report.
  bool ReportOnly = false; ///< Printed in the report, not in the result.
};

/// Collects per-layer metrics from the spans of one traced run.
class LayerMetrics {
public:
  explicit LayerMetrics(const SpanRecorder &S) : Spans(S) {}

  /// Per-unit self time of \p Span summed over each \p Root subtree;
  /// median over units.
  void time(const char *Name, const char *Root, const char *Span);
  /// Median duration of the spans named \p Span, in microseconds.
  void perCallUs(const char *Name, const char *Span);
  /// A value per unit (exact counts repeat in every unit).
  void samples(const char *Name, const char *Unit,
               const std::vector<double> &PerUnit);

  std::vector<Metric> Out;

private:
  const SpanRecorder &Spans;
  std::map<std::string, std::vector<std::map<std::string, double>>> ByRoot;
};

class Workload {
public:
  explicit Workload(Context &Ctx) : Ctx(Ctx) {}
  virtual ~Workload() = default;
  Workload(const Workload &) = delete;
  Workload &operator=(const Workload &) = delete;

  /// Cold cost before the first result, seconds, on the process's fresh
  /// state: by default the first unit. Call once, first. \p FirstItemMs
  /// receives the first item's latency on its own.
  virtual double setup(double &FirstItemMs);

  /// One warm unit; appends each item's latency (ms) and returns the
  /// unit's wall time (ms).
  virtual double unit(std::vector<double> &ItemMs) = 0;

  /// The same unit with a span around every layer call.
  virtual double tracedUnit(SpanRecorder &S) = 0;

  /// Traced work outside the unit that measures this workload's layers.
  virtual void tracedExtras(SpanRecorder &) {}

  /// Adds the per-layer metrics this workload is the home of.
  virtual void layerMetrics(LayerMetrics &M) = 0;

  /// The percentile tail_ms reports: the highest ladder step that keeps
  /// ten samples beyond it in a run of this workload.
  virtual double tailPercentile() const = 0;

protected:
  /// Item order for the next unit: every item once, seeded shuffle.
  std::vector<size_t> order(size_t N);

  /// Counts one operation: failed when \p Why is set or \p Row differs
  /// from the reference row \p Key.
  void compare(const std::string &Key, const std::string &Row,
               const std::string &Why);

  Context &Ctx;
};

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       Context &Ctx);

/// The workload names, in the order traced rounds visit them.
const std::vector<std::string> &workloadNames();

/// Writes a reference file for \p In by running every item untraced.
bool recordReference(const Inputs &In, const std::string &Path);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
