//===- perfbench/src/Spans.h - In-memory span recorder ----------*- C++ -*-===//
//
// Part of the vdg-alias project (Ruf, PLDI 1995 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run wraps every call into a layer in a span: name, start,
/// end and the enclosing span. Spans stay in memory until the run ends and
/// are then written out as JSON lines; a layer's self time is its span's
/// duration minus the time its child spans cover.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class SpanRecorder {
public:
  static constexpr int32_t NoParent = -1;

  struct Span {
    const char *Name; ///< A string literal: names are never copied.
    uint64_t StartNs = 0, EndNs = 0;
    int32_t Parent = NoParent;
  };

  /// Closes its span when it goes out of scope.
  class Scope {
  public:
    Scope(SpanRecorder &R, const char *Name) : R(R), Index(R.open(Name)) {}
    ~Scope() { R.close(Index); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder &R;
    int32_t Index;
  };

  Scope span(const char *Name) { return Scope(*this, Name); }

  const std::vector<Span> &spans() const { return Spans; }

  /// Per closed span named \p Root: the self time of each span name in its
  /// subtree (the root's own glue included under its name), milliseconds.
  std::vector<std::map<std::string, double>>
  selfByRoot(const std::string &Root) const;

  /// Writes one JSON object per span; returns false on an I/O error.
  bool write(const std::string &Path) const;

private:
  /// Self time of every span, in milliseconds, indexed like spans().
  std::vector<double> selfMs() const;

  int32_t open(const char *Name) {
    Spans.push_back({Name, nowNs(), 0, Current});
    Current = static_cast<int32_t>(Spans.size() - 1);
    return Current;
  }
  void close(int32_t Index) {
    Spans[Index].EndNs = nowNs();
    Current = Spans[Index].Parent;
  }

  std::vector<Span> Spans;
  int32_t Current = NoParent;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
