// In-memory span recorder for the traced benchmark run.
//
// Both the program's own spans (obs::ScopedSpan inside the library, e.g.
// core.fig7.trial, lp.revised.solve) and the spans the benchmark records
// around its calls into each module arrive through one obs::TraceSink, so
// they share one clock. Spans are kept in memory and written out once, when
// the run ends. The program's spans carry no parent link, so `finish()`
// infers it: the innermost span on the same thread that contains the span,
// else the innermost span of the driving thread that was open when it
// started (the call that fanned the work out to a pool worker).

#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

struct Span {
  std::string name;
  int thread = 0;
  std::uint64_t start_us = 0;
  std::uint64_t end_us = 0;
  long parent = -1;   // index into the finished span list; -1 = none
  double self_s = 0;  // duration minus same-thread children

  double seconds() const {
    return static_cast<double>(end_us - start_us) / 1e6;
  }
};

class SpanRecorder final : public scapegoat::obs::TraceSink {
 public:
  void write(const scapegoat::obs::TraceEvent& event) override;

  // Takes the recorded spans, ordered by start time, with parents and self
  // times filled in. `driving_thread` is the obs thread id of the thread
  // that made the benchmark's calls. Children on other threads ran
  // concurrently and count as their own threads' busy time, so only
  // same-thread children are subtracted from a span's self time.
  std::vector<Span> finish(int driving_thread);

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
};

// Writes one JSON object per span: name, thread, start/end (µs on the
// process clock), parent index and the shared run id.
void write_spans(std::ostream& out, const std::vector<Span>& spans,
                 const std::string& run_id);

}  // namespace perfbench
