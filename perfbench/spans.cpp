#include "spans.hpp"

#include <algorithm>
#include <ostream>

namespace perfbench {

void SpanRecorder::write(const scapegoat::obs::TraceEvent& event) {
  Span s;
  s.name = event.name;
  s.thread = event.thread_id;
  s.start_us = event.start_us;
  s.end_us = event.start_us + event.duration_us;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(s));
}

std::vector<Span> SpanRecorder::finish(int driving_thread) {
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans.swap(spans_);
  }
  // Parents before children: earlier start first, longer span first on ties.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) {
                     if (a.start_us != b.start_us)
                       return a.start_us < b.start_us;
                     return a.end_us > b.end_us;
                   });

  // One stack of open spans per thread; the driving thread's stack doubles
  // as the "who fanned this out" lookup for worker-thread spans.
  int max_thread = driving_thread;
  for (const Span& s : spans) max_thread = std::max(max_thread, s.thread);
  std::vector<std::vector<std::size_t>> open(
      static_cast<std::size_t>(max_thread) + 1);
  std::vector<std::uint64_t> child_us(spans.size(), 0);
  auto stack_of = [&](int thread) -> std::vector<std::size_t>& {
    return open[static_cast<std::size_t>(thread)];
  };
  // Spans on one thread nest (they are RAII scopes), so an open span that
  // ends before `s` ends, or by the time it starts, cannot contain it.
  auto close_ended = [&](std::vector<std::size_t>& stack, const Span& s) {
    while (!stack.empty() && (spans[stack.back()].end_us < s.end_us ||
                              spans[stack.back()].end_us <= s.start_us))
      stack.pop_back();
  };

  for (std::size_t i = 0; i < spans.size(); ++i) {
    Span& s = spans[i];
    std::vector<std::size_t>& own = stack_of(s.thread);
    close_ended(own, s);
    if (!own.empty()) {
      s.parent = static_cast<long>(own.back());
      child_us[own.back()] += s.end_us - s.start_us;
    } else if (s.thread != driving_thread) {
      std::vector<std::size_t>& driving = stack_of(driving_thread);
      while (!driving.empty() && spans[driving.back()].end_us <= s.start_us)
        driving.pop_back();
      if (!driving.empty()) s.parent = static_cast<long>(driving.back());
    }
    own.push_back(i);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t dur = spans[i].end_us - spans[i].start_us;
    spans[i].self_s =
        static_cast<double>(dur - std::min(dur, child_us[i])) / 1e6;
  }
  return spans;
}

void write_spans(std::ostream& out, const std::vector<Span>& spans,
                 const std::string& run_id) {
  for (const Span& s : spans) {
    out << "{\"run\":\"" << scapegoat::obs::json_escape(run_id)
        << "\",\"name\":\"" << scapegoat::obs::json_escape(s.name)
        << "\",\"thread\":" << s.thread << ",\"start_us\":" << s.start_us
        << ",\"end_us\":" << s.end_us << ",\"parent\":" << s.parent << "}\n";
  }
}

}  // namespace perfbench
