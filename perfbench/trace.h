#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// The benchmark's own spans. The client opens one around every public call
// it makes into the engine and adds the engine's profile spans beneath
// them; all spans of one request share the request's id. Spans stay in
// memory and are written out as Chrome trace-event JSON when the run ends.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;   // what ran: "ParseSql", "HashAggregate(Final)", ...
  std::string layer;  // whose self time it is: "sql.parse", "exec.join", ...
  int64_t request = 0;
  int parent = -1;  // index into Trace::spans(); -1 for a request span
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Trace {
 public:
  /// Opens a span now under `parent` (-1 starts a new request).
  int Begin(const std::string& name, const std::string& layer, int parent) {
    return Add(name, layer, parent, NowNs(), 0);
  }
  void End(int span) { spans_[span].end_ns = NowNs(); }

  /// Records a span whose interval was measured elsewhere.
  int Add(const std::string& name, const std::string& layer, int parent,
          int64_t start_ns, int64_t end_ns) {
    if (parent < 0) {
      ++current_request_;
    } else if (static_cast<size_t>(parent) >= spans_.size()) {
      throw std::logic_error("span parent out of range");
    }
    spans_.push_back(Span{name, layer, current_request_, parent, start_ns,
                          end_ns});
    return static_cast<int>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer over the spans [first, end), which must be one
  /// request span and its descendants. The values add up to the request
  /// span's duration.
  std::map<std::string, int64_t> LayerSelfNs(size_t first) const {
    std::vector<Interval> tree;
    tree.reserve(spans_.size() - first);
    for (size_t i = first; i < spans_.size(); ++i) {
      const int p = spans_[i].parent;
      if (i > first && (p < static_cast<int>(first))) {
        throw std::logic_error("span outside its request");
      }
      tree.push_back(Interval{spans_[i].start_ns, spans_[i].end_ns,
                              i == first ? -1 : p - static_cast<int>(first)});
    }
    std::vector<int64_t> self = SelfTimes(tree);
    std::map<std::string, int64_t> by_layer;
    for (size_t i = 0; i < self.size(); ++i) {
      by_layer[spans_[first + i].layer] += self[i];
    }
    return by_layer;
  }

  /// Chrome trace-event JSON ("X" complete events, one lane), loadable in
  /// Perfetto or chrome://tracing.
  bool WriteChromeJson(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << Escape(s.name)
          << "\",\"cat\":\"" << Escape(s.layer)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << (s.start_ns - origin) / 1000.0
          << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000.0
          << ",\"args\":{\"request\":" << s.request << ",\"span\":" << i
          << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  static std::string Escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out;
  }

  std::vector<Span> spans_;
  int64_t current_request_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
