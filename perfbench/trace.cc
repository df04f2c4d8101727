#include "trace.h"

#include <cstdio>

namespace perfbench {
namespace {

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// Per span: the index of its root ancestor and the time its children
// cover. Parents always precede their children in `spans`, and children of
// one span never overlap (one thread), so coverage is a plain sum.
struct Derived {
  std::vector<int32_t> root;
  std::vector<int64_t> child_ns;
};

Derived Derive(const std::vector<Span>& spans) {
  Derived d;
  d.root.resize(spans.size());
  d.child_ns.assign(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    d.root[i] = s.parent < 0 ? static_cast<int32_t>(i) : d.root[s.parent];
    if (s.parent >= 0) d.child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  return d;
}

std::string Layer(const char* name) {
  std::string n(name);
  return n.substr(0, n.find('.'));
}

}  // namespace

SpanSummary SummarizeSpans(const std::vector<Span>& spans) {
  Derived d = Derive(spans);
  SpanSummary out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[{spans[d.root[i]].name, spans[i].name}];
    ++t.calls;
    t.total_s += Seconds(spans[i].end_ns - spans[i].start_ns);
  }
  return out;
}

std::map<std::string, double> LayerSelfTimes(const std::vector<Span>& spans,
                                             const std::string& root_prefix) {
  Derived d = Derive(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[d.root[i]].name).rfind(root_prefix, 0) != 0) continue;
    out[Layer(spans[i].name)] +=
        Seconds(spans[i].end_ns - spans[i].start_ns - d.child_ns[i]);
  }
  return out;
}

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  std::string out = "{\"traceEvents\":[\n";
  const int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  char buf[320];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%u,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",\n", s.name, Layer(s.name).c_str(),
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.op,
                  s.parent);
    out += buf;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace perfbench
