#include "perfbench/src/spans.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

int SpanLog::open(std::string name, std::string layer, int parent,
                  std::uint64_t op) {
  const double t = now_ms();
  return add(std::move(name), std::move(layer), parent, op, t, t, 1);
}

void SpanLog::close(int index) { spans_.at(index).end_ms = now_ms(); }

int SpanLog::add(std::string name, std::string layer, int parent,
                 std::uint64_t op, double start_ms, double end_ms,
                 std::uint64_t calls) {
  spans_.push_back(Span{std::move(name), std::move(layer), start_ms, end_ms,
                        parent, op, calls});
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, double> SpanLog::self_ms_by_layer(
    std::size_t first) const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    if (p >= 0) {
      child_ms[static_cast<std::size_t>(p)] += spans_[i].duration_ms();
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    out[spans_[i].layer] += spans_[i].duration_ms() - child_ms[i];
  }
  return out;
}

std::map<std::string, double> SpanLog::ms_by_name(std::size_t first) const {
  std::map<std::string, double> out;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    out[spans_[i].name] += spans_[i].duration_ms();
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\",\"start_ms\":"
                  "%.6f,\"end_ms\":%.6f,\"parent\":%d,\"op\":%llu,"
                  "\"calls\":%llu}\n",
                  i, s.name.c_str(), s.layer.c_str(), s.start_ms, s.end_ms,
                  s.parent, static_cast<unsigned long long>(s.op),
                  static_cast<unsigned long long>(s.calls));
    out << buf;
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
