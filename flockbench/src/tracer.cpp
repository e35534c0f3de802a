#include "tracer.h"

#include <cstring>
#include <fstream>
#include <map>

#include "util.h"

namespace flockbench {

std::int32_t Tracer::begin(const char* name, std::int64_t interval, double work) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.interval = interval;
  span.work = work;
  span.start_ns = now_ns();
  spans_.push_back(span);
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Scopes close in reverse order of opening.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::set_work(std::int32_t id, double work) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].work = work;
}

void Tracer::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                 std::int64_t interval, double work) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  span.interval = interval;
  span.work = work;
  spans_.push_back(span);
}

std::vector<double> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = seconds_between(spans_[i].start_ns, spans_[i].end_ns);
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= seconds_between(s.start_ns, s.end_ns);
    }
  }
  return self;
}

std::vector<double> Tracer::per_work(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0 && s.work > 0) {
      out.push_back(seconds_between(s.start_ns, s.end_ns) / s.work);
    }
  }
  return out;
}

std::vector<double> Tracer::durations(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) out.push_back(seconds_between(s.start_ns, s.end_ns));
  }
  return out;
}

std::vector<double> Tracer::rates(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    const double seconds = seconds_between(s.start_ns, s.end_ns);
    if (std::strcmp(s.name, name) == 0 && seconds > 0) out.push_back(s.work / seconds);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<double> self = self_seconds();
  struct Summary {
    std::uint64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Summary> by_name;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << (s.start_ns - origin)
        << ", \"end_ns\": " << (s.end_ns - origin) << ", \"parent\": " << s.parent
        << ", \"interval\": " << s.interval << ", \"work\": " << json_number(s.work)
        << ", \"self_s\": " << json_number(self[i]) << "}";
    Summary& sum = by_name[s.name];
    ++sum.count;
    sum.total += seconds_between(s.start_ns, s.end_ns);
    sum.self += self[i];
  }
  out << "\n], \"summary\": {";
  bool first = true;
  for (const auto& [name, sum] : by_name) {
    out << (first ? "\n" : ",\n") << "\"" << name << "\": {\"count\": " << sum.count
        << ", \"total_s\": " << json_number(sum.total)
        << ", \"self_s\": " << json_number(sum.self) << "}";
    first = false;
  }
  out << "\n}}\n";
  return static_cast<bool>(out);
}

}  // namespace flockbench
