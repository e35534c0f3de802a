// Span recorder of the traced run.
//
// Spans are recorded from the benchmark's own files, around its calls into
// the program's layers, all on the thread that makes the calls: the program
// itself carries no spans. Each span has a name, start and end, the span that
// was open when it began (its parent), an interval id shared by every span of
// one stream interval (-1 outside intervals), and the work it covered
// (records, bytes or calls), which turns a duration into a per-unit cost.
// Spans stay in memory and are written out once, when the run ends.
//
// A disabled recorder (the untraced run) records nothing; begin/end cost one
// branch each.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace flockbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int64_t interval = -1;
  double work = 1.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span and returns its id (-1 when disabled).
  std::int32_t begin(const char* name, std::int64_t interval = -1, double work = 1.0);
  void end(std::int32_t id);
  // Sets the work of an open or closed span once it is known.
  void set_work(std::int32_t id, double work);
  // Records an already measured span (for intervals timed across calls).
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::int64_t interval = -1, double work = 1.0);

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::int64_t interval = -1, double work = 1.0)
        : tracer_(tracer), id_(tracer.begin(name, interval, work)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set_work(double work) { tracer_.set_work(id_, work); }

   private:
    Tracer& tracer_;
    std::int32_t id_;
  };

  // Duration minus the time its direct children cover. Children of one span
  // are sequential calls on the recording thread, so they never overlap.
  std::vector<double> self_seconds() const;

  // Per-span cost samples of one span name: duration (seconds) / work.
  std::vector<double> per_work(const char* name) const;
  // Per-span durations (seconds).
  std::vector<double> durations(const char* name) const;
  // Per-span work / duration (rate samples).
  std::vector<double> rates(const char* name) const;

  // Writes every span plus a per-name summary (count, total and self
  // seconds) as JSON. Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

}  // namespace flockbench
