// Shared pieces of the benchmark program: the raw-record JSON writer, the
// host-time span log, exact layer counters read through the Runtime's public
// accessors, and host resource usage.
//
// The benchmark measures every layer from outside: it reads public counters,
// times its own calls into public functions, and leaves src/ untouched.

#ifndef PERFBENCH_CPP_COMMON_H_
#define PERFBENCH_CPP_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/runtime.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// splitmix64 step: every seeded workload decision derives from this.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Minimal streaming JSON writer for the raw record run.py consumes.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}
  JsonWriter& Begin(const char* key = nullptr);  // object
  JsonWriter& BeginArray(const char* key = nullptr);
  JsonWriter& End();
  JsonWriter& Num(const char* key, double v);
  JsonWriter& Int(const char* key, int64_t v);
  JsonWriter& Str(const char* key, const std::string& v);
  JsonWriter& Bool(const char* key, bool v);
  JsonWriter& IntArray(const char* key, const std::vector<int64_t>& v);

 private:
  void Sep(const char* key);
  std::ostream& out_;
  std::vector<bool> first_;  // per open scope: no element written yet
  std::vector<char> close_;  // per open scope: '}' or ']'
};

// Exact counts of one measured interval, read through public accessors.
// Every field is a deterministic function of the seed.
struct Counts {
  int64_t events = 0;
  int64_t dispatches = 0;
  int64_t preemptions = 0;
  int64_t messages = 0;
  int64_t bytes = 0;
  int64_t fragments = 0;
  int64_t roundtrips = 0;
  int64_t travels = 0;
  int64_t retries = 0;
  int64_t timeouts = 0;
  int64_t objects_created = 0;
  int64_t objects_moved = 0;
  int64_t thread_migrations = 0;
  int64_t forward_hops = 0;
  int64_t lookups = 0;
  int64_t allocations = 0;
  int64_t live_bytes = 0;  // allocator bytes in use at the snapshot
  int64_t threads_started = 0;  // threads the benchmark itself started

  static Counts Read(amber::Runtime& rt);
  Counts& operator+=(const Counts& o);
  Counts operator-(const Counts& o) const;
  void Write(JsonWriter& w, const char* key) const;
};

// Host-time spans around the benchmark's calls into public layer functions.
// Kept in memory, written at exit; nullptr (no recording) in untraced runs.
struct Span {
  int32_t name = 0;
  int32_t parent = -1;  // index into the log, -1 = top level
  uint64_t trace = 0;   // request id for serve spans, 0 otherwise
  int64_t start = 0;
  int64_t end = 0;
};

class SpanLog {
 public:
  int32_t Begin(const char* name, int32_t parent = -1, uint64_t trace = 0);
  void End(int32_t index) { spans_[static_cast<size_t>(index)].end = NowNs(); }
  void Write(std::ostream& out) const;

 private:
  std::vector<std::string> names_;
  std::map<std::string, int32_t> name_ids_;
  std::vector<Span> spans_;
};

// The active log (traced runs only). Span sites test it for null.
extern SpanLog* g_spans;

// Span endpoints that do nothing when tracing is off (Begin returns -1).
inline int32_t SpanBegin(const char* name, int32_t parent = -1, uint64_t trace = 0) {
  return g_spans != nullptr ? g_spans->Begin(name, parent, trace) : -1;
}
inline void SpanEnd(int32_t index) {
  if (index >= 0) {
    g_spans->End(index);
  }
}

// RAII span; no-op when tracing is off or `record` is false (sampling).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int32_t parent = -1, uint64_t trace = 0,
                      bool record = true)
      : index_(record ? SpanBegin(name, parent, trace) : -1) {}
  ~ScopedSpan() { SpanEnd(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t index() const { return index_; }

 private:
  int32_t index_;
};

// Resident set size now, from /proc/self/statm (bytes; 0 if unreadable).
int64_t RssBytes();

// This program's peak resident set size (VmHWM, bytes; 0 if unreadable).
// Unlike getrusage's ru_maxrss it does not carry over the high-water mark
// of the process that forked and exec'd us.
int64_t PeakRssBytes();

// Correctness gates collected over a run; any failure fails the run.
struct Checks {
  struct Item {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Item> items;
  void Add(const std::string& name, bool ok, const std::string& detail = "");
  bool all_ok() const;
  void Write(JsonWriter& w) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_CPP_COMMON_H_
