#include "perfbench/cpp/common.h"

#include <cmath>
#include <cstdio>
#include <unistd.h>

namespace perfbench {

SpanLog* g_spans = nullptr;

namespace {

void WriteString(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out << buf;
    } else {
      out << c;
    }
  }
  out << '"';
}

}  // namespace

void JsonWriter::Sep(const char* key) {
  if (!first_.empty()) {
    if (!first_.back()) {
      out_ << ',';
    }
    first_.back() = false;
  }
  if (key != nullptr) {
    WriteString(out_, key);
    out_ << ':';
  }
}

JsonWriter& JsonWriter::Begin(const char* key) {
  Sep(key);
  out_ << '{';
  first_.push_back(true);
  close_.push_back('}');
  return *this;
}

JsonWriter& JsonWriter::BeginArray(const char* key) {
  Sep(key);
  out_ << '[';
  first_.push_back(true);
  close_.push_back(']');
  return *this;
}

JsonWriter& JsonWriter::End() {
  out_ << close_.back();
  close_.pop_back();
  first_.pop_back();
  if (first_.empty()) {
    out_ << '\n';
  }
  return *this;
}

JsonWriter& JsonWriter::Num(const char* key, double v) {
  Sep(key);
  if (std::isfinite(v)) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ << buf;
  } else {
    out_ << "null";
  }
  return *this;
}

JsonWriter& JsonWriter::Int(const char* key, int64_t v) {
  Sep(key);
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::Str(const char* key, const std::string& v) {
  Sep(key);
  WriteString(out_, v);
  return *this;
}

JsonWriter& JsonWriter::Bool(const char* key, bool v) {
  Sep(key);
  out_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::IntArray(const char* key, const std::vector<int64_t>& v) {
  BeginArray(key);
  for (int64_t x : v) {
    Int(nullptr, x);
  }
  return End();
}

Counts Counts::Read(amber::Runtime& rt) {
  Counts c;
  c.events = static_cast<int64_t>(rt.sim().events_run());
  c.dispatches = static_cast<int64_t>(rt.sim().dispatches());
  c.preemptions = static_cast<int64_t>(rt.sim().preemptions());
  c.messages = rt.network().messages();
  c.bytes = rt.network().bytes_sent();
  c.fragments = rt.network().fragments();
  c.roundtrips = rt.transport().roundtrips();
  c.travels = rt.transport().travels();
  c.retries = rt.transport().retries();
  c.timeouts = rt.transport().timeouts();
  c.objects_created = rt.objects_created();
  c.objects_moved = rt.objects_moved();
  c.thread_migrations = rt.thread_migrations();
  c.forward_hops = rt.forward_hops();
  for (amber::NodeId n = 0; n < rt.nodes(); ++n) {
    c.lookups += rt.table(n).lookups();
    c.allocations += rt.allocator(n).total_allocations();
    c.live_bytes += rt.allocator(n).live_bytes();
  }
  return c;
}

Counts& Counts::operator+=(const Counts& o) {
  events += o.events;
  dispatches += o.dispatches;
  preemptions += o.preemptions;
  messages += o.messages;
  bytes += o.bytes;
  fragments += o.fragments;
  roundtrips += o.roundtrips;
  travels += o.travels;
  retries += o.retries;
  timeouts += o.timeouts;
  objects_created += o.objects_created;
  objects_moved += o.objects_moved;
  thread_migrations += o.thread_migrations;
  forward_hops += o.forward_hops;
  lookups += o.lookups;
  allocations += o.allocations;
  live_bytes += o.live_bytes;
  threads_started += o.threads_started;
  return *this;
}

Counts Counts::operator-(const Counts& o) const {
  Counts d = *this;
  d.events -= o.events;
  d.dispatches -= o.dispatches;
  d.preemptions -= o.preemptions;
  d.messages -= o.messages;
  d.bytes -= o.bytes;
  d.fragments -= o.fragments;
  d.roundtrips -= o.roundtrips;
  d.travels -= o.travels;
  d.retries -= o.retries;
  d.timeouts -= o.timeouts;
  d.objects_created -= o.objects_created;
  d.objects_moved -= o.objects_moved;
  d.thread_migrations -= o.thread_migrations;
  d.forward_hops -= o.forward_hops;
  d.lookups -= o.lookups;
  d.allocations -= o.allocations;
  d.live_bytes -= o.live_bytes;
  d.threads_started -= o.threads_started;
  return d;
}

void Counts::Write(JsonWriter& w, const char* key) const {
  w.Begin(key)
      .Int("events", events)
      .Int("dispatches", dispatches)
      .Int("preemptions", preemptions)
      .Int("messages", messages)
      .Int("bytes", bytes)
      .Int("fragments", fragments)
      .Int("roundtrips", roundtrips)
      .Int("travels", travels)
      .Int("retries", retries)
      .Int("timeouts", timeouts)
      .Int("objects_created", objects_created)
      .Int("objects_moved", objects_moved)
      .Int("thread_migrations", thread_migrations)
      .Int("forward_hops", forward_hops)
      .Int("lookups", lookups)
      .Int("allocations", allocations)
      .Int("live_bytes", live_bytes)
      .Int("threads_started", threads_started)
      .End();
}

int32_t SpanLog::Begin(const char* name, int32_t parent, uint64_t trace) {
  auto [it, inserted] = name_ids_.try_emplace(name, static_cast<int32_t>(names_.size()));
  if (inserted) {
    names_.emplace_back(name);
  }
  spans_.push_back(Span{it->second, parent, trace, NowNs(), 0});
  return static_cast<int32_t>(spans_.size() - 1);
}

// {"names": [...], "spans": [[name, parent, trace, start, end], ...]}
void SpanLog::Write(std::ostream& out) const {
  JsonWriter w(out);
  w.Begin().BeginArray("names");
  for (const std::string& n : names_) {
    w.Str(nullptr, n);
  }
  w.End().BeginArray("spans");
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start;
  for (const Span& s : spans_) {
    w.BeginArray()
        .Int(nullptr, s.name)
        .Int(nullptr, s.parent)
        .Int(nullptr, static_cast<int64_t>(s.trace))
        .Int(nullptr, s.start - origin)
        .Int(nullptr, s.end - origin)
        .End();
  }
  w.End().End();
}

int64_t RssBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  long pages_total = 0;
  long pages_resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
  std::fclose(f);
  return n == 2 ? int64_t{pages_resident} * sysconf(_SC_PAGESIZE) : 0;
}

int64_t PeakRssBytes() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
      break;
    }
  }
  std::fclose(f);
  return int64_t{kb} * 1024;
}

void Checks::Add(const std::string& name, bool ok, const std::string& detail) {
  items.push_back(Item{name, ok, detail});
  if (!ok) {
    std::fprintf(stderr, "check FAILED: %s %s\n", name.c_str(), detail.c_str());
  }
}

bool Checks::all_ok() const {
  for (const Item& i : items) {
    if (!i.ok) {
      return false;
    }
  }
  return true;
}

void Checks::Write(JsonWriter& w) const {
  w.BeginArray("checks");
  for (const Item& i : items) {
    w.Begin().Str("name", i.name).Bool("ok", i.ok).Str("detail", i.detail).End();
  }
  w.End();
}

}  // namespace perfbench
