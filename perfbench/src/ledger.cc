#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

namespace perfbench {

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

int Ledger::Open(std::string name, uint64_t request, int parent) {
  Span span;
  span.name = std::move(name);
  span.start_ms = MsBetween(origin_, Clock::now());
  span.end_ms = span.start_ms;
  span.parent = parent;
  span.request = request;
  spans_.push_back(std::move(span));
  children_.emplace_back();
  int index = static_cast<int>(spans_.size()) - 1;
  if (parent >= 0) children_[static_cast<size_t>(parent)].push_back(index);
  return index;
}

void Ledger::Close(int span) {
  spans_[static_cast<size_t>(span)].end_ms = MsBetween(origin_, Clock::now());
}

int Ledger::AddMeasured(std::string name, uint64_t request, int parent, double ms) {
  int index = Open(std::move(name), request, parent);
  Span& s = spans_[static_cast<size_t>(index)];
  s.start_ms = s.end_ms - ms;
  return index;
}

double Ledger::ChildMs(int span) const {
  double sum = 0.0;
  for (int c : children_[static_cast<size_t>(span)]) sum += spans_[static_cast<size_t>(c)].ms();
  return sum;
}

double Ledger::SelfMs(int span) const {
  return spans_[static_cast<size_t>(span)].ms() - ChildMs(span);
}

bool Ledger::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char line[512];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"request\":%llu,\"parent\":%d,\"start_ms\":%.6f,"
                  "\"end_ms\":%.6f}\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.request), s.parent,
                  s.start_ms, s.end_ms);
    out << line;
  }
  return static_cast<bool>(out);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

namespace {

/// A "Key:   <n> kB" line of /proc/self/status, in MiB.
double StatusKbField(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string word;
  while (in >> word) {
    if (word == key) {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double RssMb() { return StatusKbField("VmRSS:"); }
double PeakRssMb() { return StatusKbField("VmHWM:"); }

CpuTicks ReadCpuTicks() {
  // "cpu user nice system idle iowait irq softirq steal ..."
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTicks ticks;
  if (!(in >> label) || label != "cpu") return ticks;
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

double StealPct(const CpuTicks& before, const CpuTicks& after) {
  uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

}  // namespace perfbench
