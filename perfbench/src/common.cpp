#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "car/vehicle.h"
#include "sim/event_queue.h"
#include "sim/fault_plan.h"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt,
                          std::uint64_t index) noexcept {
  return psme::sim::mix3(seed, salt, index);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

constexpr int kRegimeBuilds = 9;

double vehicle_build_us(psme::car::Enforcement regime, bool content_rules) {
  std::vector<double> samples;
  for (int i = 0; i < kRegimeBuilds; ++i) {
    psme::sim::Scheduler sched;
    psme::car::VehicleConfig config;
    config.enforcement = regime;
    config.hpe_content_rules = content_rules;
    const std::int64_t start = now_ns();
    const psme::car::Vehicle vehicle(sched, config);
    samples.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  return median(samples);
}

}  // namespace

void add_vehicle_build_metrics(RunResult& result) {
  using psme::car::Enforcement;
  result.set("car.vehicle_build_us.none",
             vehicle_build_us(Enforcement::kNone, false));
  result.set("car.vehicle_build_us.sw_filter",
             vehicle_build_us(Enforcement::kSoftwareFilter, false));
  result.set("car.vehicle_build_us.hpe",
             vehicle_build_us(Enforcement::kHpe, false));
  result.set("car.vehicle_build_us.hpe_content",
             vehicle_build_us(Enforcement::kHpe, true));
  psme::sim::Scheduler sched;
  psme::car::VehicleConfig config;
  config.enforcement = Enforcement::kHpe;
  const psme::car::Vehicle vehicle(sched, config);
  const auto& memo = vehicle.binding().stats();
  result.set("car.binding_memo_hit_ratio",
             static_cast<double>(memo.memo_hits()) /
                 static_cast<double>(memo.queries));
}

void Digest::add(std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (value >> (8 * i)) & 0xFF;
    state_ *= 0x100000001b3ULL;
  }
}

void Digest::add(std::string_view bytes) noexcept {
  add(bytes.size());
  for (const char c : bytes) {
    state_ ^= static_cast<unsigned char>(c);
    state_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

std::uint32_t SpanLog::name(std::string label) {
  names_.push_back(std::move(label));
  totals_.push_back(0);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void SpanLog::begin(std::uint32_t name_id) {
  std::int32_t raw = -1;
  if (raw_.size() < kRawCapacity) {
    if (raw_.capacity() == 0) raw_.reserve(kRawCapacity);
    raw = static_cast<std::int32_t>(raw_.size());
    raw_.push_back(Raw{name_id, stack_.empty() ? -1 : stack_.back().raw, 0, 0});
  }
  stack_.push_back(Open{name_id, raw, now_ns()});
}

void SpanLog::end() noexcept {
  const std::int64_t stop = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  totals_[open.name] += stop - open.start;
  if (open.raw >= 0) {
    raw_[static_cast<std::size_t>(open.raw)].start = open.start;
    raw_[static_cast<std::size_t>(open.raw)].end = stop;
  }
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    const Raw& span = raw_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d}\n",
                 i, names_[span.name].c_str(),
                 static_cast<long long>(span.start),
                 static_cast<long long>(span.end), span.parent);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
