// perfbench — shared pieces of the workload driver: the per-run result,
// the simulation digest, the span log of the traced mode, and small
// timing helpers.
//
// One process runs one workload once (run.py starts a fresh process per
// repetition, so heap and trace growth never carry from one measured
// repetition into the next). The process prints a single JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  /// Where the traced mode writes its raw spans (empty: not written).
  std::string spans_path;
};

/// What one workload run reports to run.py.
struct RunResult {
  /// Hex digest of the simulated statistics; equal seeds must give equal
  /// digests in every process, traced or not.
  std::string digest;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Workload invariants that do not depend on the seed (oracle verdicts,
  /// Table I shape, zero corrupt images...). Each entry is a violation.
  std::vector<std::string> problems;
  std::vector<std::pair<std::string, double>> metrics;

  void set(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }
};

RunResult run_drive(const Options& options);
RunResult run_attack(const Options& options);
RunResult run_ota(const Options& options);

/// Inner seeds are derived from the workload seed, one per purpose.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt,
                                        std::uint64_t index = 0) noexcept;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Per-regime vehicle construction times (median of several builds, µs)
/// and the binding compiler's memo hit ratio of an HPE build — the
/// `car` construction metrics both frame-path workloads report.
void add_vehicle_build_metrics(RunResult& result);

/// Order-sensitive 64-bit digest (FNV-1a over little-endian words).
class Digest {
 public:
  void add(std::uint64_t value) noexcept;
  void add(std::string_view bytes) noexcept;
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// In-memory span recorder for the traced mode. Every span's duration is
/// summed under its name; the first kRawCapacity spans are also kept
/// verbatim (name, start, end, parent) and written out by write().
class SpanLog {
 public:
  static constexpr std::size_t kRawCapacity = 1 << 16;

  /// Registers a span name; returns its id.
  std::uint32_t name(std::string label);

  /// Opens a span; spans nest strictly (a stack).
  void begin(std::uint32_t name_id);
  void end() noexcept;

  [[nodiscard]] std::int64_t total_ns(std::uint32_t name_id) const noexcept {
    return totals_[name_id];
  }

  /// Writes the kept raw spans as JSON lines. Returns false on I/O error.
  bool write(const std::string& path) const;

 private:
  struct Open {
    std::uint32_t name;
    std::int32_t raw;  // index into raw_, or -1 when not kept
    std::int64_t start;
  };
  struct Raw {
    std::uint32_t name;
    std::int32_t parent;
    std::int64_t start;
    std::int64_t end;
  };

  std::vector<std::string> names_;
  std::vector<std::int64_t> totals_;
  std::vector<Open> stack_;
  std::vector<Raw> raw_;
};

}  // namespace perfbench
